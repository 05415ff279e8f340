"""CLI dispatch, canonical output, exit codes and operation coverage."""

import collections
import copy
import io
import itertools
import json
import os
import random
import subprocess
import sys

from fractions import Fraction
from pathlib import Path

import pytest

import multichow
from multichow import cli, errors, linalg
from multichow import multidegree as mdg
from multichow import polymatroid as pm
from multichow.errors import DegenerateInputError, InapplicableError, exact, integer
from multichow.multiview import multiview_multidegree, random_cameras

from helpers import (
    argv_outcome,
    argv_samples,
    count_table_builds,
    frobenius_multidegree,
    product_of_curves_multidegree,
    random_polymatroid,
    reference_argv_parser,
)


# Cameras 1 and 2 share the center (0,0,0,1); camera 3 is general.
SHARED_CENTER = [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    [[1, 2, 0, 0], [0, 1, 3, 0], [1, 0, 1, 0]],
    [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3]],
]


def write(tmp_path, obj, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def random_multidegree(seed):
    """A variety-tagged multidegree on the support of a seeded random
    polymatroid, with random positive coefficients."""
    rng = random.Random(f"analyze:{seed}")
    sig, delta = random_polymatroid(rng, rng.randint(1, 4))
    support = pm.Polymatroid(sig, delta).support()
    return mdg.Multidegree(sig, {gamma: rng.randint(1, 9) for gamma in support})


def library_record(md, beta):
    """The ``analyze`` record of one profile, from the library predicates."""
    sig, delta = md.sig, md.rank_function()
    one_deficient = pm.is_one_deficient(sig, delta, beta)
    try:
        chow_degree = [str(d) for d in mdg.chow_form_multidegree(md, beta)]
    except InapplicableError:
        chow_degree = None
    return {
        "beta": list(beta),
        "hypersurface": mdg.is_hypersurface(md, beta),
        "determines": mdg.determines_variety(md, beta),
        "one_deficient": one_deficient,
        "circuit": pm.is_circuit(sig, delta, beta),
        "tight_set": list(pm.minimal_tight_set(sig, delta, beta)) if one_deficient else None,
        "criterion_form": [str(c) for c in mdg.criterion_form(md, beta)],
        "chow_degree": chow_degree,
    }


class TestSubcommands:
    def test_betas_determining_multiview_k3(self, tmp_path, capsys):
        path = write(tmp_path, multiview_multidegree(3).to_json())
        code, out, err = run_main(["betas", "--criterion", "determining", "--input", path], capsys)
        assert code == 0
        assert json.loads(out) == {"betas": [[1, 1, 2], [1, 2, 1], [2, 1, 1]]}

    def test_analyze_frobenius(self, tmp_path, capsys):
        obj = frobenius_multidegree(2).to_json()
        obj["beta"] = [1, 2]
        path = write(tmp_path, obj)
        code, out, err = run_main(["analyze", "--input", path], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["hypersurface"] is True
        assert result["determines"] is True
        assert result["chow_degree"] == ["4", "2"]

    def test_analyze_all_beta(self, tmp_path, capsys):
        path = write(tmp_path, {"multidegree": multiview_multidegree(3).to_json()})
        code, out, err = run_main(["analyze", "--all-beta", "--input", path], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        determining = [r["beta"] for r in results if r["determines"]]
        assert determining == [[1, 1, 2], [1, 2, 1], [2, 1, 1]]

    @pytest.mark.parametrize(
        "md",
        [multiview_multidegree(k) for k in range(2, 6)]
        + [frobenius_multidegree(2), product_of_curves_multidegree(2, 3)]
        + [random_multidegree(seed) for seed in range(30)],
        ids=[f"multiview-k{k}" for k in range(2, 6)]
        + ["frobenius", "product-of-curves"]
        + [f"random-{seed}" for seed in range(30)],
    )
    def test_analyze_all_beta_agrees_with_the_library(self, md, tmp_path, capsys):
        path = write(tmp_path, {"multidegree": md.to_json()})
        code, out, err = run_main(["analyze", "--all-beta", "--input", path], capsys)
        assert code == 0, err
        results = json.loads(out)["results"]
        assert [r["beta"] for r in results] == [
            list(beta) for beta in pm.profiles(md.sig.n, md.sig.r + 1)
        ]
        assert results == [library_record(md, r["beta"]) for r in results]

    def test_support_of_empty_coefficients_fails(self, tmp_path, capsys):
        path = write(tmp_path, {"n": [2, 2], "r": 2, "coefficients": []})
        code, out, err = run_main(["support", "--input", path], capsys)
        assert code == 2
        assert json.loads(err)["error"]["status"] == "precondition-failed"

    def test_support_and_projections_round_trip(self, tmp_path, capsys):
        md = multiview_multidegree(2)
        path = write(tmp_path, md.to_json())
        code, out, _ = run_main(["support", "--input", path], capsys)
        assert code == 0
        support = json.loads(out)["support"]
        back = write(tmp_path, {"n": [2, 2], "support": support}, "back.json")
        code, out, _ = run_main(["projections", "--input", back], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["r"] == 3
        table = {tuple(v["subset"]): v["delta"] for v in parsed["values"]}
        assert table == {(): 0, (1,): 2, (2,): 2, (1, 2): 3}

    def test_support_of_a_cycle_via_its_projections(self, tmp_path, capsys):
        """``support`` refuses the cycle P^2 x pt + pt x P^2, but the support
        of its projection dimensions is still one ``projections`` away; it
        holds (1, 1), whose coefficient in the cycle is 0."""
        gammas = [[2, 0], [0, 2]]
        cycle = {"n": [2, 2], "r": 2, "tag": "cycle"}
        cycle["coefficients"] = [{"gamma": g, "a": "1"} for g in gammas]
        code, _, _ = run_main(["support", "--input", write(tmp_path, cycle)], capsys)
        assert code == 2
        path = write(tmp_path, {"n": [2, 2], "support": gammas}, "support.json")
        code, out, _ = run_main(["projections", "--input", path], capsys)
        assert code == 0
        delta = json.loads(out)
        obj = {"n": [2, 2], "r": delta.pop("r"), "rank_function": delta}
        code, out, _ = run_main(["support", "--input", write(tmp_path, obj, "rank.json")], capsys)
        assert (code, json.loads(out)) == (0, {"support": [[0, 2], [1, 1], [2, 0]]})

    def test_validate_rank_reports_ok(self, tmp_path, capsys):
        path = write(tmp_path, multiview_multidegree(3).to_json())
        code, out, _ = run_main(["validate-rank", "--input", path], capsys)
        assert code == 0
        assert json.loads(out) == {"ok": True, "violations": []}

    def test_validate_rank_refuses_what_support_refuses(self, tmp_path, capsys):
        """A polymatroid whose full-set value is not r is reported by
        ``validate-rank`` and refused by the commands that build one."""
        values = {(): 0, (1,): 1, (2,): 1, (1, 2): 2}
        obj = {
            "n": [1, 1],
            "r": 1,
            "rank_function": {
                "k": 2,
                "values": [{"subset": list(s), "delta": d} for s, d in values.items()],
            },
        }
        path = write(tmp_path, obj)
        code, out, _ = run_main(["validate-rank", "--input", path], capsys)
        assert code == 0
        assert json.loads(out) == {
            "ok": False,
            "violations": [{"axiom": "rank", "I": [1, 2], "J": None}],
        }
        for argv in (["support"], ["betas", "--criterion", "hypersurface"]):
            code, out, err = run_main([*argv, "--input", path], capsys)
            assert (code, out) == (2, "")
            assert "rank fails at I=[1, 2]" in json.loads(err)["error"]["message"]

    def test_chow_degree_and_slice(self, tmp_path, capsys):
        obj = multiview_multidegree(3).to_json()
        obj["beta"] = [2, 1, 1]
        path = write(tmp_path, obj)
        code, out, _ = run_main(["chow-degree", "--input", path], capsys)
        assert code == 0
        assert json.loads(out) == {"chow_degree": ["1", "1", "1"]}
        obj["subset"] = [1]
        path = write(tmp_path, obj)
        code, out, _ = run_main(["slice", "--input", path], capsys)
        assert code == 0
        sliced = json.loads(out)
        assert sliced["tag"] == "cycle"
        assert sliced["r"] == 1

    def test_tensor_residual_contract_agree(self, tmp_path, capsys):
        cams = random_cameras(2, 30).to_json()
        obj = dict(cams, beta=[2, 2])
        code, out, _ = run_main(["tensor", "--input", write(tmp_path, obj)], capsys)
        assert code == 0
        tensor = json.loads(out)
        spaces = [[["1", "0", "0"], ["0", "1", "0"]], [["0", "0", "1"], ["1", "1", "1"]]]
        res_in = dict(cams, spaces=spaces)
        code, out, _ = run_main(["residual", "--input", write(tmp_path, res_in)], capsys)
        assert code == 0
        residual = json.loads(out)["residual"]
        contract_in = {
            "tensor": tensor,
            # cross products of the cutting lines above
            "coordinates": [["0", "0", "1"], ["-1", "1", "0"]],
        }
        code, out, _ = run_main(["contract", "--input", write(tmp_path, contract_in)], capsys)
        assert code == 0
        assert json.loads(out)["value"] == residual

    def test_oracle_multidegree(self, tmp_path, capsys):
        obj = dict(random_cameras(3, 31).to_json(), gamma=[1, 1, 1])
        path = write(tmp_path, obj)
        code, out, _ = run_main(
            ["oracle-multidegree", "--trials", "4", "--seed", "7", "--input", path],
            capsys,
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed == {"counts": [1, 1, 1, 1], "majority": 1, "expected": 1}

    def test_oracle_epsilon(self, tmp_path, capsys):
        obj = dict(random_cameras(2, 32).to_json(), beta=[2, 2])
        path = write(tmp_path, obj)
        code, out, _ = run_main(
            ["oracle-epsilon", "--trials", "3", "--input", path], capsys
        )
        assert code == 0
        assert json.loads(out) == {"counts": [1, 1, 1]}

    def test_sz_test(self, tmp_path, capsys):
        obj = dict(
            random_cameras(3, 33).to_json(),
            beta=[2, 1, 1],
            candidate=[[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        )
        path = write(tmp_path, obj)
        code, out, _ = run_main(["sz-test", "--trials", "3", "--input", path], capsys)
        assert code == 0
        assert json.loads(out) == {"member": False}


class TestErrorHandling:
    def test_unknown_subcommand(self, capsys):
        code, out, err = run_main(["frobnicate"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["status"] == "precondition-failed"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_main(["support", "--input", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        ["[" * 10_000 + "]" * 10_000, '{"n": ' + "[" * 10_000 + "]" * 10_000 + "}"],
        ids=["top-level", "under-n"],
    )
    def test_deeply_nested_json(self, text, capsys, monkeypatch):
        """JSON nested deeper than the parser's recursion limit is malformed
        input, not a traceback; ``json.dumps`` of such a value recurses too,
        so the fuzz test cannot carry this case."""
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_main(["support"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["status"] == "precondition-failed"

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run_main(["support", "--input", str(tmp_path / "absent.json")], capsys)
        assert code == 2
        assert json.loads(err)["error"]["status"] == "precondition-failed"

    def test_inapplicable_gives_exit_4(self, tmp_path, capsys):
        obj = {
            "n": [2, 2],
            "r": 2,
            "coefficients": [{"gamma": [2, 0], "a": "1"}],
            "tag": "cycle",
            "beta": [2, 1],
        }
        code, _, err = run_main(["chow-degree", "--input", write(tmp_path, obj)], capsys)
        assert code == 4
        assert json.loads(err)["error"]["status"] == "inapplicable"

    def test_degenerate_gives_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.mv,
            "epsilon_oracle",
            lambda *a, **k: (_ for _ in ()).throw(
                DegenerateInputError("resampling exhausted")
            ),
        )
        obj = dict(random_cameras(2, 34).to_json(), beta=[2, 2])
        path = write(tmp_path, obj)
        code, _, err = run_main(["oracle-epsilon", "--input", path], capsys)
        assert code == 3
        assert json.loads(err)["error"]["status"] == "degenerate-input"

    def test_non_generic_cameras_give_exit_3_on_oracle_multidegree(self, tmp_path, capsys):
        # Two identical cameras: the oracle would count 0 against an
        # expected coefficient that assumes generic cameras.
        cam = CAMERAS_2["cameras"][0]
        obj = {"cameras": [cam, cam], "gamma": [0, 1]}
        code, out, err = run_main(
            ["oracle-multidegree", "--trials", "5", "--input", write(tmp_path, obj)], capsys
        )
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["status"] == "degenerate-input"
        assert "'expected' assumes generic cameras" in error["message"]

    def test_non_generic_cameras_give_exit_3_on_sz_test(self, tmp_path, capsys):
        # Two identical cameras have the zero tensor, which every candidate
        # would pass.
        cam = CAMERAS_2["cameras"][0]
        obj = {"cameras": [cam, cam], "beta": [2, 2], "candidate": [[1, 2, 3], [4, 5, 6]]}
        code, out, err = run_main(
            ["sz-test", "--trials", "3", "--input", write(tmp_path, obj)], capsys
        )
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["status"] == "degenerate-input"
        assert "'member' assumes generic cameras" in error["message"]

    @pytest.mark.parametrize(
        "cameras,beta",
        [(SHARED_CENTER[:2], [2, 2]), (SHARED_CENTER, [2, 1, 1])],
        ids=["k2", "k3"],
    )
    def test_non_generic_cameras_give_exit_3_on_oracle_epsilon(
        self, cameras, beta, tmp_path, capsys
    ):
        # The oracle's counts here (all "non-finite" at k=2, all 1 at k=3)
        # look plausible but assume generic cameras.
        obj = {"cameras": cameras, "beta": beta}
        code, out, err = run_main(
            ["oracle-epsilon", "--trials", "3", "--input", write(tmp_path, obj)], capsys
        )
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["status"] == "degenerate-input"
        assert "'counts' assumes generic cameras" in error["message"]

    def test_tensor_of_non_generic_cameras_is_exact_and_quiet(self, tmp_path, capsys):
        cam = CAMERAS_2["cameras"][0]
        obj = {"cameras": [cam, cam], "beta": [2, 2]}
        code, out, err = run_main(["tensor", "--input", write(tmp_path, obj)], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"beta": [2, 2], "entries": []}

    @pytest.mark.parametrize(
        "argv",
        [["support"], ["betas", "--criterion", "hypersurface"], ["analyze"]],
        ids=["support", "betas", "analyze"],
    )
    def test_cycle_input_refused_by_analyze(self, argv, tmp_path, capsys):
        """Every command that reads a polymatroid refuses a cycle, which has
        none: ``support`` and ``betas`` as ``analyze`` does."""
        obj = {
            "n": [2, 2],
            "r": 2,
            "coefficients": [{"gamma": [2, 0], "a": "1"}],
            "tag": "cycle",
            "beta": [2, 1],
        }
        code, out, err = run_main([*argv, "--input", write(tmp_path, obj)], capsys)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["status"] == "precondition-failed"
        assert "got a cycle-tagged input" in error["message"]

    def test_cycle_with_an_invalid_rank_function_gets_the_cycle_refusal(self, tmp_path, capsys):
        """The projection dimensions of this cycle are not submodular; the
        refusal names the cycle tag, not the rank function."""
        gammas = [[0, 1, 1, 1], [0, 1, 2, 0], [0, 2, 0, 1], [0, 2, 1, 0], [1, 0, 1, 1], [1, 1, 0, 1]]
        obj = {
            "n": [1, 2, 2, 1],
            "r": 3,
            "coefficients": [{"gamma": g, "a": 1} for g in gammas],
            "tag": "cycle",
            "beta": [0, 1, 2, 1],
        }
        code, out, err = run_main(["analyze", "--input", write(tmp_path, obj)], capsys)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["status"] == "precondition-failed"
        assert "got a cycle-tagged input" in error["message"]
        assert "rank function" not in error["message"]


#: The exit code each error class of the package ends in.
ERROR_EXIT_CODES = {
    "MultichowError": 2,
    "PreconditionError": 2,
    "CycleInputError": 2,
    "DegenerateInputError": 3,
    "InapplicableError": 4,
}
ERROR_CLASSES = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.MultichowError)
]


def test_every_error_class_has_a_pinned_exit_code():
    assert sorted(cls.__name__ for cls in ERROR_CLASSES) == sorted(ERROR_EXIT_CODES)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_names_its_exit_status(cls, tmp_path, capsys, monkeypatch):
    def handler(obj, args):
        raise cls("raised by the handler")

    support = cli.SUBCOMMANDS["support"]._replace(handler=handler)
    monkeypatch.setitem(cli.SUBCOMMANDS, "support", support)
    code, out, err = run_main(["support", "--input", write(tmp_path, {})], capsys)
    assert code == cli.EXIT_CODES[cls.status] == ERROR_EXIT_CODES[cls.__name__]
    assert out == ""
    assert json.loads(err) == {
        "error": {"status": cls.status, "message": "raised by the handler"}
    }


def tensor_request(beta, *entries):
    return {
        "tensor": {
            "beta": beta,
            "entries": [{"index": index, "value": value} for index, value in entries],
        },
        "coordinates": [[1, 0, 0], [1, 0, 0]],
    }


@pytest.mark.parametrize(
    "obj",
    [
        tensor_request([7, -3], ([1, 1], "3")),
        tensor_request([2, 2], ([1, 1], "3"), ([1, 1], "5")),
    ],
    ids=["profile-without-a-tensor", "repeated-index"],
)
def test_contract_refuses_a_malformed_tensor(obj, tmp_path, capsys):
    code, out, err = run_main(["contract", "--input", write(tmp_path, obj)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["status"] == "precondition-failed"


# Two cameras, with a candidate that 20 trials of sz-test find is no member.
ORACLE_INPUT = {
    "cameras": [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3]],
    ],
    "beta": [2, 2],
    "gamma": [1, 0],
    "candidate": [[1, 0, 0], [0, 1, 0]],
}


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("sub", ["oracle-multidegree", "oracle-epsilon", "sz-test"])
def test_oracle_with_fewer_than_one_trial_exits_2(sub, trials, tmp_path, capsys):
    argv = [sub, "--trials", trials, "--input", write(tmp_path, ORACLE_INPUT)]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["status"] == "precondition-failed"
    assert "at least one trial" in error["message"]


CAMERAS_2 = random_cameras(2, 36).to_json()
CAMERAS_3 = random_cameras(3, 37).to_json()
MULTIVIEW_3 = multiview_multidegree(3).to_json()
SPACES = [[["1", "0", "0"], ["0", "1", "0"]], [["0", "0", "1"], ["1", "1", "1"]]]
TENSOR = {"beta": [2, 2], "entries": [{"index": [1, 1], "value": "3"}]}


def camera_entry(entry):
    cameras = copy.deepcopy(CAMERAS_2["cameras"])
    cameras[1][2][0] = entry
    return {"cameras": cameras, "beta": [2, 2]}


# Entries that are not rational numbers or integers, and strings where an
# array or object belongs (which would otherwise be read character by
# character).
MALFORMED = {
    "input-is-a-string": (["analyze"], "multidegrees"),
    "integer-is-infinite": (["tensor"], dict(CAMERAS_2, beta=[2, float("inf")])),
    "camera-entry-division-by-zero": (["tensor"], camera_entry("1/0")),
    "camera-entry-not-a-number": (["oracle-epsilon", "--trials", "1"], camera_entry("x")),
    "camera-entry-is-blank": (["tensor"], camera_entry(" ")),
    "camera-entry-past-the-digit-limit": (["tensor"], camera_entry("7" * 4301)),
    "space-entry-division-by-zero": (
        ["residual"],
        dict(CAMERAS_2, spaces=[[["1/0", "0", "0"], ["0", "1", "0"]], SPACES[1]]),
    ),
    "space-form-is-a-string": (
        ["residual"], dict(CAMERAS_2, spaces=[["100", ["0", "1", "0"]], SPACES[1]])
    ),
    "coordinate-entry-not-a-number": (
        ["contract"], {"tensor": TENSOR, "coordinates": [["x", "0", "1"], [1, 1, 0]]}
    ),
    "coordinates-are-strings": (
        ["contract"], {"tensor": TENSOR, "coordinates": ["001", "110"]}
    ),
    "tensor-value-division-by-zero": (
        ["contract"],
        {
            "tensor": {"beta": [2, 2], "entries": [{"index": [1, 1], "value": "1/0"}]},
            "coordinates": [[0, 0, 1], [1, 1, 0]],
        },
    ),
    "candidate-entry-division-by-zero": (
        ["sz-test", "--trials", "1"],
        dict(CAMERAS_3, beta=[2, 1, 1], candidate=[[1, 2, 3], ["1/0", 1, 1], [7, 8, 9]]),
    ),
    "beta-is-a-string": (["chow-degree"], dict(MULTIVIEW_3, beta="211")),
    "subset-is-a-string": (["slice"], dict(MULTIVIEW_3, beta=[2, 1, 1], subset="1")),
    "gamma-is-a-string": (
        ["oracle-multidegree", "--trials", "1"], dict(CAMERAS_3, gamma="111")
    ),
    "n-is-a-string": (
        ["betas", "--criterion", "hypersurface"],
        {"n": "22", "r": 3, "rank_function": pm.RankFunction(2, (0, 2, 2, 3)).to_json()},
    ),
    "support-is-a-string": (["projections"], {"n": [2, 2], "support": ["01", "10"]}),
    "rank-function-subset-is-a-string": (
        ["validate-rank"],
        {
            "n": [2],
            "r": 2,
            "rank_function": {
                "k": 1,
                "values": [{"subset": "", "delta": 0}, {"subset": [1], "delta": 2}],
            },
        },
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_field_exits_2(name, tmp_path, capsys):
    argv, obj = MALFORMED[name]
    code, out, err = run_main([*argv, "--input", write(tmp_path, obj)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["status"] == "precondition-failed"


RANK_FUNCTION_1 = {"k": 1, "values": [{"subset": [], "delta": 0}, {"subset": [1], "delta": 2}]}

# A float or a boolean where an integer belongs is refused, not truncated
# (2.9 used to read as 2 and true as 1); a boolean where a rational belongs
# is refused too.
NOT_INTEGERS = {
    "delta-is-a-float": (
        ["support"],
        {
            "n": [2],
            "r": 2,
            "rank_function": {
                "k": 1,
                "values": [{"subset": [], "delta": 0}, {"subset": [1], "delta": 2.9}],
            },
        },
    ),
    "k-is-a-float": (
        ["validate-rank"], {"n": [2], "r": 2, "rank_function": dict(RANK_FUNCTION_1, k=1.5)}
    ),
    "r-is-a-float": (
        ["betas", "--criterion", "hypersurface"],
        {"n": [2, 2], "r": 3.0, "rank_function": pm.RankFunction(2, (0, 2, 2, 3)).to_json()},
    ),
    "n-entry-is-a-boolean": (
        ["validate-rank"], {"n": [True], "r": 1, "rank_function": RANK_FUNCTION_1}
    ),
    "beta-entry-is-a-boolean": (["analyze"], dict(MULTIVIEW_3, beta=[True, 2, 1])),
    "subset-entry-is-a-boolean": (["slice"], dict(MULTIVIEW_3, beta=[2, 1, 1], subset=[True])),
    "gamma-entry-is-a-float": (
        ["oracle-multidegree", "--trials", "1"], dict(CAMERAS_3, gamma=[1.0, 1, 1])
    ),
    "tensor-index-is-a-float": (
        ["contract"],
        {
            "tensor": {"beta": [2, 2], "entries": [{"index": [1.0, 1], "value": 3}]},
            "coordinates": [[0, 0, 1], [1, 1, 0]],
        },
    ),
    "camera-entry-is-a-boolean": (["tensor"], camera_entry(True)),
    "tensor-value-is-a-boolean": (
        ["contract"],
        {
            "tensor": {"beta": [2, 2], "entries": [{"index": [1, 1], "value": True}]},
            "coordinates": [[0, 0, 1], [1, 1, 0]],
        },
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_INTEGERS))
def test_float_or_boolean_where_an_integer_belongs_exits_2(name, tmp_path, capsys):
    argv, obj = NOT_INTEGERS[name]
    code, out, err = run_main([*argv, "--input", write(tmp_path, obj)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["status"] == "precondition-failed"


def test_float_camera_entry_reads_as_its_decimal_text(tmp_path, capsys):
    outputs = []
    for entry in (0.1, "1/10"):
        path = write(tmp_path, camera_entry(entry))
        outputs.append(run_main(["tensor", "--input", path], capsys))
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


def test_number_readers():
    assert integer(7) == 7 and integer("-12") == -12
    for value in (2.9, 2.0, True, None, [1]):
        with pytest.raises(TypeError):
            integer(value)
    with pytest.raises(ValueError):
        integer("2.5")
    assert exact(0.1) == Fraction(1, 10)
    assert exact("-2/3") == Fraction(-2, 3) and exact(5) == 5
    with pytest.raises(TypeError):
        exact(False)
    with pytest.raises(ValueError):
        exact(float("inf"))


NINES = "9" * 4300  # the most digits Python converts to or from a string by default
HUGE_CYCLE = {
    "n": [2, 2],
    "r": 2,
    "coefficients": [{"gamma": [2, 0], "a": NINES}, {"gamma": [0, 2], "a": NINES}],
    "tag": "cycle",
}
ROW = "1" + "0" * 2200

# Each output number needs more digits than the limit: a summed coefficient
# (chow-degree, slice), a determinant of huge entries (tensor), a
# contraction (contract) and a sum of dimensions written as a JSON number
# (projections); the betas input holds an integer literal past the limit.
HUGE = {
    "chow-degree": json.dumps({"multidegrees": [HUGE_CYCLE, HUGE_CYCLE], "beta": [1, 2]}),
    "slice": json.dumps(
        {"multidegrees": [HUGE_CYCLE, HUGE_CYCLE], "beta": [2, 1], "subset": [1]}
    ),
    "tensor": json.dumps(
        {
            "cameras": [
                [[ROW, 0, 0, 0], [0, ROW, 0, 0], [0, 0, 1, 0]],
                CAMERAS_2["cameras"][1],
            ],
            "beta": [2, 2],
        }
    ),
    "contract": json.dumps(
        {
            "tensor": {"beta": [2, 2], "entries": [{"index": [1, 1], "value": NINES}]},
            "coordinates": [[NINES, 0, 0], [1, 0, 0]],
        }
    ),
    "projections": f'{{"n": [{NINES}, {NINES}], "support": [[0, 0]]}}',
    "betas": '{"n": [2, 2], "r": 9' + NINES + "}",
}


@pytest.mark.parametrize("sub", sorted(HUGE))
def test_number_past_the_digit_limit_exits_2(sub, tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "input.json"
    path.write_text(HUGE[sub])
    argv = [sub, "--criterion", "hypersurface"] if sub == "betas" else [sub]
    code, out, err = run_main([*argv, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["status"] == "precondition-failed"
    assert sys.get_int_max_str_digits() == limit


class TestWorkDoneOnce:
    def test_analyze_all_beta_validates_once(self, tmp_path, capsys, monkeypatch):
        """The multiview k=6 multidegree is checked by the exchange axiom:
        no rank function is recovered from its support or validated."""
        path = write(tmp_path, {"multidegree": multiview_multidegree(6).to_json()})
        calls = {"validate": 0, "projections": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            pm, "validate_rank_function", counted("validate", pm.validate_rank_function)
        )
        projections = counted("projections", pm.projections_from_support)
        monkeypatch.setattr(pm, "projections_from_support", projections)
        monkeypatch.setattr(mdg, "projections_from_support", projections)
        code, out, _ = run_main(["analyze", "--all-beta", "--input", path], capsys)
        assert code == 0
        assert len(json.loads(out)["results"]) == 90
        assert calls == {"validate": 0, "projections": 0}

    def test_analyze_all_beta_checks_each_profile_once(self, tmp_path, capsys, monkeypatch):
        """Building the multiview k=6 multidegree checks its 50 exponents in
        one bulk check and none one by one; the 90 profiles, in range by
        construction, are not checked again."""
        path = write(tmp_path, {"multidegree": multiview_multidegree(6).to_json()})
        single, bulk = [], []
        check_profile = pm.SpaceSignature.check_profile
        check_profiles = pm.SpaceSignature.check_profiles

        def counted(self, vec, total):
            single.append(vec)
            return check_profile(self, vec, total)

        def counted_bulk(self, vecs, total):
            vecs = list(vecs)
            bulk.append(len(vecs))
            return check_profiles(self, vecs, total)

        monkeypatch.setattr(pm.SpaceSignature, "check_profile", counted)
        monkeypatch.setattr(pm.SpaceSignature, "check_profiles", counted_bulk)
        code, out, _ = run_main(["analyze", "--all-beta", "--input", path], capsys)
        assert code == 0
        assert len(json.loads(out)["results"]) == 90
        assert (single, bulk) == ([], [50])

    def test_analyze_all_beta_subset_sums(self, tmp_path, capsys, monkeypatch):
        """On the multiview k=6 multidegree nothing sums subsets or builds a
        packed subset table: the exchange axiom checks its support, and the
        90 profiles need none."""
        path = write(tmp_path, {"multidegree": multiview_multidegree(6).to_json()})
        calls = []
        subset_sums = pm.subset_sums

        def counted(vec):
            calls.append(vec)
            return subset_sums(vec)

        monkeypatch.setattr(pm, "subset_sums", counted)
        count_table_builds(monkeypatch, calls)
        code, out, _ = run_main(["analyze", "--all-beta", "--input", path], capsys)
        assert code == 0
        assert len(json.loads(out)["results"]) == 90
        assert calls == []

    def spy_profile_checks(self, monkeypatch) -> tuple[list, list]:
        """The profiles checked one by one and the sizes of the bulk checks,
        filled in as requests run."""
        single, bulk = [], []
        check_profile = pm.SpaceSignature.check_profile
        check_profiles = pm.SpaceSignature.check_profiles

        def counted(self, vec, total):
            single.append(tuple(vec))
            return check_profile(self, vec, total)

        def counted_bulk(self, vecs, total):
            vecs = list(vecs)
            bulk.append(len(vecs))
            return check_profiles(self, vecs, total)

        monkeypatch.setattr(pm.SpaceSignature, "check_profile", counted)
        monkeypatch.setattr(pm.SpaceSignature, "check_profiles", counted_bulk)
        return single, bulk

    def test_chow_degree_checks_each_part_once(self, tmp_path, capsys, monkeypatch):
        """``chow-degree`` on two variety-tagged multiview k=5 parts checks the
        30 exponents of each part in one bulk check, and not those of their
        sum, which is built from checked exponents; beta is checked alone."""
        md = multiview_multidegree(5)
        beta = md.polymatroid().betas("hypersurface")[0]
        parts = [md.to_json(), dict(md.to_json(), coefficients=[
            {"gamma": list(gamma), "a": 3} for gamma in md.support()
        ])]
        path = write(tmp_path, {"multidegrees": parts, "beta": list(beta)})
        degree = [str(4 * a) for a in mdg.criterion_form(md, beta)]
        single, bulk = self.spy_profile_checks(monkeypatch)
        code, out, err = run_main(["chow-degree", "--input", path], capsys)
        assert code == 0, err
        assert json.loads(out)["chow_degree"] == degree
        assert (single, bulk) == ([beta], [30, 30])

    def test_slice_checks_its_input_once(self, tmp_path, capsys, monkeypatch):
        """``slice`` of the multiview k=5 multidegree checks its 30 exponents
        in one bulk check and beta alone; the slice, cut from checked
        exponents, is not checked again."""
        md = multiview_multidegree(5)
        beta = (1, 1, 1, 1, 0)
        path = write(tmp_path, dict(md.to_json(), beta=list(beta), subset=[1, 2]))
        single, bulk = self.spy_profile_checks(monkeypatch)
        code, out, err = run_main(["slice", "--input", path], capsys)
        assert code == 0, err
        assert json.loads(out)["coefficients"]
        assert (single, bulk) == ([beta], [30])


@pytest.mark.parametrize(
    "argv,extra",
    [
        (["support"], {}),
        (["betas", "--criterion", "determining"], {}),
        (["analyze"], {"beta": [2, 1, 1, 0, 0, 0]}),
        (["validate-rank"], {}),
    ],
    ids=["support", "betas", "analyze", "validate-rank"],
)
def test_one_polymatroid_per_request(argv, extra, tmp_path, capsys, monkeypatch):
    """A multiview k=6 multidegree is checked by the exchange axiom alone:
    no support candidate or profile is enumerated, and no rank function is
    recovered or validated, not even by ``validate-rank``, which reads its
    verdict off that check."""
    path = write(tmp_path, dict(multiview_multidegree(6).to_json(), **extra))
    calls = {"validate": 0, "projections": 0, "profiles": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        pm, "validate_rank_function", counted("validate", pm.validate_rank_function)
    )
    projections = counted("projections", pm.projections_from_support)
    monkeypatch.setattr(pm, "projections_from_support", projections)
    monkeypatch.setattr(mdg, "projections_from_support", projections)
    monkeypatch.setattr(pm, "profiles", counted("profiles", pm.profiles))
    code, _, err = run_main([*argv, "--input", path], capsys)
    assert code == 0, err
    assert calls == {"validate": 0, "projections": 0, "profiles": 0}


def test_validate_rank_reads_the_dense_gate(tmp_path, capsys, monkeypatch):
    """The consistency check of the multiview k=3 multidegree takes the
    dense round trip, which recovers its projection dimensions once and
    validates them once; ``validate-rank`` reads its verdict off that check
    and recovers and validates nothing more."""
    md = multiview_multidegree(3)
    calls = {"validate": 0, "projections": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        pm, "validate_rank_function", counted("validate", pm.validate_rank_function)
    )
    projections = counted("projections", pm.projections_from_support)
    monkeypatch.setattr(pm, "projections_from_support", projections)
    monkeypatch.setattr(mdg, "projections_from_support", projections)
    code, out, err = run_main(["validate-rank", "--input", write(tmp_path, md.to_json())], capsys)
    assert code == 0, err
    assert json.loads(out) == {"ok": True, "violations": []}
    assert calls == {"validate": 1, "projections": 1}


@pytest.mark.parametrize(
    "argv,source,expected",
    [
        (["support"], "rank-function", 1),
        (["betas", "--criterion", "hypersurface"], "rank-function", 1),
        (["support"], 3, 1),
        (["support"], 6, 0),
    ],
    ids=["support-rank-function", "betas-rank-function", "support-k3", "support-k6"],
)
def test_support_from_projections_is_the_rank_function_path(
    argv, source, expected, tmp_path, capsys, monkeypatch
):
    """``support_from_projections`` runs once wherever a request turns a
    rank function into a support: an explicit one, and the projections of a
    multiview k=3 multidegree, whose check takes the dense round trip; the
    k=6 one is checked by the exchange axiom and never calls it."""
    if source == "rank-function":
        md = multiview_multidegree(3)
        obj = {"n": list(md.sig.n), "r": md.sig.r, "rank_function": md.rank_function().to_json()}
    else:
        obj = multiview_multidegree(source).to_json()
    calls = []
    support_from_projections = pm.support_from_projections

    def counted(sig, delta):
        calls.append(delta)
        return support_from_projections(sig, delta)

    monkeypatch.setattr(pm, "support_from_projections", counted)
    code, _, err = run_main([*argv, "--input", write(tmp_path, obj)], capsys)
    assert code == 0, err
    assert len(calls) == expected


def test_multiview_k16_needs_no_rank_function(tmp_path, capsys, monkeypatch):
    """At k=16 ``support``, ``betas`` and ``analyze`` read a multiview
    multidegree without recovering its ``2**16`` projection dimensions, and
    agree with references built here: the exponents are ``2 - alpha`` for
    the ``alpha`` in ``{0, 1, 2}^k`` with ``|alpha| = 3``, no profile
    determines the variety for ``k >= 5``, and j is in the tight set of beta
    exactly when ``beta - e_j`` is such an ``alpha``."""
    k = 16
    alphas = set()
    for triple in itertools.combinations_with_replacement(range(k), 3):
        alpha = tuple(triple.count(i) for i in range(k))
        if max(alpha) <= 2:
            alphas.add(alpha)
    path = write(tmp_path, multiview_multidegree(k).to_json())
    beta = (2, 1, 1) + (0,) * (k - 3)
    beta_path = write(tmp_path, dict(multiview_multidegree(k).to_json(), beta=beta), "beta.json")

    def refused(*args):
        raise AssertionError("projections_from_support called")

    def refused_table(*args):
        raise AssertionError("packed subset table built")

    monkeypatch.setattr(pm, "projections_from_support", refused)
    monkeypatch.setattr(mdg, "projections_from_support", refused)
    monkeypatch.setattr(pm._Packed, "sums", refused_table)
    monkeypatch.setattr(pm._Packed, "pack", refused_table)
    code, out, err = run_main(["support", "--input", path], capsys)
    assert code == 0, err
    assert json.loads(out)["support"] == sorted([2 - a for a in alpha] for alpha in alphas)
    code, out, err = run_main(["betas", "--criterion", "determining", "--input", path], capsys)
    assert (code, json.loads(out)) == (0, {"betas": []}), err
    code, out, err = run_main(["analyze", "--input", beta_path], capsys)
    assert code == 0, err
    tight = [
        j + 1
        for j in range(k)
        if beta[j] and beta[:j] + (beta[j] - 1,) + beta[j + 1:] in alphas
    ]
    assert tight == [1, 2, 3]
    record = json.loads(out)
    assert record["tight_set"] == tight
    assert record["criterion_form"] == ["1" if j + 1 in tight else "0" for j in range(k)]
    assert (record["one_deficient"], record["circuit"]) == (True, False)


def test_camera_kernels_computed_once(tmp_path, capsys, monkeypatch):
    """oracle-epsilon calls no ``nullspace``: the camera centers, the forms
    through an image and the pulled-back system's solution are all minors."""
    config = random_cameras(4, 3)
    for i, cam in enumerate(config.cameras, 1):
        assert config.center(i) == linalg.nullspace(cam, 4)[0]
    path = write(tmp_path, dict(config.to_json(), beta=[1, 1, 1, 1]))
    calls = []
    nullspace = linalg.nullspace

    def counted(*args):
        calls.append(args)
        return nullspace(*args)

    monkeypatch.setattr(linalg, "nullspace", counted)
    argv = ["oracle-epsilon", "--trials", "4", "--seed", "1", "--format", "compact"]
    code, out, _ = run_main([*argv, "--input", path], capsys)
    assert (code, out) == (0, '{"counts":[1,1,1,1]}\n')
    assert calls == []


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path, capsys):
        obj = dict(random_cameras(3, 35).to_json(), gamma=[0, 1, 2])
        path = write(tmp_path, obj)
        argv = ["oracle-multidegree", "--trials", "5", "--seed", "11", "--input", path]
        _, first, _ = run_main(argv, capsys)
        _, second, _ = run_main(argv, capsys)
        assert first == second
        assert first.endswith("\n")

    def test_pretty_and_compact_agree_on_content(self, tmp_path, capsys):
        path = write(tmp_path, multiview_multidegree(2).to_json())
        _, compact, _ = run_main(["support", "--input", path], capsys)
        _, pretty, _ = run_main(["support", "--format", "pretty", "--input", path], capsys)
        assert json.loads(compact) == json.loads(pretty)
        assert compact != pretty


GOLDEN_CASES = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())["cases"]


def python_process(*args, stdin=b""):
    """``python -B *args`` in a process of its own, with the package's
    source first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-B", *args],
        input=stdin,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


@pytest.mark.parametrize(
    "name", ["analyze-all-beta-multiview-k3-compact", "error-unknown-subcommand"]
)
def test_the_cli_process(name):
    """``python -m multichow.cli`` in a process of its own, so through
    ``sys.exit`` and the real streams: the exit code and stdout bytes of a
    golden case, nothing on stderr on success, one JSON error on failure."""
    case = next(case for case in GOLDEN_CASES if case["name"] == name)
    proc = python_process("-m", "multichow.cli", *case["argv"], stdin=case["stdin"].encode())
    assert proc.returncode == case["exit"]
    if case["exit"] == 0:
        assert (proc.stdout, proc.stderr) == (case["stdout"].encode(), b"")
    else:
        assert proc.stdout == b""
        assert json.loads(proc.stderr)["error"]["status"] == case["status"]


def test_importing_the_cli_loads_no_dataclasses_typing_or_inspect():
    """The value classes stand on ``polymatroid.Value`` and namedtuples, so a
    process that imports the CLI, without ``site``, never loads these."""
    proc = python_process(
        "-S", "-c",
        "import multichow.cli, sys; "
        "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


def test_importing_the_cli_loads_no_argparse():
    """argv is read from the subcommand table."""
    proc = python_process("-c", "import multichow.cli, sys; print('argparse' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"


# ---------------------------------------------------------------------------
# argv


def test_read_argv_agrees_with_argparse():
    """On every argv of up to two vocabulary tokens and 10,000 seeded random
    ones of up to six, the reader gives what argparse, built from the same
    table, gives: the same values, a refusal, or help with exit 0."""
    reference = reference_argv_parser()
    seen = collections.Counter()
    for argv in argv_samples(10_000, 0):
        got = argv_outcome(cli.read_argv, argv)
        assert got == argv_outcome(reference.parse_args, argv), argv
        seen[got[0]] += 1
    assert min(seen["values"], seen["refused"], seen["help"]) > 400, seen


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"], ["--help"], ["--he", "x"], ["--x", "-h"], ["betas", "-h"],
        ["sz-test", "--trials", "3", "--help"],
    ],
)
def test_help_prints_the_usage_and_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exit_info.value.code, err) == (0, "")
    names = list(cli.SUBCOMMANDS) if argv[0] not in cli.SUBCOMMANDS else [argv[0]]
    assert out.startswith("usage: ")
    for name in names:
        assert f"multichow {name} " in out
        assert all(flag in out for flag, _ in (*cli.COMMON, *cli.SUBCOMMANDS[name].arguments))


def test_help_process_exits_0_with_empty_stderr():
    proc = python_process("-m", "multichow.cli", "sz-test", "--help")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"usage: multichow sz-test ")


@pytest.mark.parametrize(
    "argv",
    [["sz-test", "--trials"], ["sz-test", "--trials", "-5x"], ["betas"], ["support", "--x"],
     ["support", "--format=yaml"], ["analyze", "--all-beta=1"], ["support", "--", "-h"]],
)
def test_argv_refusals_exit_2_in_compact_form(argv, capsys):
    """A ``--format pretty`` after the fault leaves the error compact,
    whether or not the scan reached it before refusing."""
    code, out, err = run_main([*argv, "--format", "pretty"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["status"] == "precondition-failed"


EXPECTED_OPERATIONS = {
    "validate_rank_function",
    "support_from_projections",
    "projections_from_support",
    "Polymatroid.betas",
    "criterion_form",
    "criterion_forms",
    "chow_form_multidegree",
    "slice_multidegree",
    "multidegree_add",
    "multiview_multidegree",
    "chow_residual",
    "multifocal_tensor",
    "tensor_contract",
    "intersection_count_oracle",
    "epsilon_oracle",
    "sz_membership",
}

GOLDEN_CASES = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())["cases"]


def operation_owner(op):
    """The module or class whose attribute the handlers look ``op`` up in:
    the class named before the dot, or the module that defines the package
    name ``op``; and the attribute."""
    owner, _, attr = op.rpartition(".")
    if owner:
        return getattr(multichow, owner), attr
    return sys.modules[getattr(multichow, attr).__module__], attr


class TestCoverage:
    def test_every_operation_reachable_from_exactly_one_subcommand(self):
        assert all(callable(sub.handler) for sub in cli.SUBCOMMANDS.values())
        listed = [op for sub in cli.SUBCOMMANDS.values() for op in sub.operations]
        assert len(listed) == len(set(listed))
        assert set(listed) == EXPECTED_OPERATIONS
        assert all(callable(getattr(*operation_owner(op))) for op in listed)

    @pytest.mark.parametrize("name", sorted(cli.SUBCOMMANDS))
    def test_golden_cases_reach_every_listed_operation(self, name, monkeypatch, capsys):
        """Each operation a subcommand lists is called while its golden
        cases run, with their frozen exit codes."""
        reached = set()
        for op in cli.SUBCOMMANDS[name].operations:
            owner, attr = operation_owner(op)
            original = getattr(owner, attr)

            def spy(*args, _op=op, _original=original, **kwargs):
                reached.add(_op)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, spy)
        cases = [case for case in GOLDEN_CASES if case["argv"][:1] == [name]]
        assert cases
        for case in cases:
            monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
            assert cli.main(case["argv"]) == case["exit"], case["name"]
        capsys.readouterr()
        assert reached == set(cli.SUBCOMMANDS[name].operations)

    def test_exit_code_table(self):
        assert cli.EXIT_CODES == {
            "ok": 0,
            "precondition-failed": 2,
            "degenerate-input": 3,
            "inapplicable": 4,
        }
