"""CLI dispatch, canonical output, exit codes and operation coverage."""

import copy
import json
import sys

import pytest

from multichow import cli, linalg
from multichow import multidegree as mdg
from multichow import polymatroid as pm
from multichow.errors import DegenerateInputError
from multichow.multiview import multiview_multidegree, random_cameras

from helpers import frobenius_multidegree


def write(tmp_path, obj, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_validate_rank_reports_ok(self, tmp_path, capsys):
        path = write(tmp_path, multiview_multidegree(3).to_json())
        code, out, _ = run_main(["validate-rank", "--input", path], capsys)
        assert code == 0
        assert json.loads(out) == {"ok": True, "violations": []}

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

    def test_cycle_input_refused_by_analyze(self, tmp_path, capsys):
        obj = {
            "n": [2, 2],
            "r": 2,
            "coefficients": [{"gamma": [2, 0], "a": "1"}],
            "tag": "cycle",
            "beta": [2, 1],
        }
        code, _, err = run_main(["analyze", "--input", write(tmp_path, obj)], capsys)
        assert code == 2


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
        assert calls["validate"] <= 2
        assert calls["projections"] == 1


@pytest.mark.parametrize(
    "argv,extra",
    [
        (["support"], {}),
        (["betas", "--criterion", "determining"], {}),
        (["analyze"], {"beta": [2, 1, 1, 0, 0, 0]}),
    ],
    ids=["support", "betas", "analyze"],
)
def test_one_polymatroid_per_request(argv, extra, tmp_path, capsys, monkeypatch):
    """A multiview k=6 multidegree is validated once, by its round trip,
    and its support is enumerated once."""
    path = write(tmp_path, dict(multiview_multidegree(6).to_json(), **extra))
    calls = {"validate": 0, "profiles": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        pm, "validate_rank_function", counted("validate", pm.validate_rank_function)
    )
    monkeypatch.setattr(pm, "profiles", counted("profiles", pm.profiles))
    code, _, err = run_main([*argv, "--input", path], capsys)
    assert code == 0, err
    assert calls["validate"] == 1
    if argv == ["support"]:
        assert calls["profiles"] == 1


def test_camera_kernels_computed_once(tmp_path, capsys, monkeypatch):
    """oracle-epsilon needs one kernel per camera, at construction, and per
    trial one per slicing space plus one for the pulled-back system."""
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
    assert len(calls) <= config.k + 5 * 4


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


EXPECTED_OPERATIONS = {
    "validate_rank_function",
    "support_from_projections",
    "projections_from_support",
    "is_one_deficient",
    "minimal_tight_set",
    "is_circuit",
    "enumerate_beta",
    "criterion_form",
    "is_hypersurface",
    "determines_variety",
    "chow_form_multidegree",
    "slice_multidegree",
    "multidegree_add",
    "project_point",
    "multiview_multidegree",
    "chow_residual",
    "multifocal_tensor",
    "tensor_contract",
    "intersection_count_oracle",
    "epsilon_oracle",
    "sz_membership",
}


class TestCoverage:
    def test_every_operation_reachable_from_exactly_one_subcommand(self):
        assert all(callable(sub.handler) for sub in cli.SUBCOMMANDS.values())
        listed = [op for sub in cli.SUBCOMMANDS.values() for op in sub.operations]
        assert len(listed) == len(set(listed))
        assert set(listed) == EXPECTED_OPERATIONS

    def test_exit_code_table(self):
        assert cli.EXIT_CODES == {
            "ok": 0,
            "precondition-failed": 2,
            "degenerate-input": 3,
            "inapplicable": 4,
        }
