"""Golden CLI corpus: frozen stdout bytes and exit codes.

``golden/cli.json`` holds one case per request: argv, the JSON text on
stdin, the exit code, and either the exact stdout (exit 0) or the error
status (any other exit).  It also pins the seeded cameras of
``random_cameras`` that the camera inputs were drawn from.  The data was
written once from the CLI's output and is not regenerated: a difference
here is a behaviour change.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from multichow import cli
from multichow.multiview import random_cameras

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: case["name"])
def test_cli_output_is_frozen(case, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["exit"]
    if code == 0:
        assert out == case["stdout"]
    else:
        assert out == ""
        assert json.loads(err)["error"]["status"] == case["status"]


def multidegree_shapes(case):
    """The case's input with its multidegree at top level, nested under
    ``"multidegree"`` and as a one-element ``"multidegrees"`` list, the
    other keys left at top level; ``None`` when it holds no multidegree."""
    try:
        obj = json.loads(case["stdin"])
    except ValueError:
        return None
    if isinstance(obj.get("multidegree"), dict):
        md = obj.pop("multidegree")
    elif "coefficients" in obj:
        md = {key: obj.pop(key) for key in ("n", "r", "coefficients", "tag") if key in obj}
    else:
        return None
    return [{**obj, **md}, {**obj, "multidegree": md}, {**obj, "multidegrees": [md]}]


MULTIDEGREE_CASES = [case for case in GOLDEN["cases"] if multidegree_shapes(case)]


@pytest.mark.parametrize("case", MULTIDEGREE_CASES, ids=lambda case: case["name"])
def test_every_multidegree_shape_gives_the_same_answer(case, monkeypatch, capsys):
    for obj in multidegree_shapes(case):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        code = cli.main(case["argv"])
        out, _ = capsys.readouterr()
        assert (code, out) == (case["exit"], case.get("stdout", ""))


def cycle_tagged(case):
    """The input of an exit-0 case with each multidegree in it tagged
    ``"cycle"``; ``None`` unless one of them was a variety."""
    if case["exit"] != 0:
        return None
    obj = json.loads(case["stdin"])
    parts = obj.get("multidegrees") or [obj.get("multidegree", obj)]
    parts = [md for md in parts if "coefficients" in md]
    if all(md.get("tag", "variety") == "cycle" for md in parts):
        return None
    for md in parts:
        md["tag"] = "cycle"
    return obj


#: The commands that read a multidegree's polymatroid, and so refuse a cycle.
GATED = {"support", "betas", "analyze"}
#: The commands that are linear in the cycle or read only its projections.
TAG_BLIND = {"validate-rank", "chow-degree", "slice"}
VARIETY_CASES = [case for case in GOLDEN["cases"] if cycle_tagged(case)]


@pytest.mark.parametrize("case", VARIETY_CASES, ids=lambda case: case["name"])
def test_the_tag_changes_only_the_gate(case, monkeypatch, capsys):
    """Tagging a variety ``"cycle"`` leaves the bytes of the tag-blind
    commands as they were, and makes the gated ones exit 2."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(cycle_tagged(case))))
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    command = case["argv"][0]
    assert command in GATED | TAG_BLIND
    if command in GATED:
        assert (code, out) == (2, "")
        assert "got a cycle-tagged input" in json.loads(err)["error"]["message"]
    else:
        assert (code, out, err) == (0, case["stdout"], "")


@pytest.mark.parametrize(
    "entry", GOLDEN["random_cameras"], ids=lambda e: f"k{e['k']}-seed{e['seed']}"
)
def test_seeded_cameras_are_frozen(entry):
    assert random_cameras(entry["k"], entry["seed"]).to_json() == entry["json"]
