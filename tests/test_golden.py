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


@pytest.mark.parametrize(
    "entry", GOLDEN["random_cameras"], ids=lambda e: f"k{e['k']}-seed{e['seed']}"
)
def test_seeded_cameras_are_frozen(entry):
    assert random_cameras(entry["k"], entry["seed"]).to_json() == entry["json"]
