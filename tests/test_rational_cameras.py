"""CLI output on cameras with rational entries, frozen, and its invariance
under scaling one camera.

``golden/rational_cameras.json`` holds requests for ``tensor``,
``residual``, ``oracle-epsilon``, ``oracle-multidegree`` and ``sz-test`` on
the rational cameras of ``helpers.rational_cameras``, whose rows have
different denominators, with the exact stdout each gave.  The data was
written once and is not regenerated: a difference here is a behaviour
change.  A camera and any nonzero multiple of it are the same camera, so
the oracle counts and membership verdicts must not move when one camera is
multiplied by 3/7; scaling a camera row by row instead would move them.
"""

import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from multichow import cli

from helpers import rational_cameras

PINNED = json.loads((Path(__file__).parent / "golden" / "rational_cameras.json").read_text())
CASES = PINNED["cases"]
RANDOMIZED = [
    case for case in CASES if case["argv"][0] in ("oracle-epsilon", "oracle-multidegree", "sz-test")
]


def stdout_of(argv, obj, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("case", CASES, ids=lambda case: case["name"])
def test_rational_camera_output_is_frozen(case, monkeypatch, capsys):
    assert stdout_of(case["argv"], case["input"], monkeypatch, capsys) == case["stdout"]


def test_cases_cover_every_subcommand_and_k():
    assert {case["argv"][0] for case in CASES} == {
        "tensor", "residual", "oracle-epsilon", "oracle-multidegree", "sz-test"
    }
    assert {len(case["input"]["cameras"]) for case in CASES} == {2, 3, 4}
    assert {case["stdout"] for case in CASES if case["argv"][0] == "sz-test"} == {
        '{"member":true}\n', '{"member":false}\n'
    }


@pytest.mark.parametrize("k, seed", [(2, 40), (3, 41), (4, 42)])
def test_pinned_cameras_are_the_helper_cameras(k, seed):
    expected = rational_cameras(k, seed).to_json()["cameras"]
    pinned = {
        json.dumps(case["input"]["cameras"])
        for case in CASES
        if len(case["input"]["cameras"]) == k
    }
    assert pinned == {json.dumps(expected)}


@pytest.mark.parametrize("case", RANDOMIZED, ids=lambda case: case["name"])
def test_scaling_one_camera_keeps_counts_and_verdicts(case, monkeypatch, capsys):
    cameras = case["input"]["cameras"]
    for i in range(len(cameras)):
        scaled = [list(cam) for cam in cameras]
        scaled[i] = [[str(Fraction(x) * Fraction(3, 7)) for x in row] for row in cameras[i]]
        obj = dict(case["input"], cameras=scaled)
        assert stdout_of(case["argv"], obj, monkeypatch, capsys) == case["stdout"]
