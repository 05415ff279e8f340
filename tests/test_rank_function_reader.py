"""The one-pass reader of ``RankFunction.from_json`` against the
entry-by-entry reference (``helpers.reference_rank_function_from_json``):
every accepted list gives the same output and every refused one the same
exit status and the same bytes on standard error, through the CLI."""

import json
import random

import pytest

from multichow import cli
from multichow import polymatroid as pm

from helpers import multiview_delta, multiview_sig, reference_rank_function_from_json


def _set(index, key, value):
    def change(function):
        function["values"][index][key] = value

    return change


def _replace(index, value):
    def change(function):
        function["values"][index] = value

    return change


def _drop(index, key):
    def change(function):
        del function["values"][index][key]

    return change


def _shuffle(function):
    random.Random(7).shuffle(function["values"])


def _remove(index):
    def change(function):
        del function["values"][index]

    return change


def _append_copy(index):
    def change(function):
        function["values"].append(dict(function["values"][index]))

    return change


def _top(key, value):
    def change(function):
        function[key] = value

    return change


# The multiview k=3 rank function: n = (2, 2, 2), r = 3, the eight subsets
# in mask order, subset [1, 2] at index 3 and the full set, with delta 3,
# at index 7.  Each case changes it and gives the exit status of both
# readers.
CASES = {
    "plain": (lambda function: None, 0),
    "bool-in-subset": (_set(3, "subset", [True, 2]), 2),
    "float-in-subset": (_set(3, "subset", [1.0, 2]), 2),
    "nested-subset": (_set(3, "subset", [[1], 2]), 2),
    "string-in-subset": (_set(3, "subset", ["1", 2]), 0),
    "float-delta": (_set(7, "delta", 3.0), 2),
    "bool-delta": (_set(1, "delta", True), 2),
    "null-delta": (_set(1, "delta", None), 2),
    "string-delta": (_set(7, "delta", "3"), 0),
    "word-delta": (_set(7, "delta", "x"), 2),
    "permuted": (_shuffle, 0),
    "reversed-subset": (_set(3, "subset", [2, 1]), 0),
    "duplicate-subset": (_set(5, "subset", [1, 2]), 2),
    "missing-subset": (_remove(6), 2),
    "extra-entry": (_append_copy(2), 2),
    "out-of-range": (_set(4, "subset", [4]), 2),
    "zero-element": (_set(4, "subset", [0]), 2),
    "array-entry": (_replace(2, [[2], 2]), 2),
    "null-entry": (_replace(2, None), 2),
    "missing-subset-key": (_drop(2, "subset"), 2),
    "missing-delta-key": (_drop(5, "delta"), 2),
    "string-values": (_top("values", "x"), 2),
    "object-values": (_top("values", {"subset": [], "delta": 0}), 2),
    "k-zero": (_top("k", 0), 2),
    "k-too-large": (_top("k", pm.MAX_K + 1), 2),
    "k-too-small-for-values": (_top("k", 2), 2),
    "invalid-values": (_set(7, "delta", 4), 0),
}


@pytest.mark.parametrize("argv", [["validate-rank"], ["support"]], ids=["validate", "support"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_reader_matches_the_entry_reader(case, argv, tmp_path, capsys, monkeypatch):
    change, status = CASES[case]
    function = json.loads(json.dumps(multiview_delta(3).to_json()))
    change(function)
    sig = multiview_sig(3)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"n": list(sig.n), "r": sig.r, "rank_function": function}))
    runs = []
    for reader in (None, reference_rank_function_from_json):
        if reader is not None:
            monkeypatch.setattr(pm.RankFunction, "from_json", staticmethod(reader))
        code = cli.main([*argv, "--input", str(path)])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    # A rank function that breaks an axiom is read, and reported on by
    # validate-rank; support refuses it.
    expected = 2 if case == "invalid-values" and argv == ["support"] else status
    assert code == expected, err
    assert (out == "") == (code != 0) and (err == "") == (code == 0)


def test_to_json_reads_back_in_one_pass(monkeypatch):
    """``to_json`` writes the subsets in the order the one-pass reader
    takes, so its output never reaches the entry-by-entry loop."""
    delta = multiview_delta(4)
    obj = json.loads(json.dumps(delta.to_json()))
    monkeypatch.setattr(pm, "mask_of", None)
    assert pm.RankFunction.from_json(obj) == delta
    assert [entry["subset"] for entry in obj["values"]] == [
        list(pm.indices_of(mask)) for mask in range(16)
    ]
