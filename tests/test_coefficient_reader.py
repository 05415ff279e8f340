"""The one-pass coefficient reader of ``Multidegree.from_json`` and the bulk
profile check against the entry-by-entry reference
(``helpers.reference_multidegree_from_json``): every accepted list gives
the same output and every refused one the same exit status and the same
bytes on standard error, through the CLI."""

import json

import pytest

from multichow import SpaceSignature, cli
from multichow import multidegree as mdg
from multichow.errors import PreconditionError
from multichow.multiview import multiview_multidegree

from helpers import reference_multidegree_from_json


def _set(index, key, value):
    def change(entries):
        entries[index][key] = value

    return change


def _drop(index, key):
    def change(entries):
        del entries[index][key]

    return change


def _both(*changes):
    def change(entries):
        for c in changes:
            c(entries)

    return change


def _replace(index, value):
    def change(entries):
        entries[index] = value

    return change


# The multiview k=3 coefficient list: n = (2, 2, 2), r = 3, seven exponents
# of total 3 in lexicographic order, each "a" the string "1".  Each case
# changes it and gives the exit status of both readers, variety-tagged and
# cycle-tagged.
CASES = {
    "plain": (lambda entries: None, 0, 0),
    "string-exponent": (_set(2, "gamma", ["1", 0, 2]), 0, 0),
    "string-coefficient": (_set(1, "a", "2"), 0, 0),
    "int-coefficient": (_set(1, "a", 2), 0, 0),
    "padded-string-coefficient": (_set(1, "a", " 3 "), 0, 0),
    "float-exponent": (_set(2, "gamma", [1.0, 0, 2]), 2, 2),
    "float-coefficient": (_set(3, "a", 1.0), 2, 2),
    "bool-exponent": (_set(2, "gamma", [True, 0, 2]), 2, 2),
    "bool-coefficient": (_set(3, "a", True), 2, 2),
    "null-exponent": (_set(2, "gamma", [None, 0, 2]), 2, 2),
    "null-gamma": (_set(2, "gamma", None), 2, 2),
    "null-coefficient": (_set(3, "a", None), 2, 2),
    "null-entry": (_replace(3, None), 2, 2),
    "array-entry": (_replace(3, [[1, 1, 1], "1"]), 2, 2),
    "string-gamma": (_set(2, "gamma", "102"), 2, 2),
    "word-coefficient": (_set(4, "a", "x"), 2, 2),
    "repeated-gamma": (_set(4, "gamma", [0, 1, 2]), 2, 2),
    "missing-gamma": (_drop(2, "gamma"), 2, 2),
    "missing-a": (_drop(5, "a"), 2, 2),
    "nested-array": (_set(2, "gamma", [[1], 0, 2]), 2, 2),
    "zero-coefficient": (_set(3, "a", "0"), 2, 2),
    "negative-coefficient": (_set(3, "a", -4), 2, 2),
    "out-of-range": (_set(3, "gamma", [3, 0, 0]), 2, 2),
    "wrong-length": (_set(3, "gamma", [1, 1, 1, 0]), 2, 2),
    "wrong-sum": (_set(3, "gamma", [1, 1, 0]), 2, 2),
    "zero-before-bad-gamma": (_both(_set(1, "a", 0), _set(4, "gamma", [3, 0, 0])), 2, 2),
    "bad-gamma-before-zero": (_both(_set(1, "gamma", [3, 0, 0]), _set(4, "a", 0)), 2, 2),
    # The zero cycle has a zero criterion form.
    "empty": (lambda entries: entries.clear(), 2, 4),
}


@pytest.mark.parametrize(
    "tag,argv,extra",
    [("variety", ["support"], {}), ("cycle", ["chow-degree"], {"beta": [1, 2, 1]})],
    ids=["variety", "cycle"],
)
@pytest.mark.parametrize("case", sorted(CASES))
def test_reader_matches_the_entry_reader(case, tag, argv, extra, tmp_path, capsys, monkeypatch):
    change, *statuses = CASES[case]
    obj = dict(multiview_multidegree(3).to_json(), tag=tag, **extra)
    change(obj["coefficients"])
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    runs = []
    for reader in (None, reference_multidegree_from_json):
        if reader is not None:
            monkeypatch.setattr(mdg.Multidegree, "from_json", staticmethod(reader))
        code = cli.main([*argv, "--input", str(path)])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == statuses[tag == "cycle"], err
    assert (out == "") == (code != 0) and (err == "") == (code == 0)


def test_check_profiles_matches_check_profile():
    """The bulk check returns what checking each profile returns, and when
    one fails raises what the first failing one raises."""
    sig = SpaceSignature((2, 1, 3), 3)
    good = [(2, 1, 0), (0, 0, 3), (1, 1, 1)]
    assert sig.check_profiles(good, 3) == good
    assert sig.check_profiles([[2, 1.0, 0], (True, 0, 2)], 3) == [(2, 1, 0), (1, 0, 2)]
    assert sig.check_profiles([], 3) == []
    for bad in ([(2, 1, 0), (3, 0, 0)], [(1, 1), (3, 0, 0)], [(1, 1, 0)], [(1, 1, "1")]):
        with pytest.raises(PreconditionError) as bulk:
            sig.check_profiles(bad, 3)
        for vec in bad:
            try:
                sig.check_profile(vec, 3)
            except PreconditionError as single:
                assert str(bulk.value) == str(single)
                break
        else:
            pytest.fail(f"{bad} passed check_profile")
