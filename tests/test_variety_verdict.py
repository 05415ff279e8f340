"""``validate-rank`` on a variety reads its verdict off the consistency gate.

A support that passes ``Polymatroid.from_support`` is M-convex, and the
projection dimensions of an M-convex support are a polymatroid rank function
with ``delta(full) = r`` whose support is the same set again.  So
``validate-rank`` answers a variety with the empty report and builds no
table.  The computation it no longer runs is kept here as the reference:
on every support the gate passes, the projection dimensions validate and
give the support back."""

import json
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multichow import cli
from multichow import multidegree as mdg
from multichow import polymatroid as pm
from multichow.errors import PreconditionError
from multichow.multiview import multiview_multidegree
from multichow.polymatroid import Polymatroid, SpaceSignature

from helpers import frobenius_multidegree, product_of_curves_multidegree, random_polymatroid


def gated(sig: SpaceSignature, support) -> bool:
    """Whether ``support`` passes the consistency gate."""
    try:
        Polymatroid.from_support(sig, support)
    except PreconditionError:
        return False
    return True


def reference_holds(sig: SpaceSignature, support) -> bool:
    """The projection dimensions of ``support`` validate, with no
    violation, and their support is ``support`` again."""
    delta = pm.projections_from_support(sig, support)
    report = pm.validate_rank_function(sig, delta)
    return report.ok and pm.support_from_projections(sig, delta) == tuple(sorted(support))


def test_every_gated_subset_of_small_boxes_validates():
    """Every nonempty subset of each box with k <= 3, n_i <= 3 and at most
    10 exponents."""
    subsets = passed = 0
    for k in (1, 2, 3):
        for n in product(range(4), repeat=k):
            if list(n) != sorted(n):
                continue
            for codim in range(sum(n) + 1):
                box = pm.profiles(n, codim)
                if len(box) > 10:
                    continue
                sig = SpaceSignature(n, sum(n) - codim)
                for mask in range(1, 1 << len(box)):
                    support = [g for i, g in enumerate(box) if mask >> i & 1]
                    subsets += 1
                    if gated(sig, support):
                        passed += 1
                        assert reference_holds(sig, support), (n, codim, support)
    assert (subsets, passed) == (6166, 1408)


@pytest.mark.parametrize(
    "md",
    [
        *(multiview_multidegree(k) for k in range(2, 9)),
        frobenius_multidegree(),
        product_of_curves_multidegree(),
    ],
    ids=[*(f"multiview-{k}" for k in range(2, 9)), "frobenius", "product-of-curves"],
)
def test_variety_fixtures_validate(md, tmp_path, capsys):
    """The reference holds on each variety fixture, and ``validate-rank``
    prints the report the reference computes."""
    assert md.tag == mdg.VARIETY
    assert reference_holds(md.sig, md.support())
    path = tmp_path / "input.json"
    path.write_text(json.dumps(md.to_json()))
    assert cli.main(["validate-rank", "--input", str(path)]) == 0
    expected = pm.validate_rank_function(md.sig, md.rank_function()).to_json()
    assert json.loads(capsys.readouterr().out) == expected


@st.composite
def box_subsets(draw):
    """A signature with 2 <= k <= 4 and 1 <= n_i <= 2, and a nonempty subset
    of the exponents of one of its boxes other than the two single points."""
    n = tuple(draw(st.lists(st.integers(1, 2), min_size=2, max_size=4)))
    codim = draw(st.integers(1, sum(n) - 1))
    box = pm.profiles(n, codim)
    flags = draw(st.lists(st.booleans(), min_size=len(box), max_size=len(box)))
    support = [g for g, keep in zip(box, flags) if keep] or box[:1]
    return SpaceSignature(n, sum(n) - codim), support


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(box_subsets())
def test_gated_box_subsets_validate(case):
    sig, support = case
    if gated(sig, support):
        assert reference_holds(sig, support)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.integers(0, 2**32), st.integers(1, 6), st.data())
def test_gated_polymatroid_supports_validate(seed, k, data):
    """The support of a random polymatroid, less some drawn points."""
    sig, delta = random_polymatroid(random.Random(seed), k)
    support = list(pm.support_from_projections(sig, delta))
    dropped = data.draw(st.sets(st.integers(0, len(support) - 1), max_size=len(support) - 1))
    support = [g for i, g in enumerate(support) if i not in dropped]
    if gated(sig, support):
        assert reference_holds(sig, support)


def refuse(*args):
    raise AssertionError("validate-rank built a rank-function table")


@pytest.mark.parametrize(
    "obj",
    [
        multiview_multidegree(24).to_json(),
        {"n": [1] * 24, "r": 23, "coefficients": [{"gamma": [1] + [0] * 23, "a": 1}]},
    ],
    ids=["multiview-24", "one-point-24"],
)
def test_validate_rank_at_the_factor_cap(obj, tmp_path, capsys, monkeypatch):
    """At ``MAX_K = 24`` factors a variety's report comes from its gate: no
    projection dimensions are recovered and none are validated."""
    monkeypatch.setattr(pm, "projections_from_support", refuse)
    monkeypatch.setattr(mdg, "projections_from_support", refuse)
    monkeypatch.setattr(pm, "validate_rank_function", refuse)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code = cli.main(["validate-rank", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out) == {"ok": True, "violations": []}


def test_missing_subset_at_the_factor_cap_allocates_little():
    """An empty rank function at ``k = 24`` names its first missing subset
    without a ``2**24``-entry table."""
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError) as raised:
            pm.RankFunction.from_json({"k": 24, "values": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == "subset [] missing from rank function"
    assert peak < 20 * 2**20
