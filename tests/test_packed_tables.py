"""The packed subset tables of ``polymatroid`` against the dense references.

``validate_rank_function``, ``support_from_projections`` and
``projections_from_support`` work on whole subset tables packed into one
int each; ``helpers`` keeps the subset-by-subset loops they replaced.  The
reports must be equal, violation order and witnesses included.
"""

import random

import pytest

from multichow import polymatroid as pm
from multichow.errors import PreconditionError
from multichow.multiview import multiview_multidegree
from multichow.polymatroid import (
    RankFunction,
    SpaceSignature,
    projections_from_support,
    support_from_projections,
    validate_rank_function,
)

from helpers import (
    dense_projections_from_support,
    dense_support_from_projections,
    dense_validate_rank_function,
    enumerate_rank_functions,
    multiview_delta,
    multiview_sig,
    random_polymatroid,
)


def outcome(fn, *args):
    """The result of ``fn``, or the message of the ``PreconditionError`` it raises."""
    try:
        return fn(*args)
    except PreconditionError as exc:
        return ("raised", str(exc))


def assert_same_validation(sig, delta):
    assert outcome(validate_rank_function, sig, delta) == outcome(
        dense_validate_rank_function, sig, delta
    )
    assert outcome(support_from_projections, sig, delta) == outcome(
        dense_support_from_projections, sig, delta
    )


@pytest.mark.parametrize(
    "n, functions",
    [((2, 2, 2), 115), ((2, 1, 1, 1), 134), ((1, 1, 1, 1, 1), 406), ((3, 3, 2), 304)],
    ids=["222", "2111", "11111", "332"],
)
def test_every_rank_function(n, functions):
    """Every bounded rank function on n: equal reports with the right rank
    and with ``r`` one too large, equal supports, and equal projections of
    the support."""
    rank_functions = list(enumerate_rank_functions(n))
    for delta in rank_functions:
        r = delta.values[-1]
        sig = SpaceSignature(n, r)
        assert_same_validation(sig, delta)
        if r < sum(n):
            assert_same_validation(SpaceSignature(n, r + 1), delta)
        support = support_from_projections(sig, delta)
        assert projections_from_support(sig, support) == dense_projections_from_support(
            sig, support
        )
    assert len(rank_functions) == functions


def perturbed(rng: random.Random, sig: SpaceSignature, delta: RankFunction) -> RankFunction:
    """``delta`` with a random kind of damage: entries moved by small or
    huge amounts either way, entries pushed past their bound, or every entry
    offset by ``10**12``."""
    values = list(delta.values)
    kind = rng.randrange(4)
    if kind == 3:
        return RankFunction(delta.k, tuple(v + 10**12 for v in values))
    bounds = pm.subset_sums(sig.n)
    for _ in range(rng.randint(1, 4)):
        mask = rng.randrange(len(values))
        if kind == 0:
            values[mask] += rng.choice([-2, -1, 1, 2])
        elif kind == 1:
            values[mask] = rng.choice([-1, 1]) * rng.randint(1, 10**12)
        else:
            values[mask] = bounds[mask] + rng.randint(1, 3)
    return RankFunction(delta.k, tuple(values))


def test_random_valid_and_perturbed_rank_functions():
    rng = random.Random(171)
    kinds = {"ok": 0, "failed": 0}
    for _ in range(300):
        sig, delta = random_polymatroid(rng, rng.randint(1, 7), max_n=rng.choice([2, 3, 9]))
        assert_same_validation(sig, delta)
        damaged = perturbed(rng, sig, delta)
        report = validate_rank_function(sig, damaged)
        assert report == dense_validate_rank_function(sig, damaged)
        assert_same_validation(sig, damaged)
        kinds["ok" if report.ok else "failed"] += 1
    assert kinds["failed"] > 250


def test_every_violation_at_once_keeps_its_order():
    """A random table violates nearly every local form; the listing,
    witnesses and order included, is the dense loop's."""
    rng = random.Random(5)
    for k in range(1, 9):
        sig = SpaceSignature(tuple(rng.randint(0, 3) for _ in range(k)), 0)
        delta = RankFunction(k, tuple(rng.randint(-5, 12) for _ in range(1 << k)))
        report = validate_rank_function(sig, delta)
        assert report == dense_validate_rank_function(sig, delta)
        assert len(report.violations) >= k


def test_k_mismatch_is_refused_alike():
    sig = SpaceSignature((2, 2, 2), 3)
    delta = multiview_delta(2)
    assert outcome(validate_rank_function, sig, delta) == outcome(
        dense_validate_rank_function, sig, delta
    )
    assert outcome(validate_rank_function, sig, delta)[0] == "raised"


def test_arbitrary_supports():
    """Random exponent sets, M-convex or not, give the dense projections."""
    rng = random.Random(29)
    for _ in range(400):
        k = rng.randint(1, 6)
        n = tuple(rng.randint(0, 4) for _ in range(k))
        sig = SpaceSignature(n, rng.randint(0, sum(n)))
        box = list(pm.profiles(n, sig.codim()))
        support = rng.sample(box, rng.randint(1, len(box)))
        assert projections_from_support(sig, support) == dense_projections_from_support(
            sig, support
        )


def test_wide_fields():
    """Factor dimensions up to ``10**20`` need fields wider than 64 bits."""
    rng = random.Random(41)
    for _ in range(40):
        k = rng.randint(1, 5)
        n = tuple(rng.choice([rng.randint(0, 3), rng.randint(1, 10**20)]) for _ in range(k))
        sig = SpaceSignature(n, rng.randint(0, min(4, sum(n))))
        box = list(pm.profiles(n, sig.codim()))
        support = rng.sample(box, rng.randint(1, len(box)))
        delta = projections_from_support(sig, support)
        assert delta == dense_projections_from_support(sig, support)
        assert_same_validation(sig, delta)
        assert_same_validation(sig, perturbed(rng, sig, delta))
    assert pm._Packed(1, 2 * 10**20).width > 64


@pytest.mark.parametrize("k", range(2, 13))
def test_multiview(k):
    sig, delta = multiview_sig(k), multiview_delta(k)
    assert validate_rank_function(sig, delta) == dense_validate_rank_function(sig, delta)
    support = multiview_multidegree(k).support()
    assert support_from_projections(sig, delta) == dense_support_from_projections(sig, delta)
    assert support_from_projections(sig, delta) == support
    assert projections_from_support(sig, support) == dense_projections_from_support(sig, support)
    assert projections_from_support(sig, support) == delta


def test_fieldwise_operations():
    """Field by field: subset sums, ``>=`` and the maximum, on values that
    reach the top of their fields."""
    rng = random.Random(3)
    for k in range(1, 7):
        top = rng.choice([1, 127, 128, 255, 2**64])
        table = pm._Packed(k, top)
        vec = [rng.randint(0, top // k) for _ in range(k)]
        assert table.values(table.sums(vec)) == pm.subset_sums(vec)
        a = [rng.randint(0, top) for _ in range(1 << k)]
        b = [rng.randint(0, top) for _ in range(1 << k)]
        packed_a, packed_b = table.pack(a), table.pack(b)
        assert table.values(packed_a) == a
        assert table.values(table.maximum(packed_a, packed_b)) == list(map(max, a, b))
        at_least = table.masks(table.at_least(packed_a, packed_b))
        assert at_least == [mask for mask in range(1 << k) if a[mask] >= b[mask]]
        for i in range(k):
            lacking = table.masks(table.lacking(i))
            assert lacking == [mask for mask in range(1 << k) if not mask >> i & 1]
