"""The one lattice-point enumerator, ``profiles``, and the support it
enumerates under a packed ceiling, against brute-force scans of the whole
box; and the packed tables it reads, at one-byte and wider fields."""

import random
from itertools import product

import pytest

from multichow import polymatroid as pm
from multichow.polymatroid import profiles, subset_sums, support_from_projections

from helpers import random_polymatroid


def box_scan(bounds, total):
    """Every point of the box with the given total, in lexicographic order."""
    return [x for x in product(*(range(b + 1) for b in bounds)) if sum(x) == total]


def test_profiles_match_the_box_scan():
    """Totals outside ``0..sum(bounds)`` give nothing; every result is in
    strictly increasing lexicographic order."""
    rng = random.Random(5)
    for _ in range(120):
        bounds = [rng.choice([0, 0, 1, 2, 3, 4]) for _ in range(rng.randint(0, 6))]
        for total in range(-2, sum(bounds) + 3):
            found = profiles(bounds, total)
            assert found == box_scan(bounds, total)
            assert all(a < b for a, b in zip(found, found[1:]))
    assert profiles((), 0) == [()] and profiles((), 1) == []


def under(ceiling, bounds, x) -> bool:
    """Whether every subset sum of ``bounds - x`` is at most ``ceiling``."""
    return all(map(int.__le__, subset_sums(b - v for b, v in zip(bounds, x)), ceiling))


def test_ceiling_matches_the_filtered_box_scan():
    """Any packed ceiling, not only a rank function, keeps exactly the
    points of the box under it."""
    rng = random.Random(9)
    for _ in range(150):
        bounds = [rng.choice([0, 1, 2, 3]) for _ in range(rng.randint(1, 6))]
        top = sum(bounds)
        table = pm._Packed(len(bounds), top)
        ceiling = [rng.randint(0, top) for _ in range(1 << len(bounds))]
        for total in range(-1, top + 2):
            found = profiles(bounds, total, (table, table.pack(ceiling)))
            assert found == [x for x in box_scan(bounds, total) if under(ceiling, bounds, x)]


@pytest.mark.parametrize("k", range(1, 9))
def test_support_matches_the_box_scan(k):
    """The support of random polymatroids, factors with ``n_i = 0``
    included, is the points of the box whose subset sums of ``n - gamma``
    are at most delta, in lexicographic order."""
    rng = random.Random(100 + k)
    zero_factors = 0
    for _ in range(12):
        sig, delta = random_polymatroid(rng, k, max_n=3 if k < 7 else 2)
        zero_factors += 0 in sig.n
        box = box_scan(sig.n, sig.codim())
        expected = tuple(gamma for gamma in box if under(delta.values, sig.n, gamma))
        support = support_from_projections(sig, delta)
        assert support == expected
        assert list(support) == sorted(set(support))
        assert support, "a valid rank function has a nonempty support"
    assert zero_factors


@pytest.mark.parametrize("top, size", [(0, 1), (1, 1), (127, 1), (128, 2), (300, 2), (2**16, 3)])
def test_packed_round_trip(top, size):
    rng = random.Random(top)
    for k in range(1, 7):
        table = pm._Packed(k, top)
        assert table.size == size
        values = [rng.randint(0, top) for _ in range(1 << k)]
        packed = table.pack(iter(values))
        assert packed == sum(v << table.width * mask for mask, v in enumerate(values))
        assert table.values(packed) == values
