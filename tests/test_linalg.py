"""The exact linear algebra kernels against sympy as an independent reference.

``det``, ``rank``, ``rref`` and ``nullspace`` share one fraction-free
elimination; each is compared with sympy's ``Matrix`` method of the same name
on seeded random matrices with integer, rational and string entries, forced
dependent rows, zero rows and zero columns, and again on the integer rows
that ``errors.integer_rows`` makes of the same matrices.
"""

import random
from fractions import Fraction

import pytest

from multichow import linalg
from multichow.errors import integer_rows

sympy = pytest.importorskip("sympy")


def random_matrix(rng: random.Random) -> list[list]:
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    kind = rng.choice(("int", "rational", "string"))

    def entry():
        if rng.random() < 0.2:
            return 0
        if kind == "int":
            return rng.randint(-9, 9)
        num, den = rng.randint(-9, 9), rng.randint(1, 8)
        return Fraction(num, den) if kind == "rational" else f"{num}/{den}"

    m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    shape = rng.random()
    if shape < 0.3 and nrows > 1:
        # A rational combination of other rows.
        target = rng.randrange(nrows)
        a, b = (rng.choice([i for i in range(nrows) if i != target]) for _ in range(2))
        s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
        m[target] = [s * Fraction(x) + t * Fraction(y) for x, y in zip(m[a], m[b])]
    elif shape < 0.4:
        m[rng.randrange(nrows)] = [0] * ncols
    elif shape < 0.5:
        col = rng.randrange(ncols)
        for row in m:
            row[col] = 0
    return m


CASES = [random_matrix(random.Random(f"linalg:{seed}")) for seed in range(150)]


def to_sympy(m):
    return sympy.Matrix(
        [[sympy.Rational(f.numerator, f.denominator) for f in row] for row in linalg.frac_rows(m)]
    )


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@pytest.mark.parametrize("m", CASES, ids=[f"case{i}" for i in range(len(CASES))])
def test_kernels_match_sympy(m):
    ref = to_sympy(m)
    ncols = len(m[0])
    rank = linalg.rank(m)
    assert rank == ref.rank()

    reduced, pivots = linalg.rref(m)
    ref_reduced, ref_pivots = ref.rref()
    assert pivots == list(ref_pivots)
    assert reduced == [[from_sympy(x) for x in ref_reduced.row(i)] for i in range(len(m))]

    # Both use one basis vector per free column, with 1 there and 0 at the
    # other free columns.
    kernel = linalg.nullspace(m)
    assert kernel == [tuple(from_sympy(x) for x in v) for v in ref.nullspace()]
    assert len(kernel) == ncols - rank
    for v in kernel:
        assert linalg.is_zero_vector(linalg.mat_vec(m, v))

    if len(m) == ncols:
        assert linalg.det(m) == from_sympy(ref.det())
        assert (linalg.det(m) != 0) == (rank == ncols)

    # The integer-scaling helper: one scale for the whole matrix, and the
    # kernels take its integer rows as they are.
    rows, scale = integer_rows(m, ncols)
    assert all(type(x) is int for row in rows for x in row)
    assert [[Fraction(x, scale) for x in row] for row in rows] == linalg.frac_rows(m)
    assert linalg.rank(rows) == ref.rank()
    assert linalg.nullspace(rows) == kernel
    if len(m) == ncols:
        assert linalg.det(rows) == from_sympy(ref.det()) * scale**ncols


def test_cases_cover_every_entry_kind_and_degeneracy():
    kinds = {type(x) for m in CASES for row in m for x in row if x != 0}
    assert kinds == {int, Fraction, str}
    assert any(len(m) == len(m[0]) and linalg.rank(m) < len(m) for m in CASES)
    assert any(all(x == 0 for x in row) for m in CASES for row in m)


def test_empty_matrix():
    assert linalg.det([]) == 1
    assert linalg.rank([]) == 0
    assert linalg.rref([]) == ([], [])
    assert linalg.nullspace([], 3) == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]
    with pytest.raises(ValueError):
        linalg.nullspace([])


@pytest.mark.parametrize("m", [[[1, 2, 3], [4, 5, 6]], [[1], [2]], [[1, 2], [3]], [[]]])
def test_det_of_non_square_matrix_rejected(m):
    with pytest.raises(ValueError, match="non-square"):
        linalg.det(m)

