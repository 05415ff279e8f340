"""Exact linear algebra over the rationals, kept as references.

Everything in this package works with tiny matrices (a handful of rows and
columns).  One fraction-free Gauss-Jordan elimination (Bareiss) on integer
rows serves ``rref``, ``rank``, ``nullspace`` and ``det``: every division in
it is exact, so no ``Fraction`` arithmetic runs inside the loop.  Matrices
are sequences of rows, read by ``errors.integer_rows``, the package's one
reader of number arrays into integer rows times the lcm of their
denominators.  No package code imports this module: :mod:`multiview` has a
closed-form kernel for each of its jobs, the tests compare those kernels
against these references, and ``perfbench/tracer.py`` wraps their names.
``proportional`` compares the 2x2 minors of the two integer-scaled vectors,
and ``cross`` keeps integer vectors integral.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import _EXACT, exact, integer_rows


def frac_rows(m) -> list[list[Fraction]]:
    return [[Fraction(exact(x)) for x in row] for row in m]


def mat_vec(m, v) -> tuple[Fraction, ...]:
    return tuple(
        sum((exact(a) * exact(x) for a, x in zip(row, v)), Fraction(0))
        for row in m
    )


def _eliminate(m):
    """Fraction-free Gauss-Jordan elimination of m.

    The rows are scaled to integers by ``errors.integer_rows``, which keeps
    rank and kernel and multiplies the determinant by ``scale ** len(m)``.
    Pivot p turns every other row into ``(p * row - row[col] * pivot_row) //
    last``, last being the previous pivot, and every division is exact.  At
    the end each pivot equals ``last`` and ``rows / last`` is the reduced row
    echelon form.  Returns (rows, pivot columns, last, permutation sign,
    scale).
    """
    rows, scale = integer_rows(m, len(m[0]) if m else 0)
    pivots: list[int] = []
    last, sign = 1, 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[col]
        for i, row in enumerate(rows):
            if i != r:
                f = row[col]
                rows[i] = [(p * a - f * b) // last for a, b in zip(row, prow)]
        pivots.append(col)
        last = p
    return rows, pivots, last, sign, scale


def rref(m) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    rows, pivots, last, _, _ = _eliminate(m)
    return [[Fraction(x, last) for x in row] for row in rows], pivots


def rank(m) -> int:
    return len(_eliminate(m)[1])


def nullspace(m, ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, one tuple per free column."""
    if ncols is None:
        if not m:
            raise ValueError("nullspace of an empty matrix needs ncols")
        ncols = len(m[0])
    rows, pivots, last, _, _ = _eliminate(m)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = Fraction(-row[fc], last)
        basis.append(tuple(vec))
    return basis


def det(m) -> Fraction:
    """Determinant of a square matrix: sign * last pivot / scale^n."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, last, sign, scale = _eliminate(m)
    return Fraction(sign * last, scale**n) if len(pivots) == n else Fraction(0)


def cross(u, v) -> tuple:
    """u x v; ``int`` and ``Fraction`` entries are used as they are, so two
    integer vectors have an integer cross product."""
    a, b = ([x if type(x) in _EXACT else exact(x) for x in w] for w in (u, v))
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def is_zero_vector(v) -> bool:
    return all(exact(x) == 0 for x in v)


def proportional(u, v) -> bool:
    """True iff u and v are nonzero and represent the same projective point."""
    (u, v), _ = integer_rows([u, v], len(u))
    return any(u) and any(v) and all(
        u[i] * v[j] == u[j] * v[i] for i, j in combinations(range(len(u)), 2)
    )
