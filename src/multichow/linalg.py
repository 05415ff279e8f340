"""Exact linear algebra over the rationals.

Everything in this package works with tiny matrices (a handful of rows and
columns), so plain Gaussian elimination on ``fractions.Fraction`` entries is
exact and fast enough.  Matrices are sequences of rows; rows are sequences of
numbers coercible to ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction


def frac_rows(m) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def mat_vec(m, v) -> tuple[Fraction, ...]:
    return tuple(
        sum((Fraction(a) * Fraction(x) for a, x in zip(row, v)), Fraction(0))
        for row in m
    )


def rref(m) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    rows = frac_rows(m)
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows, pivots


def rank(m) -> int:
    if not m:
        return 0
    return len(rref(m)[1])


def nullspace(m, ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, one tuple per free column."""
    if ncols is None:
        if not m:
            raise ValueError("nullspace of an empty matrix needs ncols")
        ncols = len(m[0])
    if not m:
        return [
            tuple(Fraction(int(i == j)) for i in range(ncols)) for j in range(ncols)
        ]
    reduced, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -reduced[row_idx][fc]
        basis.append(tuple(vec))
    return basis


def det(m) -> Fraction:
    """Determinant of a square matrix by fraction-exact elimination."""
    rows = frac_rows(m)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        result *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                factor = rows[i][col] * inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return sign * result


def cross(u, v) -> tuple[Fraction, Fraction, Fraction]:
    a = [Fraction(x) for x in u]
    b = [Fraction(x) for x in v]
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def is_zero_vector(v) -> bool:
    return all(Fraction(x) == 0 for x in v)


def proportional(u, v) -> bool:
    """True iff u and v are nonzero and represent the same projective point."""
    if is_zero_vector(u) or is_zero_vector(v):
        return False
    return rank([list(u), list(v)]) == 1
