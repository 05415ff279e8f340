"""Reference mathematics for generating and checking benchmark requests.

Everything here is written from the definitions, independently of the
package under test, so that the benchmark can build inputs without calling
the program and can check its answers against a second implementation.
Subsets of ``{1..k}`` are bitmasks, as in the package's JSON rank functions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

FIELD_PRIME = 10007


# ---------------------------------------------------------------------------
# polymatroids and multidegrees


def subset_json(k: int, values) -> list:
    """Rank-function ``values`` list as the package's JSON entries."""
    return [
        {"subset": [i + 1 for i in range(k) if mask >> i & 1], "delta": values[mask]}
        for mask in range(1 << k)
    ]


def multiview_coeffs(k: int) -> dict:
    """Multidegree of the image of P^3 in (P^2)^k for generic cameras:
    t_1^2..t_k^2 times (sum over triples of 1/(t_a t_b t_c) plus sum over
    ordered pairs of 1/(t_a^2 t_b)), keeping nonnegative exponents."""
    coeffs: dict = {}
    for triple in combinations(range(k), 3):
        gamma = [2 - (i in triple) for i in range(k)]
        coeffs[tuple(gamma)] = coeffs.get(tuple(gamma), 0) + 1
    for a, b in permutations(range(k), 2):
        gamma = [2] * k
        gamma[a] -= 2
        gamma[b] -= 1
        if min(gamma) >= 0:
            coeffs[tuple(gamma)] = coeffs.get(tuple(gamma), 0) + 1
    return coeffs


def multiview_delta(k: int) -> list:
    """Projection dimensions of the multiview variety: 2 on singletons,
    3 on larger subsets."""
    return [min(bin(m).count("1") * 2, 3) for m in range(1 << k)]


def multidegree_json(n, r, coeffs: dict, tag: str = "variety") -> dict:
    return {
        "n": list(n),
        "r": r,
        "coefficients": [
            {"gamma": list(g), "a": str(coeffs[g])} for g in sorted(coeffs)
        ],
        "tag": tag,
    }


def _mask_sum(vec, mask: int) -> int:
    return sum(v for i, v in enumerate(vec) if mask >> i & 1)


def support(n, r: int, values) -> list:
    """Every gamma in the box with sum(n - gamma) = r whose drops stay below
    delta on every subset, in lexicographic order (the box-scan definition)."""
    k = len(n)
    out = []
    for gamma in product(*(range(x + 1) for x in n)):
        drops = [x - g for x, g in zip(n, gamma)]
        if sum(drops) == r and all(
            _mask_sum(drops, m) <= values[m] for m in range(1, (1 << k) - 1)
        ):
            out.append(list(gamma))
    return out


def projections(n, points) -> list:
    """delta(I) = max over support points of the drops summed over I."""
    k = len(n)
    drops = [[x - g for x, g in zip(n, gamma)] for gamma in points]
    return [0] + [max(_mask_sum(d, m) for d in drops) for m in range(1, 1 << k)]


def betas(n, r: int, values, criterion: str) -> list:
    """Every beta in the box with |beta| = r + 1 passing the criterion."""
    k = len(n)
    full = (1 << k) - 1
    out = []
    for beta in product(*(range(x + 1) for x in n)):
        if sum(beta) != r + 1:
            continue
        if criterion == "hypersurface":
            keep = all(_mask_sum(beta, m) <= values[m] + 1 for m in range(1, full + 1))
        else:
            keep = all(_mask_sum(beta, m) <= values[m] for m in range(1, full))
        if keep:
            out.append(list(beta))
    return out


def criterion_form(n, coeffs: dict, beta) -> list:
    """(a_{alpha+e_1}, ..., a_{alpha+e_k}) with alpha = n - beta."""
    alpha = [x - b for x, b in zip(n, beta)]
    return [
        coeffs.get(tuple(a + (i == j) for i, a in enumerate(alpha)), 0)
        for j in range(len(n))
    ]


def rank_mod_p(rows, ncols: int, p: int = FIELD_PRIME) -> int:
    """Rank of an integer matrix over GF(p)."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def random_polymatroid(rng, k: int, max_n: int = 3):
    """(n, r, values): ranks over GF(p) of unions of random vector batches,
    one batch of n_i vectors per factor, so the axioms hold by construction."""
    n = [rng.randint(0, max_n) for _ in range(k)]
    dim = rng.randint(1, max(1, sum(n)))
    batches = [[[rng.randint(0, 2) for _ in range(dim)] for _ in range(x)] for x in n]
    values = []
    for mask in range(1 << k):
        vectors = [v for i in range(k) if mask >> i & 1 for v in batches[i]]
        values.append(rank_mod_p(vectors, dim))
    return n, values[-1], values


# ---------------------------------------------------------------------------
# exact rational linear algebra and cameras


def det(rows) -> Fraction:
    rows = [[Fraction(x) for x in row] for row in rows]
    size = len(rows)
    result = Fraction(1)
    for col in range(size):
        pivot = next((i for i in range(col, size) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        for i in range(col + 1, size):
            f = rows[i][col] / rows[col][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return result


def rank(rows) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def cross(u, v) -> list:
    return [
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ]


def apply(camera, point) -> list:
    return [sum(Fraction(a) * Fraction(x) for a, x in zip(row, point)) for row in camera]


def pullback(camera, form) -> list:
    """The world-space form l^T P."""
    return [sum(Fraction(form[r]) * camera[r][c] for r in range(3)) for c in range(4)]


def center(camera) -> list:
    """Kernel of a rank-3 camera by signed 3x3 minors."""
    return [
        (-1) ** c * det([[row[j] for j in range(4) if j != c] for row in camera])
        for c in range(4)
    ]


def is_generic(cameras) -> bool:
    """Distinct centers and no three of them collinear."""
    centers = [center(cam) for cam in cameras]
    return all(rank(list(pair)) == 2 for pair in combinations(centers, 2)) and all(
        rank(list(triple)) == 3 for triple in combinations(centers, 3)
    )


def random_cameras(rng, k: int) -> list:
    """k generic integer cameras with entries in [-10, 10]."""
    while True:
        cams = []
        while len(cams) < k:
            cam = [[rng.randint(-10, 10) for _ in range(4)] for _ in range(3)]
            if rank(cam) == 3:
                cams.append(cam)
        if is_generic(cams):
            return cams


def random_rational(rng) -> Fraction:
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def random_forms(rng, count: int) -> list:
    """``count`` linearly independent forms on P^2."""
    while True:
        forms = [[random_rational(rng) for _ in range(3)] for _ in range(count)]
        if rank(forms) == count:
            return forms


def forms_through(point) -> list:
    """Two independent lines through a point of P^2."""
    lines = [cross(point, e) for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    for a, b in combinations(lines, 2):
        if rank([a, b]) == 2:
            return [a, b]
    raise ValueError("zero point")


def residual(cameras, spaces) -> Fraction:
    """det of all pulled-back cutting forms, factor order then form order."""
    return det([pullback(cam, f) for cam, factor in zip(cameras, spaces) for f in factor])


def slot_coordinates(spaces) -> list:
    """Point coordinates (cross product) on codimension-2 slots, the line
    itself on codimension-1 slots."""
    return [cross(*factor) if len(factor) == 2 else factor[0] for factor in spaces]


def tensor(cameras, beta) -> dict:
    """Multifocal tensor entries, index -> value, by the documented sign
    convention: for beta_i = 2 drop row a_i with sign (-1)^(a_i+1), for
    beta_i = 1 keep row a_i alone."""
    out = {}
    for index in product((1, 2, 3), repeat=len(beta)):
        rows, sign = [], 1
        for cam, b, a in zip(cameras, beta, index):
            if b == 2:
                rows += [cam[j] for j in range(3) if j != a - 1]
                sign *= (-1) ** (a + 1)
            else:
                rows.append(cam[a - 1])
        out[index] = sign * det(rows)
    return out


def contract(entries: dict, coords) -> Fraction:
    total = Fraction(0)
    for index, value in entries.items():
        term = Fraction(value)
        for vec, a in zip(coords, index):
            term *= Fraction(vec[a - 1])
        total += term
    return total


def tensor_json(beta, entries: dict) -> dict:
    return {
        "beta": list(beta),
        "entries": [
            {"index": list(i), "value": str(v)} for i, v in sorted(entries.items()) if v
        ],
    }


def strs(vec) -> list:
    return [str(Fraction(x)) for x in vec]
