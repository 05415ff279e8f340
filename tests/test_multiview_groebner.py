"""The multiview multidegree against independent algebra.

For seeded cameras A_1, ..., A_k, integer ones and the rational ones of
``helpers.rational_cameras``, the multiview ideal is generated by
the maximal minors of the 3m x (4 + m) matrices whose block row i is
``[A_i | x_i e_i]``, one matrix for every subset of m cameras, 2 <= m <=
min(k, 4) (Aholt, Sturmfels and Thomas, *A Hilbert scheme in computer
vision*).  The trifocal minors alone are not enough: their ideal has extra
components.  sympy computes a grevlex Groebner basis, whose initial ideal
must be squarefree.  A squarefree monomial ideal is the intersection of the
primes generated by its minimal vertex covers, and its top-dimensional
primes are the covers of least size (Miller and Sturmfels, *Combinatorial
Commutative Algebra*, ch. 8); each contributes t^gamma, gamma_i being the
number of its variables in factor i.  That sum is the multidegree, and it
must equal :func:`multiview_multidegree`.
"""

from itertools import combinations

import pytest

from multichow.multiview import multiview_multidegree, random_cameras

from helpers import rational_cameras

sympy = pytest.importorskip("sympy")


def multiview_minors(config):
    """The maximal minors for every camera subset, and the 3k variables in
    factor order."""
    k = config.k
    xs = [sympy.symbols(f"x{i}_0:3") for i in range(k)]
    cameras = [
        [[sympy.Rational(f.numerator, f.denominator) for f in row] for row in cam]
        for cam in config.cameras
    ]
    minors = []
    for m in range(2, min(k, 4) + 1):
        for subset in combinations(range(k), m):
            matrix = sympy.Matrix([
                cameras[i][r] + [xs[i][r] if j == i else 0 for j in subset]
                for i in subset
                for r in range(3)
            ])
            for rows in combinations(range(3 * m), 4 + m):
                minor = matrix.extract(list(rows), list(range(4 + m))).det(method="domain-ge")
                if minor != 0:
                    minors.append(minor)
    return minors, [x for factor in xs for x in factor]


def least_vertex_covers(edges, n: int):
    """The vertex covers of least size of a hypergraph on ``range(n)``."""
    for size in range(n + 1):
        covers = [set(c) for c in combinations(range(n), size) if all(e & set(c) for e in edges)]
        if covers:
            return covers


def multidegree_from_the_initial_ideal(config) -> dict:
    """The multidegree of the multiview variety of ``config``, read off the
    initial ideal of its Groebner basis: one ``t^gamma`` per vertex cover of
    least size, ``gamma_i`` counting the cover's variables in factor i."""
    k = config.k
    minors, variables = multiview_minors(config)
    basis = sympy.groebner(minors, *variables, order="grevlex")
    leads = [max(p.monoms(), key=sympy.polys.orderings.grevlex) for p in basis.polys]
    assert all(e <= 1 for lead in leads for e in lead), "initial ideal is not squarefree"
    covers = least_vertex_covers([{v for v, e in enumerate(lead) if e} for lead in leads], 3 * k)
    assert len(covers[0]) == 2 * k - 3
    multidegree = {}
    for cover in covers:
        gamma = tuple(sum(v // 3 == i for v in cover) for i in range(k))
        multidegree[gamma] = multidegree.get(gamma, 0) + 1
    return multidegree


@pytest.mark.parametrize(
    "cameras, k, seed",
    [
        (random_cameras, 2, 0),
        (random_cameras, 2, 7),
        (random_cameras, 3, 0),
        (random_cameras, 3, 7),
        (rational_cameras, 2, 3),
        (rational_cameras, 3, 3),
    ],
)
def test_multidegree_from_the_initial_ideal(cameras, k, seed):
    multidegree = multidegree_from_the_initial_ideal(cameras(k, seed))
    assert multidegree == dict(multiview_multidegree(k).coeffs)
