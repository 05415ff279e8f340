"""The Lorentzian condition on variety multidegrees, checked in the tests only.

The volume polynomial ``sum a_gamma w^(n - gamma) / (n - gamma)!`` of an
irreducible subvariety of a product of projective spaces is Lorentzian
(Brändén and Huh, "Lorentzian polynomials", Ann. of Math. 2020, section 4).
So for each ``alpha`` with ``|alpha| = r - 2`` the ``k x k`` matrix of its
second derivatives at ``w^alpha``, ``H_ij = a_(n - alpha - e_i - e_j)`` (0 off
the support; the factorials cancel), has at most one positive eigenvalue.
Every variety fixture passes; the package does not check this yet, and the
test records one multidegree it accepts that no irreducible surface has.
"""

import json
from pathlib import Path

import pytest
import sympy

from multichow import Multidegree, multiview_multidegree
from multichow.errors import MultichowError
from multichow.polymatroid import SpaceSignature, profiles

from helpers import frobenius_multidegree, product_of_curves_multidegree

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"


def positive_eigenvalues(matrix) -> int:
    """The number of positive eigenvalues of a symmetric integer matrix,
    counted exactly: the sign changes of its characteristic polynomial's
    coefficients, which Descartes' rule makes exact when every root is real,
    as it is for a real symmetric matrix."""
    signs = [c > 0 for c in sympy.Matrix(matrix).charpoly().all_coeffs() if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def hessians(md: Multidegree):
    """``(alpha, H)`` for each ``alpha`` in the box with ``|alpha| = r - 2``;
    an ``alpha`` outside the box gives the zero matrix."""
    n, k = md.sig.n, md.sig.k
    for alpha in profiles(n, md.sig.r - 2) if md.sig.r >= 2 else ():
        drop = [x - a for x, a in zip(n, alpha)]
        yield alpha, [
            [
                md.coefficient([d - (l == i) - (l == j) for l, d in enumerate(drop)])
                for j in range(k)
            ]
            for i in range(k)
        ]


def golden_varieties() -> list[Multidegree]:
    """The distinct variety-tagged multidegrees that ``Multidegree.from_json``
    builds from the inputs of the CLI golden corpus, alone or under
    ``"multidegree"`` or ``"multidegrees"``."""
    found = {}
    for case in json.loads(GOLDEN.read_text())["cases"]:
        try:
            request = json.loads(case["stdin"])
        except ValueError:
            continue
        if not isinstance(request, dict):
            continue
        for obj in [request, request.get("multidegree"), *(request.get("multidegrees") or ())]:
            if not isinstance(obj, dict) or "coefficients" not in obj:
                continue
            try:
                md = Multidegree.from_json(obj)
            except MultichowError:
                continue
            if md.tag == "variety":
                found[json.dumps(md.to_json(), sort_keys=True)] = md
    return list(found.values())


FIXTURES = {
    **{f"multiview-{k}": (lambda k=k: multiview_multidegree(k)) for k in range(2, 8)},
    **{f"frobenius-{p}": (lambda p=p: frobenius_multidegree(p)) for p in (2, 3, 5)},
    "product-of-curves": product_of_curves_multidegree,
}


def test_positive_eigenvalues_counts_exactly():
    assert positive_eigenvalues([[0, 0], [0, 0]]) == 0
    assert positive_eigenvalues([[1, 0], [0, 0]]) == 1
    assert positive_eigenvalues([[0, 1], [1, 0]]) == 1
    assert positive_eigenvalues([[2, 0, 0], [0, 3, 0], [0, 0, -1]]) == 2
    assert positive_eigenvalues([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) == 1


@pytest.mark.parametrize("name", list(FIXTURES))
def test_variety_fixtures_have_lorentzian_hessians(name):
    md = FIXTURES[name]()
    found = list(hessians(md))
    assert found
    for alpha, matrix in found:
        assert positive_eigenvalues(matrix) <= 1, (alpha, matrix)


def test_golden_varieties_have_lorentzian_hessians():
    varieties = golden_varieties()
    assert len(varieties) == 4
    for md in varieties:
        for alpha, matrix in hessians(md):
            assert positive_eigenvalues(matrix) <= 1, (md.to_json(), alpha, matrix)


def test_an_accepted_multidegree_fails_the_check():
    """No irreducible surface has this multidegree (1^2 < 5 * 1 breaks the
    Khovanskii-Teissier inequality), yet ``Multidegree`` accepts it as a
    variety: the gap a Lorentzian gate would close."""
    md = Multidegree(SpaceSignature((2, 2), 2), {(2, 0): 5, (1, 1): 1, (0, 2): 1})
    assert md.polymatroid()
    ((alpha, matrix),) = hessians(md)
    assert alpha == (0, 0) and matrix == [[1, 1], [1, 5]]
    assert positive_eigenvalues(matrix) == 2
