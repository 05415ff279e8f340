"""The closed-form geometry kernels against the ``linalg`` elimination.

Camera centers, the residual and the independence of cutting forms are
computed from minors in :mod:`multichow.multiview`; ``linalg``'s ``nullspace``,
``det`` and ``rank`` are their references here.  A source scan keeps every
module but ``linalg`` away from the elimination.
"""

import ast
import random
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from multichow import linalg
from multichow.errors import PreconditionError
from multichow.multiview import (
    CameraConfiguration,
    LinearSpaceTuple,
    _image,
    chow_residual,
    forms_through,
    random_cameras,
)

from helpers import fraction_pullback_rows, rational_cameras

SOURCE = Path(__file__).resolve().parents[1] / "src" / "multichow"
ELIMINATION = {"rref", "rank", "nullspace", "det", "_eliminate"}

# Every profile with a multifocal tensor: entries 1 or 2 summing to 4.
MULTIFOCAL = {
    2: [(2, 2)],
    3: sorted(set(permutations((2, 1, 1)))),
    4: [(1, 1, 1, 1)],
}


def camera_killing(center, rng):
    """A rational rank-3 camera whose kernel is spanned by ``center``: random
    rows with the component along ``center`` removed."""
    norm = sum(x * x for x in center)
    while True:
        rows = []
        for _ in range(3):
            row = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
            along = sum(a * c for a, c in zip(row, center)) / norm
            rows.append(tuple(a - along * c for a, c in zip(row, center)))
        if linalg.rank(rows) == 3:
            return tuple(rows)


@pytest.mark.parametrize("seed", range(4))
def test_centers_match_nullspace_on_rational_cameras(seed):
    config = rational_cameras(2 + seed, seed)
    for i, cam in enumerate(config.cameras, 1):
        assert config.center(i) == linalg.nullspace(cam, 4)[0]


@pytest.mark.parametrize(
    "center",
    [(0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (3, -2, 0, 0), (0, 5, 7, 0), (2, 0, -1, 4)],
)
def test_centers_match_nullspace_with_trailing_zeros(center):
    rng = random.Random(f"center:{center}")
    config = CameraConfiguration(tuple(camera_killing(center, rng) for _ in range(3)))
    for i, cam in enumerate(config.cameras, 1):
        expected = linalg.nullspace(cam, 4)[0]
        assert config.center(i) == expected
        assert linalg.proportional(expected, center)


@pytest.mark.parametrize("i", [0, -1, 4])
def test_center_refuses_an_index_outside_the_cameras(i):
    with pytest.raises(PreconditionError, match="out of range 1..3"):
        random_cameras(3, 0).center(i)


def random_spaces(rng, beta):
    """Independent cutting forms with rational coefficients, as many per
    factor as ``beta`` says."""
    while True:
        forms = tuple(
            tuple(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3)) for _ in range(b))
            for b in beta
        )
        if all(linalg.rank(factor) == len(factor) for factor in forms):
            return LinearSpaceTuple(forms)


def spaces_through_world_point(config, rng, beta):
    """Cutting forms through the images of one world point, so that the
    residual vanishes."""
    point = [rng.randint(-5, 5) for _ in range(3)] + [1]
    return LinearSpaceTuple(
        tuple(forms_through(rng, _image(cam, point), b) for cam, b in zip(config._rows, beta))
    )


@pytest.mark.parametrize("cameras", ["random", "rational"])
@pytest.mark.parametrize("k", sorted(MULTIFOCAL))
def test_residual_matches_det(k, cameras):
    rng = random.Random(f"residual:{k}:{cameras}")
    for seed in range(3):
        config = (random_cameras if cameras == "random" else rational_cameras)(k, seed)
        for beta in MULTIFOCAL[k]:
            on_locus = spaces_through_world_point(config, rng, beta)
            assert chow_residual(config, on_locus) == 0
            for spaces in (random_spaces(rng, beta), on_locus):
                rows = fraction_pullback_rows(config, spaces.forms)
                assert chow_residual(config, spaces) == linalg.det(rows)


FORMS = [
    (0, 0, 0),
    (1, 2, 3),
    (2, 4, 6),
    (Fraction(1, 2), 1, Fraction(3, 2)),
    (0, 1, 0),
    (Fraction(-1, 3), 0, 5),
    (Fraction(0), Fraction(0), Fraction(0)),
]


@pytest.mark.parametrize("count", [0, 1, 2])
def test_independence_matches_rank(count):
    for factor in product(FORMS, repeat=count):
        independent = not factor or linalg.rank(factor) == count
        try:
            spaces = LinearSpaceTuple((factor,))
        except PreconditionError as exc:
            assert not independent, (factor, exc)
        else:
            assert independent, factor
            assert spaces.beta == (count,)


def test_three_forms_refused():
    for factor in ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 2, 3)] * 3, [(1, 0, 0)] * 4):
        with pytest.raises(PreconditionError, match="at most 2"):
            LinearSpaceTuple((tuple(factor),))


def elimination_references(path):
    """``(line, name)`` for each name or attribute in the module at ``path``
    that is one of the elimination's entry points."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ELIMINATION:
            found.append((node.lineno, name))
    return found


def test_only_linalg_refers_to_the_elimination():
    modules = sorted(SOURCE.glob("*.py"))
    assert {path.name for path in modules} >= {"linalg.py", "multiview.py", "cli.py"}
    found = {
        path.name: refs
        for path in modules
        if path.name != "linalg.py" and (refs := elimination_references(path))
    }
    assert found == {}
    assert elimination_references(SOURCE / "linalg.py")
