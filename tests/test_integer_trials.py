"""The oracle trials on integers against their ``Fraction`` references.

Each trial draws its forms and world points as integer vectors and solves the
pulled-back system with closed-form kernels.  The references in ``helpers``
draw ``Fraction`` vectors, test independence by rank and solve by
``nullspace``.  A form is defined only up to scale, so forms are compared by
``proportional``; equal generator states after a draw show that both made
the same draws and the same resample decisions.
"""

import json
import random
from fractions import Fraction

import pytest

from multichow import cli, linalg
from multichow.errors import MultichowError, PreconditionError
from multichow.multiview import (
    CameraConfiguration,
    LinearSpaceTuple,
    _fiber_size,
    _image,
    _randint,
    epsilon_oracle,
    forms_through,
    has_world_point_preimage,
    intersection_count_oracle,
    random_cameras,
    random_form,
    random_independent_forms,
    sz_membership,
    tensor_contract,
)
from multichow.polymatroid import profiles

from helpers import (
    IDENTITY_CAMERA,
    fraction_pullback_rows,
    rational_cameras,
    reference_epsilon_oracle,
    reference_fiber_size,
    reference_forms_through,
    reference_has_world_point_preimage,
    reference_intersection_count_oracle,
    reference_random_form,
    reference_random_independent_forms,
    reference_tensor,
    translated_camera,
)


class NarrowRandom(random.Random):
    """Narrows ``getrandbits``, through which ``randint`` draws too: a 5-bit
    draw, for [-10, 10], is 9..11, which is -1..1, and a 4-bit draw, for
    [1, 10], is 0, which is 1.  So zero vectors and dependent forms come up
    often enough to exercise every resample decision."""

    def getrandbits(self, k):
        if k == 5:
            return 9 + self.randrange(3)
        if k == 4:
            return 0
        return super().getrandbits(k)


class PermutedBits(random.Random):
    """Overrides ``getrandbits`` with a permutation of each k-bit draw."""

    def getrandbits(self, k):
        return (5 * super().getrandbits(k) + 3) % (1 << k)


@pytest.mark.parametrize("rng_class", [random.Random, PermutedBits, NarrowRandom])
def test_randint_draws_as_the_stdlib(rng_class):
    ranges = [(-10, 10), (1, 10), (0, 0), (7, 7), (-1, 1), (0, 1), (-3, 12), (0, 15), (0, 16)]
    ranges.append((-(10**20), 10**20))
    for seed in range(1000):
        ours, theirs = rng_class(seed), rng_class(seed)
        for low, high in ranges:
            assert _randint(ours, low, high) == theirs.randint(low, high)
            assert ours.getstate() == theirs.getstate()


def test_trials_never_call_randint(monkeypatch):
    def refused(self, a, b):
        raise AssertionError("randint in package code")

    config = random_cameras(3, 9)
    monkeypatch.setattr(random.Random, "randint", refused)
    assert random_cameras(3, 9) == config
    assert intersection_count_oracle(config, (1, 1, 1), 3, 0) == [1] * 3
    assert epsilon_oracle(config, (2, 1, 1), 3, 0) == [1] * 3
    assert not sz_membership(config, (2, 1, 1), [(1, 2, 3), (-4, 5, 1), (2, 2, 7)], 3, 0)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of the package
    error it raises."""
    try:
        return fn(*args)
    except MultichowError as exc:
        return type(exc), str(exc)


def same_up_to_scale(forms, references):
    return len(forms) == len(references) and all(
        all(type(x) is int for x in form) and linalg.proportional(form, ref)
        for form, ref in zip(forms, references)
    )


@pytest.mark.parametrize("rng_class", [random.Random, NarrowRandom])
def test_random_forms_match_reference(rng_class):
    for seed in range(200):
        ours, theirs = rng_class(seed), rng_class(seed)
        form = outcome(random_form, ours)
        reference = outcome(reference_random_form, theirs)
        if type(reference) is tuple and type(reference[0]) is type:
            assert form == reference
        else:
            assert same_up_to_scale([form], [reference])
        assert ours.getstate() == theirs.getstate()
        for count in (0, 1, 2):
            forms = outcome(random_independent_forms, ours, count)
            references = outcome(reference_random_independent_forms, theirs, count)
            if references and type(references[0]) is type:
                assert forms == references
            else:
                assert same_up_to_scale(forms, references)
            assert ours.getstate() == theirs.getstate()


def test_more_than_two_independent_forms_refused():
    # Independence is tested by one cross product, which decides only up to
    # two forms; a codimension in P^2 is at most 2.
    for sample in (lambda rng: random_independent_forms(rng, 3), lambda rng: forms_through(rng, (1, 2, 3), 3)):
        with pytest.raises(PreconditionError, match="at most 2"):
            sample(random.Random(0))


@pytest.mark.parametrize("rng_class", [random.Random, NarrowRandom])
def test_forms_through_match_reference(rng_class):
    rng = random.Random("forms-through-points")
    points = [(0, 0, 0), (0, 0, 5), (0, -2, 0), (3, 0, 0), ("1/2", "-3/4", 0)]
    points += [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(60)]
    points += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)) for _ in range(20)]
    for index, point in enumerate(points):
        for count in (1, 2):
            ours, theirs = rng_class(index), rng_class(index)
            forms = outcome(forms_through, ours, point, count)
            references = outcome(reference_forms_through, theirs, [Fraction(x) for x in point], count)
            if references and type(references[0]) is type:
                assert forms == references
            else:
                assert same_up_to_scale(forms, references)
                assert not any(sum(a * Fraction(x) for a, x in zip(f, point)) for f in forms)
            assert ours.getstate() == theirs.getstate()


def rows_through(rng, point, count):
    """``count`` random integer rows of length 4 vanishing at ``point``."""
    pivot = next(i for i, x in enumerate(point) if x)
    rows = []
    for _ in range(count):
        row = [rng.randint(-4, 4) * point[pivot] for _ in range(4)]
        row[pivot] = 0
        row[pivot] = -sum(a * x for a, x in zip(row, point)) // point[pivot]
        assert not sum(a * x for a, x in zip(row, point))
        rows.append(row)
    return rows


def test_fiber_size_matches_reference():
    """Random integer systems with 0-6 rows: full rank, rank-deficient,
    through a random point and through a camera center."""
    config = random_cameras(3, 40)
    rng = random.Random("fiber-size")
    seen = set()
    for _ in range(1500):
        count = rng.randint(0, 6)
        kind = rng.choice(("random", "dependent", "point", "center", "camera"))
        if kind == "point":
            point = [rng.randint(-5, 5) for _ in range(4)]
            if not any(point):
                continue
            rows = rows_through(rng, point, count)
        elif kind == "center":
            rows = rows_through(rng, config._int_centers[rng.randrange(3)], count)
        elif kind == "camera":
            cam = config._rows[rng.randrange(3)]
            rows = [
                [sum(rng.randint(-2, 2) * x for x in column) for column in zip(*cam)]
                for _ in range(count)
            ]
        else:
            rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(count)]
            if kind == "dependent" and count > 1:
                a, b = rng.sample(range(count), 2)
                rows[b] = [rng.randint(-2, 2) * x for x in rows[a]]
        size = _fiber_size(config, rows)
        assert size == reference_fiber_size(config, rows), rows
        seen.add((kind, size))
    assert {size for _, size in seen} == {None, 0, 1}
    assert ("center", 0) in seen and ("point", 1) in seen


def axis_camera(t):
    """A camera centered at (t, 0, 0, 1), on the x-axis line."""
    return ((1, 0, 0, -t), (0, 1, 0, 0), (0, 0, 1, 0))


def small_cameras(seed, k):
    """Seeded rank-3 cameras with entries in {-1, 0, 1}."""
    rng = random.Random(f"small:{seed}")
    cams = []
    while len(cams) < k:
        cam = [[rng.randint(-1, 1) for _ in range(4)] for _ in range(3)]
        if linalg.rank(cam) == 3:
            cams.append(cam)
    return CameraConfiguration(tuple(cams))


def degenerate_configurations():
    cam = random_cameras(1, 17).cameras[0]
    mixed = tuple(
        tuple(sum(c * x for c, x in zip(coeffs, column)) for column in zip(*cam))
        for coeffs in ((1, 1, 0), (0, 2, 1), (1, 0, -1))
    )
    return {
        "collinear": CameraConfiguration(tuple(axis_camera(t) for t in (0, 1, 2))),
        "collinear-4": CameraConfiguration(
            tuple(axis_camera(t) for t in (0, 1, 3)) + (translated_camera((0, 1, 0)),)
        ),
        "repeated": CameraConfiguration((cam, cam, random_cameras(3, 18).cameras[2])),
        "shared-center": CameraConfiguration((cam, mixed, random_cameras(3, 19).cameras[0])),
        "one-center": CameraConfiguration((IDENTITY_CAMERA, IDENTITY_CAMERA[::-1])),
        "small": small_cameras(0, 3),
        "generic": random_cameras(3, 41),
        "rational": rational_cameras(4, 42),
    }


@pytest.mark.parametrize("name", sorted(degenerate_configurations()))
def test_oracles_match_reference(name):
    config = degenerate_configurations()[name]
    n = (2,) * config.k
    for seed, gamma in enumerate(profiles(n, 2 * config.k - 3)):
        assert outcome(intersection_count_oracle, config, gamma, 4, seed) == outcome(
            reference_intersection_count_oracle, config, gamma, 4, seed
        )
    for seed, beta in enumerate(profiles(n, 4)):
        assert outcome(epsilon_oracle, config, beta, 4, seed) == outcome(
            reference_epsilon_oracle, config, beta, 4, seed
        )


@pytest.mark.parametrize("name", sorted(degenerate_configurations()))
def test_world_point_preimage_matches_reference(name):
    config = degenerate_configurations()[name]
    rng = random.Random(f"preimage:{name}")
    centers = config._int_centers
    candidates = []
    for _ in range(15):
        world = [rng.randint(-5, 5) for _ in range(4)]
        candidates.append([[sum(a * x for a, x in zip(row, world)) for row in cam] for cam in config._rows])
        candidates.append([[rng.randint(-3, 3) for _ in range(3)] for _ in range(config.k)])
    for i in range(config.k):
        candidates.append(
            [[sum(a * x for a, x in zip(row, centers[(i + 1) % config.k])) for row in c] for c in config._rows]
        )
    # Rational coordinates, each point over its own denominator.
    candidates += [[[f"{a}/{i + 2}" for a in x] for i, x in enumerate(c)] for c in candidates[:6]]
    for candidate in candidates:
        assert has_world_point_preimage(config, candidate) == reference_has_world_point_preimage(
            config, candidate
        ), candidate


def refuse_elimination(monkeypatch):
    """Make the elimination behind ``rref``, ``rank``, ``nullspace`` and
    ``det`` fail, as no package code may reach it."""

    def refused(*args):
        raise AssertionError("elimination in package code")

    monkeypatch.setattr(linalg, "_eliminate", refused)


def test_oracle_trials_run_no_elimination(monkeypatch, tmp_path, capsys):
    configs = {k: random_cameras(k, 50 + k) for k in (2, 3, 4, 5)}
    degenerate = degenerate_configurations()
    candidate = [(1, 2, 3), (-4, 5, 1), (2, 2, 7)]
    preimages = [
        reference_has_world_point_preimage(configs[3], x)
        for x in (candidate, [_image(cam, (1, -2, 3, 5)) for cam in configs[3]._rows])
    ]
    rational = rational_cameras(3, 7)
    spaces = LinearSpaceTuple((((1, 2, 3), ("1/2", 0, 1)), ((0, 1, -1),), ((4, 0, 1),)))
    residual = linalg.det(fraction_pullback_rows(rational, spaces.forms))
    centers = [linalg.nullspace(cam, 4)[0] for cam in rational.cameras]
    expected_tensor = reference_tensor(rational, (2, 1, 1))
    coords = [linalg.cross(*spaces.forms[0]), *spaces.forms[1], *spaces.forms[2]]
    assert residual != 0
    refuse_elimination(monkeypatch)
    assert [rational.center(i) for i in (1, 2, 3)] == centers
    assert LinearSpaceTuple(spaces.forms) == spaces
    with pytest.raises(PreconditionError, match="linearly dependent"):
        LinearSpaceTuple((((1, 2, 3), (2, 4, 6)),))
    for k, config in configs.items():
        assert config.is_generic()
        gamma = (0, 1) if k == 2 else (1, 1, 1) + (2,) * (k - 3)
        assert intersection_count_oracle(config, gamma, 5, k) == [1] * 5
        beta = (2, 2) if k == 2 else (2, 1, 1) + (0,) * (k - 3)
        assert epsilon_oracle(config, beta, 5, k) == [1] * 5
    assert not any(degenerate[name].is_generic() for name in ("collinear", "repeated", "one-center"))
    assert not sz_membership(configs[3], (2, 1, 1), candidate, 10, 0)
    assert preimages == [
        has_world_point_preimage(configs[3], x)
        for x in (candidate, [_image(cam, (1, -2, 3, 5)) for cam in configs[3]._rows])
    ] == [False, True]
    path = tmp_path / "in.json"
    for argv, obj, answer in (
        (["oracle-epsilon", "--trials", "4"], dict(configs[4].to_json(), beta=[1, 1, 1, 1]), {"counts": [1] * 4}),
        (
            ["oracle-multidegree", "--trials", "4"],
            dict(configs[3].to_json(), gamma=[1, 1, 1]),
            {"counts": [1] * 4, "expected": 1, "majority": 1},
        ),
        (
            ["sz-test", "--trials", "4"],
            dict(configs[3].to_json(), beta=[2, 1, 1], candidate=candidate),
            {"member": False},
        ),
        (["tensor"], dict(rational.to_json(), beta=[2, 1, 1]), expected_tensor.to_json()),
        (
            ["residual"],
            dict(rational.to_json(), spaces=[[[str(x) for x in f] for f in factor] for factor in spaces.forms]),
            {"residual": str(residual)},
        ),
        (
            ["contract"],
            {"tensor": expected_tensor.to_json(), "coordinates": [[str(x) for x in c] for c in coords]},
            {"value": str(residual)},
        ),
    ):
        path.write_text(json.dumps(obj))
        assert cli.main([*argv, "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == answer
