"""Cameras, multifocal tensors, residuals and the randomized oracles."""

import random
import warnings
from fractions import Fraction
from math import lcm, prod
from itertools import combinations, permutations, product

import pytest

from multichow import (
    CameraConfiguration,
    LinearSpaceTuple,
    MultifocalTensor,
    chow_residual,
    epsilon_oracle,
    intersection_count_oracle,
    multifocal_tensor,
    multiview_multidegree,
    project_point,
    sz_membership,
    tensor_contract,
)
from multichow import linalg
from multichow import multidegree as multidegree_module
from multichow.errors import DegenerateInputError, PreconditionError
from multichow.multidegree import Multidegree
from multichow.polymatroid import profiles
from multichow.multiview import (
    _forms_spanned_by,
    _forms_vanishing_at,
    _pullback_rows,
    contraction_coordinates,
    forms_through,
    has_world_point_preimage,
    majority_count,
    random_cameras,
    random_independent_forms,
    trial_rng,
)

from helpers import (
    IDENTITY_CAMERA,
    fraction_pullback_rows,
    rational_cameras,
    reference_tensor,
    translated_camera,
)


#: The pairs (u, v) a codimension-1 line of ``sz_membership`` is drawn from.
NONZERO_PAIRS = [pair for pair in product(range(-10, 11), repeat=2) if pair != (0, 0)]


class ScriptedBits:
    """A generator whose ``getrandbits`` gives the listed values in order."""

    def __init__(self, values):
        self.values = iter(values)

    def getrandbits(self, k):
        return next(self.values)


def pair_config():
    return CameraConfiguration((IDENTITY_CAMERA, translated_camera((1, 0, 0))))


def projected_tuple(config, world, rng, beta):
    """Spaces of codimension beta_i through the images of a world point."""
    images = [project_point(cam, world) for cam in config.cameras]
    return LinearSpaceTuple(
        tuple(forms_through(rng, img, b) for img, b in zip(images, beta))
    )


def random_world_point(config, rng):
    while True:
        q = tuple(Fraction(rng.randint(-10, 10)) for _ in range(4))
        if not linalg.is_zero_vector(q) and all(
            not linalg.is_zero_vector(linalg.mat_vec(cam, q))
            for cam in config.cameras
        ):
            return q


def axis_camera(t):
    """A camera centered at (t, 0, 0, 1), on the x-axis line."""
    return ((1, 0, 0, -t), (0, 1, 0, 0), (0, 0, 1, 0))


def maximal_minors(rows):
    """Every maximal minor of a matrix with 4 columns, by Leibniz's formula."""
    n = len(rows)
    for cols in combinations(range(4), n):
        total = Fraction(0)
        for perm in permutations(range(n)):
            inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
            total += (-1) ** inversions * prod(Fraction(rows[i][cols[perm[i]]]) for i in range(n))
        yield total


def generic_by_minors(config):
    """Reference: every pair of centers and every triple is independent."""
    centers = [config.center(i) for i in range(1, config.k + 1)]
    return all(
        any(maximal_minors(s)) for size in (2, 3) for s in combinations(centers, size)
    )


class TestCameras:
    def test_rank_deficient_camera_rejected(self):
        rows = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0))
        with pytest.raises(PreconditionError):
            CameraConfiguration((rows,))

    def test_centers_from_minors_span_the_kernel(self):
        """A seeded 3x4 integer matrix, rank-deficient ones included, is a
        camera exactly when its kernel is a line, and then its integer
        center spans that line."""
        rng = random.Random("centers")
        rejected = 0
        for _ in range(300):
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
            if rng.random() < 0.2:
                rows[2] = [a - b for a, b in zip(rows[0], rows[1])]
            kernel = linalg.nullspace(rows, 4)
            if len(kernel) != 1:
                rejected += 1
                with pytest.raises(PreconditionError, match="rank 3"):
                    CameraConfiguration((rows,))
                continue
            center = CameraConfiguration((rows,))._int_centers[0]
            assert linalg.proportional(center, kernel[0])
        assert rejected > 0

    def test_center_of_identity_camera(self):
        config = CameraConfiguration((IDENTITY_CAMERA,))
        assert linalg.proportional(config.center(1), (0, 0, 0, 1))

    def test_duplicate_cameras_not_generic(self):
        config = CameraConfiguration((IDENTITY_CAMERA, IDENTITY_CAMERA))
        assert not config.is_generic()

    def test_seeded_configs_are_generic_and_reproducible(self):
        a = random_cameras(4, 5)
        b = random_cameras(4, 5)
        assert a == b
        assert a.is_generic()

    @pytest.mark.parametrize(
        "cameras, generic",
        [
            ([IDENTITY_CAMERA], True),
            ([IDENTITY_CAMERA, translated_camera((1, 0, 0))], True),
            ([IDENTITY_CAMERA, IDENTITY_CAMERA, translated_camera((1, 0, 0))], False),
            ([axis_camera(0), axis_camera(1), axis_camera(2)], False),
            ([axis_camera(0), axis_camera(1), translated_camera((0, 1, 0)), axis_camera(2)], False),
            ([axis_camera(0), axis_camera(1), translated_camera((0, 1, 0))], True),
        ],
        ids=["k1", "k2", "repeated-k3", "collinear-k3", "collinear-k4", "triangle-k3"],
    )
    def test_is_generic_on_fixed_configurations(self, cameras, generic):
        config = CameraConfiguration(tuple(cameras))
        assert config.is_generic() == generic == generic_by_minors(config)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_is_generic_matches_pairs_and_triples(self, k):
        rng = random.Random(f"generic:{k}")
        configs = [random_cameras(k, seed) for seed in range(3)]
        # Centers on a small grid repeat and line up often.
        configs += [
            CameraConfiguration(
                tuple(
                    translated_camera((rng.randint(0, 2), rng.randint(0, 1), 0))
                    for _ in range(k)
                )
            )
            for _ in range(30)
        ]
        verdicts = [config.is_generic() for config in configs]
        assert verdicts == [generic_by_minors(config) for config in configs]
        if k >= 3:
            assert True in verdicts and False in verdicts

    def test_json_round_trip(self):
        config = random_cameras(3, 1)
        assert CameraConfiguration.from_json(config.to_json()) == config


class TestProjectPoint:
    def test_identity_block(self):
        assert project_point(IDENTITY_CAMERA, (1, 2, 3, 1)) == (1, 2, 3)

    def test_center_is_undefined(self):
        with pytest.raises(DegenerateInputError):
            project_point(IDENTITY_CAMERA, (0, 0, 0, 1))

    def test_world_point_of_wrong_length_rejected(self):
        for point in ((1, 2, 3), (1, 2, 3, 4, 5)):
            with pytest.raises(PreconditionError, match="length 4"):
                project_point(IDENTITY_CAMERA, point)

    def test_translated_camera(self):
        assert project_point(translated_camera((1, 0, 0)), (0, 0, 0, 1)) == (1, 0, 0)


class TestMultiviewMultidegree:
    def test_k2(self):
        md = multiview_multidegree(2)
        assert dict(md.coeffs) == {(1, 0): 1, (0, 1): 1}

    def test_k3_seven_monomials(self):
        md = multiview_multidegree(3)
        expected = {(1, 1, 1)} | set(permutations((0, 1, 2)))
        assert set(md.support()) == expected
        assert all(a == 1 for a in md.coeffs.values())

    def test_k4_full_degree_five_box(self):
        md = multiview_multidegree(4)
        expected = {
            g for g in product(range(3), repeat=4) if sum(g) == 5
        }
        assert set(md.support()) == expected
        assert all(a == 1 for a in md.coeffs.values())

    def test_single_camera_rejected(self):
        with pytest.raises(PreconditionError):
            multiview_multidegree(1)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_equals_the_fully_checked_build(self, k, monkeypatch):
        """The exponents are not checked again, but the support still passes
        the consistency check, once."""
        calls = []

        def spy(owner, name):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or fn(*args))

        spy(multidegree_module.Polymatroid, "from_support")
        spy(multidegree_module, "exact_ints")
        md = multiview_multidegree(k)
        assert calls == ["from_support"]
        full = Multidegree(md.sig, dict(md.coeffs))
        assert md == full and md.polymatroid()._coded == full.polymatroid()._coded

    @pytest.mark.parametrize("k", range(2, 25))
    def test_every_exponent_of_degree_2k_minus_3_in_the_box(self, k):
        box = profiles((2,) * k, 2 * k - 3)
        assert dict(multiview_multidegree(k).coeffs) == dict.fromkeys(box, 1)


class TestChowResidual:
    def test_vanishes_on_incident_tuples(self):
        config = random_cameras(3, 2)
        rng = trial_rng(2, 0)
        for _ in range(5):
            world = random_world_point(config, rng)
            spaces = projected_tuple(config, world, rng, (2, 1, 1))
            assert chow_residual(config, spaces) == 0

    def test_nonzero_off_the_locus(self):
        # First factor pinned to the point (0,1,0), second to a point away
        # from the matching epipolar locus.
        config = pair_config()
        spaces = LinearSpaceTuple(
            (((1, 0, 0), (0, 0, 1)), ((0, 1, 0), (1, 0, -1)))
        )
        assert chow_residual(config, spaces) != 0

    def test_dependent_cutting_forms_rejected(self):
        with pytest.raises(PreconditionError):
            LinearSpaceTuple((((1, 0, 0), (2, 0, 0)), ((0, 1, 0), (0, 0, 1))))

    def test_wrong_row_count_rejected(self):
        config = random_cameras(3, 3)
        spaces = LinearSpaceTuple((((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)))
        with pytest.raises(PreconditionError):
            chow_residual(config, spaces)

    def test_unsupported_camera_count_rejected(self):
        config = random_cameras(5, 4)
        spaces = LinearSpaceTuple(
            (((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),), ((1, 1, 0),), ())
        )
        with pytest.raises(PreconditionError):
            chow_residual(config, spaces)


class TestMultifocalTensor:
    def test_fundamental_matrix_of_translated_pair(self):
        tensor = multifocal_tensor(pair_config(), (2, 2))
        expected = {(2, 3): Fraction(-1), (3, 2): Fraction(1)}
        for index in product((1, 2, 3), repeat=2):
            assert tensor[index] == expected.get(index, 0)

    def test_fundamental_matrix_incidence(self):
        config = pair_config()
        tensor = multifocal_tensor(config, (2, 2))
        rng = random.Random(9)
        for _ in range(100):
            world = random_world_point(config, rng)
            coords = [project_point(cam, world) for cam in config.cameras]
            assert tensor_contract(tensor, coords) == 0

    def test_trifocal_tensor_nonzero(self):
        tensor = multifocal_tensor(random_cameras(3, 6), (2, 1, 1))
        assert tensor.entries

    def test_five_cameras_rejected(self):
        with pytest.raises(PreconditionError):
            multifocal_tensor(random_cameras(5, 7), (1, 1, 1, 1, 0))

    def test_zero_codimension_slot_rejected(self):
        with pytest.raises(PreconditionError):
            multifocal_tensor(random_cameras(3, 8), (2, 2, 0))

    def test_identical_cameras_give_the_zero_tensor_without_warning(self):
        config = CameraConfiguration((IDENTITY_CAMERA, IDENTITY_CAMERA))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tensor = multifocal_tensor(config, (2, 2))
        assert not tensor.entries
        assert tensor == reference_tensor(config, (2, 2))

    def test_json_round_trip_omits_zeros(self):
        tensor = multifocal_tensor(pair_config(), (2, 2))
        obj = tensor.to_json()
        assert len(obj["entries"]) == 2
        assert MultifocalTensor.from_json(obj).entries == tensor.entries

    def test_only_nonzero_entries_stored(self):
        tensor = MultifocalTensor((2, 2), {(1, 1): 0, (2, 3): "3/4"})
        assert tensor.entries == {(2, 3): Fraction(3, 4)}
        assert tensor[(1, 1)] == 0 and tensor[(2, 3)] == Fraction(3, 4)
        assert not MultifocalTensor((1, 1, 2), {(3, 3, 3): 0}).entries

    @pytest.mark.parametrize(
        "beta", [(7, -3), (2, 1), (2, 2, 0), (4,), (1, 1, 1, 1, 0), (3, 1), ()]
    )
    def test_profile_without_a_multifocal_tensor_rejected(self, beta):
        with pytest.raises(PreconditionError):
            MultifocalTensor(beta, {(1,) * len(beta): 3})

    def test_repeated_index_rejected(self):
        obj = {
            "beta": [2, 2],
            "entries": [
                {"index": [1, 1], "value": "3"},
                {"index": [1, 1], "value": "5"},
            ],
        }
        with pytest.raises(PreconditionError, match="more than once"):
            MultifocalTensor.from_json(obj)


@pytest.mark.parametrize("trials", [0, -1])
def test_oracles_need_a_trial(trials):
    config = random_cameras(2, 21)
    with pytest.raises(PreconditionError, match="at least one trial"):
        intersection_count_oracle(config, (1, 0), trials, 0)
    with pytest.raises(PreconditionError, match="at least one trial"):
        epsilon_oracle(config, (2, 2), trials, 0)
    with pytest.raises(PreconditionError, match="at least one trial"):
        sz_membership(config, (2, 2), [(1, 0, 0), (0, 1, 0)], trials, 0)


def multifocal_profiles(k):
    return [beta for beta in product((1, 2), repeat=k) if sum(beta) == 4]


def reference_configs(k):
    """Seeded integer cameras, and rational ones whose rows have different
    denominators."""
    return [random_cameras(k, seed) for seed in range(3)] + [
        rational_cameras(k, seed) for seed in range(3)
    ]


class TestAgainstFractionReference:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_laplace_tensor_equals_det_per_entry(self, k):
        assert len(multifocal_profiles(k)) == {2: 1, 3: 3, 4: 1}[k]
        for config in reference_configs(k):
            for beta in multifocal_profiles(k):
                assert multifocal_tensor(config, beta) == reference_tensor(config, beta)

    def test_rational_cameras_have_rows_with_different_denominators(self):
        for cam in rational_cameras(4, 0).cameras:
            lcms = {lcm(*(x.denominator for x in row)) for row in cam}
            assert len(lcms) == 3

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_residual_equals_det_of_fraction_pullback(self, k):
        rng = random.Random(f"residual-reference:{k}")
        for config in reference_configs(k):
            for beta in multifocal_profiles(k):
                spaces = random_space_tuple(rng, beta)
                expected = linalg.det(fraction_pullback_rows(config, spaces.forms))
                assert chow_residual(config, spaces) == expected

    def test_residual_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        config = rational_cameras(3, 1)
        spaces = random_space_tuple(random.Random("sympy-residual"), (1, 2, 1))
        rows = fraction_pullback_rows(config, spaces.forms)
        det = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        ).det()
        assert chow_residual(config, spaces) == Fraction(int(det.p), int(det.q)) != 0


class TestTensorContract:
    def test_zero_slot_kills_contraction(self):
        tensor = multifocal_tensor(random_cameras(3, 10), (2, 1, 1))
        assert tensor_contract(tensor, [(0, 0, 0), (1, 2, 3), (4, 5, 6)]) == 0

    def test_scaling_one_slot(self):
        tensor = multifocal_tensor(random_cameras(3, 11), (1, 2, 1))
        coords = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
        base = tensor_contract(tensor, coords)
        scaled = tensor_contract(
            tensor, [coords[0], tuple(5 * x for x in coords[1]), coords[2]]
        )
        assert scaled == 5 * base

    def test_additive_in_each_slot(self):
        tensor = multifocal_tensor(random_cameras(2, 12), (2, 2))
        u, v, w = (1, 2, 3), (4, 5, 6), (7, 8, 9)
        lhs = tensor_contract(tensor, [tuple(a + b for a, b in zip(u, v)), w])
        rhs = tensor_contract(tensor, [u, w]) + tensor_contract(tensor, [v, w])
        assert lhs == rhs

    def test_dimension_mismatch_rejected(self):
        tensor = multifocal_tensor(pair_config(), (2, 2))
        with pytest.raises(PreconditionError):
            tensor_contract(tensor, [(1, 2, 3)])


def random_space_tuple(rng, beta):
    return LinearSpaceTuple(
        tuple(random_independent_forms(rng, b) for b in beta)
    )


class TestDeterminantIdentity:
    @pytest.mark.parametrize(
        "k,beta", [(2, (2, 2)), (3, (2, 1, 1)), (3, (1, 2, 1)), (4, (1, 1, 1, 1))]
    )
    def test_contract_equals_residual(self, k, beta):
        config = random_cameras(k, 13)
        tensor = multifocal_tensor(config, beta)
        rng = random.Random(f"identity:{k}:{beta}")
        for _ in range(20):
            spaces = random_space_tuple(rng, beta)
            assert tensor_contract(
                tensor, contraction_coordinates(spaces)
            ) == chow_residual(config, spaces)

    def test_projective_invariance_of_vanishing(self):
        # Re-coordinatizing world space must not change where the residual
        # vanishes.
        config = random_cameras(3, 14)
        rng = random.Random(15)
        h = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        assert linalg.det(h) != 0
        moved = CameraConfiguration(
            tuple(
                tuple(linalg.mat_vec(tuple(zip(*h)), row) for row in cam)
                for cam in config.cameras
            )
        )
        for trial in range(10):
            spaces = random_space_tuple(random.Random(trial), (2, 1, 1))
            before = chow_residual(config, spaces)
            after = chow_residual(moved, spaces)
            assert (before == 0) == (after == 0)
        world = random_world_point(config, rng)
        incident = projected_tuple(config, world, rng, (2, 1, 1))
        assert chow_residual(config, incident) == 0


class TestIntersectionOracle:
    def test_generic_k3_interior_gamma(self):
        config = random_cameras(3, 16)
        assert intersection_count_oracle(config, (1, 1, 1), 5, 0) == [1] * 5

    def test_generic_k3_boundary_gamma(self):
        config = random_cameras(3, 16)
        assert intersection_count_oracle(config, (0, 1, 2), 5, 0) == [1] * 5

    def test_repeated_camera_drops_gamma_from_support(self):
        cam = random_cameras(1, 17).cameras[0]
        other = random_cameras(3, 18).cameras[2]
        config = CameraConfiguration((cam, cam, other))
        counts = intersection_count_oracle(config, (0, 1, 2), 5, 0)
        assert majority_count(counts) == 0

    def test_gamma_validation(self):
        config = random_cameras(3, 16)
        with pytest.raises(PreconditionError):
            intersection_count_oracle(config, (1, 1, 0), 2, 0)
        with pytest.raises(PreconditionError):
            intersection_count_oracle(config, (3, 0, 0), 2, 0)

    def test_majority_count_requires_trials(self):
        with pytest.raises(PreconditionError):
            majority_count([])

    def test_same_seed_same_counts(self):
        config = random_cameras(2, 19)
        a = intersection_count_oracle(config, (1, 0), 4, 99)
        b = intersection_count_oracle(config, (1, 0), 4, 99)
        assert a == b


class TestEpsilonOracle:
    def test_determining_beta_gives_one(self):
        config = random_cameras(3, 20)
        assert epsilon_oracle(config, (2, 1, 1), 5, 0) == [1] * 5

    def test_two_cameras(self):
        config = random_cameras(2, 21)
        assert epsilon_oracle(config, (2, 2), 5, 0) == [1] * 5

    def test_degenerate_profile_reports_per_trial(self):
        counts = epsilon_oracle(random_cameras(3, 22), (2, 2, 0), 5, 0)
        assert len(counts) == 5
        assert all(c is None or c >= 0 for c in counts)

    def test_wrong_total_rejected(self):
        with pytest.raises(PreconditionError):
            epsilon_oracle(random_cameras(3, 22), (2, 2, 1), 2, 0)


class TestSzMembership:
    def test_image_points_are_members(self):
        config = random_cameras(3, 24)
        rng = random.Random(25)
        world = random_world_point(config, rng)
        candidate = [project_point(cam, world) for cam in config.cameras]
        assert has_world_point_preimage(config, candidate)
        assert sz_membership(config, (2, 1, 1), candidate, 10, 0)

    def test_random_candidate_is_not_a_member(self):
        config = random_cameras(3, 24)
        candidate = [(1, 2, 3), (-4, 5, 1), (2, 2, 7)]
        assert not has_world_point_preimage(config, candidate)
        assert not sz_membership(config, (2, 1, 1), candidate, 10, 0)

    def test_zero_coordinate_rejected(self):
        config = random_cameras(3, 24)
        with pytest.raises(PreconditionError):
            sz_membership(config, (2, 1, 1), [(0, 0, 0), (1, 1, 1), (1, 1, 1)], 2, 0)

    def test_sampled_lines_redraw_only_the_zero_pair(self):
        """A codimension-1 slot's line is ``u * b0 + v * b1`` for the first
        drawn pair (u, v) other than (0, 0)."""
        for point in ((1, 2, 3), (0, -3, 4), (0, 0, 5)):
            b0, b1 = basis = _forms_vanishing_at(point)
            for u, v in product(range(-10, 11), repeat=2):
                # Draws of [-10, 10] are 5-bit values plus -10; (1, 0) follows.
                (form,) = _forms_spanned_by(ScriptedBits([u + 10, v + 10, 11, 10]), basis, 1)
                line = tuple(u * a + v * b for a, b in zip(b0, b1))
                assert form == (b0 if (u, v) == (0, 0) else line)
                assert not sum(a * x for a, x in zip(form, point))

    def test_a_nonzero_form_vanishes_on_at_most_20_of_the_440_pairs(self):
        # a * u + b * v = 0 is a line through the origin, and one that holds a
        # pair (u0, v0) is cut out by (-v0, u0), itself a pair: these
        # coefficients give every line that holds any pair.
        counts = [sum(a * u + b * v == 0 for u, v in NONZERO_PAIRS) for a, b in NONZERO_PAIRS]
        assert len(NONZERO_PAIRS) == 440 and max(counts) == 20

    def test_a_non_member_trial_passes_within_the_bound(self):
        """With m = 2 lines, a trial of a non-member passes on at most
        2 * 20/440 of the 440^2 pairs of draws."""
        config = random_cameras(3, 24)
        point, (a0, a1), (b0, b1) = map(_forms_vanishing_at, [(1, 2, 3), (-4, 5, 1), (2, 2, 7)])
        # The residual is linear in each line, so in each pair.
        d = [
            [linalg.det(_pullback_rows(config, [point, [f], [g]])) for g in (b0, b1)]
            for f in (a0, a1)
        ]
        assert any(map(any, d))
        passes = sum(
            u * (x * d[0][0] + y * d[0][1]) + v * (x * d[1][0] + y * d[1][1]) == 0
            for u, v in NONZERO_PAIRS
            for x, y in NONZERO_PAIRS
        )
        assert passes <= 2 * 20 * 440
