"""Pinhole-camera instantiation of the incidence-form theory.

A k-tuple of 3x4 projection matrices induces a rational map from world
space P^3 to (P^2)^k; the closure of its image is the multiview variety.
This module builds that variety's multidegree symbolically, computes the
multifocal tensors (fundamental matrix, trifocal and quadrifocal tensors)
as exact determinants, and provides randomized exact-arithmetic oracles that
re-derive the multidegree coefficients, the incidence-form multiplicity, and
membership in the locus of k-tuples all of whose slicing spaces meet the
variety.

All arithmetic is exact rational.  "Random" always means integer numerators
and denominators drawn from a seeded generator in [-10, 10], with rank-based
genericity checks and bounded resampling (32 retries) on degeneracy.  Oracle
trial i uses a deterministic substream derived from (seed, i), so per-trial
results are reproducible regardless of execution order.

The work itself runs on integers.  A :class:`CameraConfiguration` keeps,
beside its public ``Fraction`` cameras, each camera times one scale, the lcm
of all 12 of its denominators, as integer rows, and each center scaled to
integers.  A camera must be scaled as a whole: scaling its rows by different
factors would change the camera, not just its scale.  Kernels, ranks, zero
tests and proportionality do not see a scale, so a drawn form or world point
is scaled to integers once it is drawn (the draws themselves are unchanged),
and images and pulled-back systems are integer products.  A value that does
depend on the scale, the residual or a tensor entry, is an integer
determinant divided by the product of the scales of the rows it used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm, prod
from operator import mul

from . import linalg
from .errors import (
    DegenerateInputError, PreconditionError, array, decimal, field, ints, rational
)
from .multidegree import Multidegree
from .polymatroid import SpaceSignature

MAX_RESAMPLES = 32

Vec = tuple[Fraction, ...]
Camera = tuple[Vec, Vec, Vec]


def _as_camera(rows) -> Camera:
    rows = tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
    )
    if len(rows) != 3 or any(len(row) != 4 for row in rows):
        raise PreconditionError("a camera must be a 3x4 matrix")
    return rows


def parse_vector(entries, length: int) -> Vec:
    """An array of ``length`` exact rationals (numbers or strings such as
    ``"-2/3"``)."""
    vec = tuple(map(rational, array(entries)))
    if len(vec) != length:
        raise PreconditionError(f"expected a vector of length {length}")
    return vec


def _image(rows, point) -> tuple[int, ...]:
    """Integer rows applied to an integer point."""
    return tuple(sum(map(mul, row, point)) for row in rows)


@dataclass(frozen=True)
class CameraConfiguration:
    """A tuple of rank-3 projection matrices with exact rational entries.

    Private integer copies serve the computations: ``_rows[i]`` is camera i
    times ``_scales[i]`` (one scale for the whole camera) and
    ``_int_centers[i]`` is a nonzero integer multiple of its center, the
    signed 3x3 minors of those rows (Hartley and Zisserman, *Multiple View
    Geometry*, 2nd ed., section 6.2.4), so building one needs no elimination.
    """

    cameras: tuple[Camera, ...]

    def __post_init__(self):
        cams = tuple(_as_camera(c) for c in self.cameras)
        object.__setattr__(self, "cameras", cams)
        if not cams:
            raise PreconditionError("need at least one camera")
        rows, scales, centers = [], [], []
        for idx, cam in enumerate(cams):
            (r0, r1, r2), scale = linalg.integer_rows(cam)
            # Entry j is det(r0; r1; r2; e_j); a camera has rank 3 exactly
            # when one of these 3x3 minors is nonzero.
            top = _minors(r0, r1)
            center = tuple(
                _laplace(top, _minors(r2, [int(i == j) for i in range(4)])) for j in range(4)
            )
            if not any(center):
                raise PreconditionError(f"camera {idx + 1} does not have rank 3")
            rows.append((tuple(r0), tuple(r1), tuple(r2)))
            scales.append(scale)
            centers.append(center)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_scales", tuple(scales))
        object.__setattr__(self, "_int_centers", tuple(centers))

    @property
    def k(self) -> int:
        return len(self.cameras)

    def center(self, i: int) -> Vec:
        """The world point killed by camera i (1-based); spans the kernel."""
        return linalg.nullspace(self._rows[i - 1], 4)[0]

    def is_generic(self) -> bool:
        """Pairwise-distinct centers and no three centers collinear."""
        # From three cameras on, a repeated center also drops a triple's rank.
        size = min(self.k, 3)
        return all(linalg.rank(s) == size for s in combinations(self._int_centers, size))

    @classmethod
    def from_json(cls, obj) -> "CameraConfiguration":
        def cameras(cams):
            return tuple(tuple(parse_vector(row, 4) for row in array(c)) for c in array(cams))

        return cls(field(obj, "cameras", cameras))

    def to_json(self) -> dict:
        return {
            "cameras": [
                [[str(x) for x in row] for row in cam] for cam in self.cameras
            ]
        }


@dataclass(frozen=True)
class LinearSpaceTuple:
    """For each factor, the linear forms cutting out a subspace of P^2.

    ``forms[i]`` holds the cutting forms of the i-th space; its length is the
    codimension beta_i.  Forms within a factor must be linearly independent.
    """

    forms: tuple[tuple[Vec, ...], ...]

    def __post_init__(self):
        parsed = tuple(
            tuple(tuple(Fraction(x) for x in form) for form in factor)
            for factor in self.forms
        )
        object.__setattr__(self, "forms", parsed)
        for idx, factor in enumerate(parsed):
            for form in factor:
                if len(form) != 3:
                    raise PreconditionError(
                        f"factor {idx + 1}: forms must have 3 coefficients"
                    )
            if factor and linalg.rank(list(factor)) != len(factor):
                raise PreconditionError(
                    f"factor {idx + 1}: cutting forms are linearly dependent"
                )

    @property
    def beta(self) -> tuple[int, ...]:
        return tuple(len(factor) for factor in self.forms)

    @classmethod
    def from_json(cls, obj) -> "LinearSpaceTuple":
        return cls(
            tuple(tuple(parse_vector(f, 3) for f in array(factor)) for factor in array(obj))
        )


@dataclass(frozen=True)
class MultifocalTensor:
    """Coefficient tensor of the multilinear incidence form.

    Slot i contracts with point coordinates when beta_i = 2 (the slicing
    space is a point) and with line coordinates when beta_i = 1.  Only the
    nonzero entries are stored.
    """

    beta: tuple[int, ...]
    entries: dict

    def __post_init__(self):
        beta = _tensor_profile(len(self.beta), self.beta)
        object.__setattr__(self, "beta", beta)
        clean = {}
        for index, value in self.entries.items():
            index = tuple(map(int, index))
            if len(index) != len(beta) or min(index) < 1 or max(index) > 3:
                raise PreconditionError(f"bad tensor index {index}")
            if value := value if type(value) is Fraction else Fraction(value):
                clean[index] = value
        object.__setattr__(self, "entries", clean)

    @property
    def k(self) -> int:
        return len(self.beta)

    def __getitem__(self, index) -> Fraction:
        return self.entries.get(tuple(index), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    @classmethod
    def from_json(cls, obj) -> "MultifocalTensor":
        beta = field(obj, "beta", ints)
        entries = {}
        for entry in field(obj, "entries", array):
            index = field(entry, "index", ints)
            if index in entries:
                raise PreconditionError(f"tensor index {index} appears more than once")
            entries[index] = field(entry, "value", rational)
        return cls(beta, entries)

    def to_json(self) -> dict:
        return {
            "beta": list(self.beta),
            "entries": [
                {"index": list(index), "value": decimal(value)}
                for index, value in sorted(self.entries.items())
            ],
        }


# ---------------------------------------------------------------------------
# basic projections and fixtures


def project_point(camera, world_point) -> Vec:
    """Apply a camera to a world point; undefined at the camera center."""
    camera = _as_camera(camera)
    image = linalg.mat_vec(camera, [Fraction(x) for x in world_point])
    if linalg.is_zero_vector(image):
        raise DegenerateInputError("projection undefined: point is the camera center")
    return image


def _signature(k: int) -> SpaceSignature:
    """(P^2)^k with the three-dimensional image of P^3 under k cameras."""
    if k < 2:
        raise PreconditionError("need at least two cameras")
    return SpaceSignature((2,) * k, 3)


def multiview_multidegree(k: int) -> Multidegree:
    """Multidegree of the image closure of P^3 in (P^2)^k (generic cameras).

    Expands t_1^2...t_k^2 * (sum over i1<i2<i3 of 1/(t_i1 t_i2 t_i3)
    + sum over ordered pairs i1 != i2 of 1/(t_i1^2 t_i2)); every surviving
    exponent carries coefficient 1.
    """
    sig = _signature(k)
    coeffs: dict[tuple, int] = {}

    def add(gamma):
        if all(g >= 0 for g in gamma):
            coeffs[gamma] = coeffs.get(gamma, 0) + 1

    for i1, i2, i3 in combinations(range(k), 3):
        gamma = [2] * k
        for i in (i1, i2, i3):
            gamma[i] -= 1
        add(tuple(gamma))
    for i1, i2 in permutations(range(k), 2):
        gamma = [2] * k
        gamma[i1] -= 2
        gamma[i2] -= 1
        add(tuple(gamma))
    return Multidegree(sig, coeffs)


# ---------------------------------------------------------------------------
# determinant form and tensor


def _pullback_rows(config: CameraConfiguration, factors):
    """Integer multiples of the rows l^T P_i for every cutting form l of
    factor i, factor order then form order, and the product of their
    multipliers; the caller has matched the factors to the cameras."""
    rows, scale = [], 1
    for cam, cam_scale, factor in zip(config._rows, config._scales, factors):
        forms, form_scale = linalg.integer_rows(factor)
        columns = tuple(zip(*cam))
        rows.extend(_image(columns, form) for form in forms)
        scale *= (cam_scale * form_scale) ** len(forms)
    return rows, scale


def _tensor_profile(k: int, beta) -> tuple[int, ...]:
    """A profile with a multifocal tensor: one entry per camera (k of
    them), each 1 or 2, summing to 4 (so 2-4 cameras)."""
    beta = _signature(k).check_profile(beta, 4)
    if 0 in beta:
        raise PreconditionError(
            f"unsupported profile {beta}: need 2-4 cameras with entries in {{1, 2}}"
        )
    return beta


def chow_residual(config: CameraConfiguration, spaces: LinearSpaceTuple) -> Fraction:
    """Evaluate the incidence form: det of the stacked pulled-back forms.

    The 4x4 determinant vanishes exactly when some world point (away from
    the camera centers) projects into every given space; the incidence locus
    is the closure of that condition, so this is the form up to scale.
    """
    _tensor_profile(config.k, spaces.beta)
    rows, scale = _pullback_rows(config, spaces.forms)
    return linalg.det(rows) / scale


#: Column pairs of a 2x4 block, in the order of its 2x2 minors.
_COLUMN_PAIRS = tuple(combinations(range(4), 2))


def _minors(u, v) -> tuple[int, ...]:
    """The six 2x2 minors of the block with rows u and v."""
    return tuple(u[i] * v[j] - u[j] * v[i] for i, j in _COLUMN_PAIRS)


def _laplace(top, bottom) -> int:
    """det of a 4x4 matrix from the minors of its top and bottom 2x4 blocks.

    Each column pair of the top block meets the complementary pair of the
    bottom block, with sign (-1)^(1 + 2 + c1 + c2) for 1-based columns c1, c2
    (Hartley and Zisserman, *Multiple View Geometry*, ch. 17).
    """
    return (
        top[0] * bottom[5] - top[1] * bottom[4] + top[2] * bottom[3]
        + top[3] * bottom[2] - top[4] * bottom[1] + top[5] * bottom[0]
    )


def multifocal_tensor(config: CameraConfiguration, beta) -> MultifocalTensor:
    """Coefficient tensor of the incidence form for profile beta.

    Entry T[a_1,...,a_k] is the signed determinant of the 4x4 matrix
    stacking, per factor i in order: the rows of P_i with row a_i omitted
    when beta_i = 2 (with sign (-1)^(a_i+1)), or row a_i alone when
    beta_i = 1.  With that convention, contracting T against point
    coordinates (cross products of the two cutting lines) on beta_i = 2
    slots and line coordinates on beta_i = 1 slots reproduces
    :func:`chow_residual` exactly.  Each determinant is a Laplace expansion
    of the integer camera rows over their 2x2 minors, divided by the scales
    of the rows it stacks.
    """
    beta = _tensor_profile(config.k, beta)
    # Per camera and index a: the (camera, row) pairs it stacks, and a sign.
    choices = [
        [(tuple((i, j) for j in range(3) if j != a), (-1) ** a) for a in range(3)]
        if b == 2
        else [(((i, a),), 1) for a in range(3)]
        for i, b in enumerate(beta)
    ]
    minors = {}

    def block(pairs):
        if pairs not in minors:
            (i, r), (j, t) = pairs
            minors[pairs] = _minors(config._rows[i][r], config._rows[j][t])
        return minors[pairs]

    # Every entry stacks beta_i rows of camera i, each times that camera's scale.
    scale = prod(s**b for s, b in zip(config._scales, beta))
    entries = {}
    for index in product((1, 2, 3), repeat=config.k):
        rows, sign = (), 1
        for choice, a in zip(choices, index):
            pairs, pair_sign = choice[a - 1]
            rows += pairs
            sign *= pair_sign
        if value := _laplace(block(rows[:2]), block(rows[2:])):
            entries[index] = Fraction(sign * value, scale)
    return MultifocalTensor(beta, entries)


def tensor_contract(tensor: MultifocalTensor, coordinates) -> Fraction:
    """Full multilinear contraction sum T[a] * prod_i x_i[a_i]."""
    coords, scale = linalg.integer_rows(coordinates)
    if len(coords) != tensor.k or any(len(vec) != 3 for vec in coords):
        raise PreconditionError(
            f"need {tensor.k} coordinate vectors of length 3"
        )
    # Integer numerators over one common denominator.
    denominator = lcm(*(value.denominator for value in tensor.entries.values()))
    total = 0
    for index, value in tensor.entries.items():
        term = value.numerator * (denominator // value.denominator)
        for vec, a in zip(coords, index):
            term *= vec[a - 1]
        total += term
    return Fraction(total, denominator * scale**tensor.k)


def contraction_coordinates(spaces: LinearSpaceTuple) -> list[Vec]:
    """Slot coordinates matching a space tuple: cross product of the two
    cutting lines on codimension-2 slots, the single line otherwise."""
    coords = []
    for factor in spaces.forms:
        if len(factor) == 2:
            coords.append(linalg.cross(factor[0], factor[1]))
        elif len(factor) == 1:
            coords.append(factor[0])
        else:
            raise PreconditionError("each factor needs one or two cutting forms")
    return coords


# ---------------------------------------------------------------------------
# seeded sampling helpers


def trial_rng(seed: int, trial: int) -> random.Random:
    """Deterministic per-trial substream; independent of scheduling."""
    return random.Random(f"{int(seed)}:{int(trial)}")


def _trial_rngs(seed: int, trials: int):
    """The substreams of trials 0, ..., trials - 1; at least one is needed."""
    if trials < 1:
        raise PreconditionError(f"need at least one trial, got {trials}")
    for trial in range(trials):
        yield trial_rng(seed, trial)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def _sample(rng, draw, good, what: str):
    for _ in range(MAX_RESAMPLES):
        value = draw(rng)
        if good(value):
            return value
    raise DegenerateInputError(f"could not sample a non-degenerate {what}")


def random_form(rng: random.Random) -> Vec:
    return _sample(
        rng,
        lambda r: tuple(random_rational(r) for _ in range(3)),
        lambda v: not linalg.is_zero_vector(v),
        "linear form",
    )


def _independent_forms(rng, draw, count: int, what: str) -> tuple[Vec, ...]:
    """``count`` forms, each drawn until it is independent of the earlier ones."""
    forms: list[Vec] = []
    for _ in range(count):
        forms.append(
            _sample(rng, draw, lambda f: linalg.rank(forms + [f]) == len(forms) + 1, what)
        )
    return tuple(forms)


def random_independent_forms(rng: random.Random, count: int):
    return _independent_forms(rng, random_form, count, "independent form")


def forms_through(rng: random.Random, point: Vec, count: int) -> tuple[Vec, ...]:
    """``count`` independent linear forms on P^2 vanishing at ``point``."""
    basis = linalg.nullspace([list(point)], 3)
    if len(basis) != 2:
        raise DegenerateInputError("candidate coordinate is the zero vector")

    def draw(r):
        u, v = r.randint(-10, 10), r.randint(-10, 10)
        return tuple(u * a + v * b for a, b in zip(basis[0], basis[1]))

    return _independent_forms(rng, draw, count, "form through a point")


def random_cameras(k: int, seed: int) -> CameraConfiguration:
    """A seeded generic configuration of k integer cameras."""

    def draw_camera(r):
        return [[r.randint(-10, 10) for _ in range(4)] for _ in range(3)]

    def draw(r):
        return CameraConfiguration(
            tuple(
                _sample(r, draw_camera, lambda c: linalg.rank(c) == 3, "rank-3 camera")
                for _ in range(k)
            )
        )

    rng = random.Random(f"cameras:{int(seed)}")
    return _sample(rng, draw, CameraConfiguration.is_generic, "generic camera configuration")


def _fiber_size(config: CameraConfiguration, rows) -> int | None:
    """The number of world points, away from the centers, solving the
    pulled-back rows.

    ``None`` when the solution space is positive-dimensional; otherwise 1
    for a single solution that is not a camera center and 0 in every other
    case (no solution, or the solution is a center).
    """
    solutions = linalg.nullspace(rows, 4)
    if len(solutions) != 1:
        return None if solutions else 0
    (point,), _ = linalg.integer_rows(solutions)
    return 0 if any(not any(_image(cam, point)) for cam in config._rows) else 1


def has_world_point_preimage(config: CameraConfiguration, candidate) -> bool:
    """True iff some world point projects to every candidate coordinate.

    The candidate is a k-tuple of P^2 points.  Builds the exact linear
    system forcing the image under each camera to be proportional to the
    corresponding coordinate and checks for a solution that is not a camera
    center.  Points of the image closure with no honest preimage are not
    detected; this is only used to certify *non*-membership.
    """
    candidate = [parse_vector(vec, 3) for vec in candidate]
    if len(candidate) != config.k:
        raise PreconditionError(f"candidate needs {config.k} coordinates")
    forms = [linalg.nullspace([list(x)], 3) for x in candidate]
    # A positive-dimensional solution space counts: a generic element avoids
    # the finitely many centers.
    return _fiber_size(config, _pullback_rows(config, forms)[0]) != 0


# ---------------------------------------------------------------------------
# oracles


def intersection_count_oracle(
    config: CameraConfiguration, gamma, trials: int, rng_seed: int
) -> list:
    """Per-trial count of variety points in a random product of spaces.

    For each trial, samples linear spaces of dimension gamma_i in each P^2
    with integer-coefficient cutting forms, pulls the forms back through the
    cameras to a linear system on P^3, and counts exact projective solutions
    that are not camera centers.  A trial where the pulled-back system has
    fewer than 3 independent rows yields ``None`` ("non-finite"); the
    majority count across trials estimates the multidegree coefficient.
    """
    sig = _signature(config.k)
    gamma = sig.check_profile(gamma, sig.codim())
    results = []
    for rng in _trial_rngs(rng_seed, trials):
        forms = [random_independent_forms(rng, 2 - g) for g in gamma]
        results.append(_fiber_size(config, _pullback_rows(config, forms)[0]))
    return results


def majority_count(counts) -> int | None:
    """Most common per-trial value; ``None`` means non-finite."""
    if not counts:
        raise PreconditionError("no trials")
    tally: dict = {}
    for c in counts:
        tally[c] = tally.get(c, 0) + 1
    return max(tally, key=lambda c: (tally[c], c is not None))


def _random_world_images(config: CameraConfiguration, center_images, rng: random.Random):
    """The integer images, one per camera, of a random world point that no
    camera sends to zero."""

    def draw(r):
        (point,), _ = linalg.integer_rows([[random_rational(r) for _ in range(4)]])
        return [_image(cam, point) for cam in config._rows]

    def good(images) -> bool:
        # Avoid points whose image coincides with the image of another
        # camera's center: those sit on special lines through two centers.
        return all(
            any(img) and not any(linalg.proportional(img, c) for c in others)
            for img, others in zip(images, center_images)
        )

    return _sample(rng, draw, good, "world point")


def epsilon_oracle(
    config: CameraConfiguration, beta, trials: int, rng_seed: int
) -> list:
    """Per-trial size of the fiber of the incidence correspondence.

    Each trial samples a world point, passes random spaces of codimension
    beta_i through its images, and counts the variety points inside the
    product of those spaces by solving the pulled-back linear system
    exactly.  ``None`` flags a positive-dimensional fiber.  In
    characteristic zero, determining profiles give 1 in every trial; in
    characteristic p a fiber can have length p, as the test
    ``test_frobenius_multiplicity_in_characteristic_p`` computes with sympy.
    """
    sig = _signature(config.k)
    beta = sig.check_profile(beta, sig.r + 1)
    # Per camera, the images of the other cameras' centers.
    center_images = [
        [_image(cam, c) for j, c in enumerate(config._int_centers) if j != i]
        for i, cam in enumerate(config._rows)
    ]
    results = []
    for rng in _trial_rngs(rng_seed, trials):
        # Forms through an image do not depend on its scale.
        images = _random_world_images(config, center_images, rng)
        forms = [
            forms_through(rng, image, b) if b else () for image, b in zip(images, beta)
        ]
        results.append(_fiber_size(config, _pullback_rows(config, forms)[0]))
    return results


def sz_membership(
    config: CameraConfiguration,
    tensor: MultifocalTensor,
    candidate,
    trials: int,
    rng_seed: int,
) -> bool:
    """Sampled membership test for the always-incident locus.

    Returns True iff the tensor contraction vanishes for every sampled tuple
    of spaces through the candidate's coordinates (codimension-2 slots are
    forced to the coordinate itself; codimension-1 slots get random lines
    through it).  True answers hold up to sampling confidence; False answers
    are exact.
    """
    candidate = [parse_vector(vec, 3) for vec in candidate]
    if len(candidate) != config.k or tensor.k != config.k:
        raise PreconditionError(f"candidate and tensor must have {config.k} slots")
    for vec in candidate:
        if linalg.is_zero_vector(vec):
            raise PreconditionError("candidate coordinates must be nonzero")
    for rng in _trial_rngs(rng_seed, trials):
        coords = []
        for x, b in zip(candidate, tensor.beta):
            if b == 2:
                coords.append(x)
            else:
                coords.append(forms_through(rng, x, 1)[0])
        if tensor_contract(tensor, coords) != 0:
            return False
    return True
