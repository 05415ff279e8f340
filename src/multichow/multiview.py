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
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from . import linalg
from .errors import DegenerateInputError, PreconditionError, array, decimal, field, ints
from .multidegree import Multidegree
from .polymatroid import BetaVector, SpaceSignature, as_beta

MAX_RESAMPLES = 32

Vec = tuple[Fraction, ...]
Camera = tuple[Vec, Vec, Vec]


def _as_camera(rows) -> Camera:
    rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(rows) != 3 or any(len(row) != 4 for row in rows):
        raise PreconditionError("a camera must be a 3x4 matrix")
    return rows


def parse_vector(entries, length: int) -> Vec:
    """An array of ``length`` exact rationals (numbers or strings such as
    ``"-2/3"``)."""
    vec = tuple(Fraction(x) for x in array(entries))
    if len(vec) != length:
        raise PreconditionError(f"expected a vector of length {length}")
    return vec


@dataclass(frozen=True)
class CameraConfiguration:
    """A tuple of rank-3 projection matrices with exact rational entries."""

    cameras: tuple[Camera, ...]

    def __post_init__(self):
        cams = tuple(_as_camera(c) for c in self.cameras)
        object.__setattr__(self, "cameras", cams)
        if not cams:
            raise PreconditionError("need at least one camera")
        # A 3x4 camera has rank 3 exactly when its kernel, spanned by the
        # camera center, is one-dimensional.
        centers = []
        for idx, cam in enumerate(cams):
            kernel = linalg.nullspace(cam, 4)
            if len(kernel) != 1:
                raise PreconditionError(f"camera {idx + 1} does not have rank 3")
            centers.append(kernel[0])
        object.__setattr__(self, "_centers", tuple(centers))

    @property
    def k(self) -> int:
        return len(self.cameras)

    def center(self, i: int) -> Vec:
        """The world point killed by camera i (1-based); spans the kernel."""
        return self._centers[i - 1]

    def is_generic(self) -> bool:
        """Pairwise-distinct centers and no three centers collinear."""
        centers = [self.center(i) for i in range(1, self.k + 1)]
        for a, b in combinations(centers, 2):
            if linalg.rank([a, b]) < 2:
                return False
        for triple in combinations(centers, 3):
            if linalg.rank(list(triple)) < 3:
                return False
        return True

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
    space is a point) and with line coordinates when beta_i = 1.
    """

    beta: tuple[int, ...]
    entries: dict

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(int(b) for b in self.beta))
        k = len(self.beta)
        clean = {}
        for index, value in self.entries.items():
            index = tuple(int(a) for a in index)
            if len(index) != k or any(not 1 <= a <= 3 for a in index):
                raise PreconditionError(f"bad tensor index {index}")
            clean[index] = Fraction(value)
        for index in product((1, 2, 3), repeat=k):
            clean.setdefault(index, Fraction(0))
        object.__setattr__(self, "entries", clean)

    @property
    def k(self) -> int:
        return len(self.beta)

    def __getitem__(self, index) -> Fraction:
        return self.entries[tuple(index)]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries.values())

    @classmethod
    def from_json(cls, obj) -> "MultifocalTensor":
        beta = field(obj, "beta", ints)
        entries = {
            field(entry, "index", ints): field(entry, "value", lambda v: Fraction(str(v)))
            for entry in field(obj, "entries", array)
        }
        return cls(beta, entries)

    def to_json(self) -> dict:
        return {
            "beta": list(self.beta),
            "entries": [
                {"index": list(index), "value": decimal(value)}
                for index, value in sorted(self.entries.items())
                if value != 0
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
    """Rows l^T P_i for every cutting form l of factor i, factor order then
    form order; the caller has matched the factors to the cameras."""
    rows = []
    for cam, factor in zip(config.cameras, factors):
        for form in factor:
            rows.append(linalg.mat_vec(tuple(zip(*cam)), form))
    return rows


def _tensor_profile(config: CameraConfiguration, beta) -> BetaVector:
    """A profile with a multifocal tensor: one entry per camera, each 1 or
    2, summing to 4 (so 2-4 cameras)."""
    beta = as_beta(beta)
    beta.check_range(_signature(config.k), total=4)
    if 0 in beta.beta:
        raise PreconditionError(
            f"unsupported profile {beta.beta}: need 2-4 cameras with "
            "entries in {1, 2}"
        )
    return beta


def chow_residual(config: CameraConfiguration, spaces: LinearSpaceTuple) -> Fraction:
    """Evaluate the incidence form: det of the stacked pulled-back forms.

    The 4x4 determinant vanishes exactly when some world point (away from
    the camera centers) projects into every given space; the incidence locus
    is the closure of that condition, so this is the form up to scale.
    """
    _tensor_profile(config, spaces.beta)
    return linalg.det(_pullback_rows(config, spaces.forms))


def multifocal_tensor(config: CameraConfiguration, beta) -> MultifocalTensor:
    """Coefficient tensor of the incidence form for profile beta.

    Entry T[a_1,...,a_k] is the signed determinant of the 4x4 matrix
    stacking, per factor i in order: the rows of P_i with row a_i omitted
    when beta_i = 2 (with sign (-1)^(a_i+1)), or row a_i alone when
    beta_i = 1.  With that convention, contracting T against point
    coordinates (cross products of the two cutting lines) on beta_i = 2
    slots and line coordinates on beta_i = 1 slots reproduces
    :func:`chow_residual` exactly.
    """
    beta = _tensor_profile(config, beta)
    if not config.is_generic():
        warnings.warn(
            "camera configuration is not generic; the tensor may vanish "
            "identically",
            stacklevel=2,
        )
    entries = {}
    for index in product((1, 2, 3), repeat=config.k):
        rows = []
        sign = 1
        for cam, b, a in zip(config.cameras, beta.beta, index):
            if b == 2:
                rows.extend(cam[j] for j in range(3) if j != a - 1)
                sign *= (-1) ** (a + 1)
            else:
                rows.append(cam[a - 1])
        entries[index] = sign * linalg.det(rows)
    return MultifocalTensor(beta.beta, entries)


def tensor_contract(tensor: MultifocalTensor, coordinates) -> Fraction:
    """Full multilinear contraction sum T[a] * prod_i x_i[a_i]."""
    coords = [tuple(Fraction(x) for x in vec) for vec in coordinates]
    if len(coords) != tensor.k or any(len(vec) != 3 for vec in coords):
        raise PreconditionError(
            f"need {tensor.k} coordinate vectors of length 3"
        )
    total = Fraction(0)
    for index, value in tensor.entries.items():
        if value == 0:
            continue
        term = value
        for vec, a in zip(coords, index):
            term *= vec[a - 1]
        total += term
    return total


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


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def _sample(rng, draw, good, what: str):
    for _ in range(MAX_RESAMPLES):
        value = draw(rng)
        if good(value):
            return value
    raise DegenerateInputError(f"could not sample a non-degenerate {what}")


def random_form(rng: random.Random, length: int = 3) -> Vec:
    return _sample(
        rng,
        lambda r: tuple(random_rational(r) for _ in range(length)),
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


def random_independent_forms(rng: random.Random, count: int, length: int = 3):
    return _independent_forms(
        rng, lambda r: random_form(r, length), count, "independent form"
    )


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
    images = (linalg.mat_vec(cam, solutions[0]) for cam in config.cameras)
    return 0 if any(map(linalg.is_zero_vector, images)) else 1


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
    return _fiber_size(config, _pullback_rows(config, forms)) != 0


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
    gamma = BetaVector(gamma)
    gamma.check_range(sig, total=sig.codim())
    results = []
    for trial in range(trials):
        rng = trial_rng(rng_seed, trial)
        forms = [random_independent_forms(rng, 2 - g) for g in gamma.beta]
        results.append(_fiber_size(config, _pullback_rows(config, forms)))
    return results


def majority_count(counts) -> int | None:
    """Most common per-trial value; ``None`` means non-finite."""
    if not counts:
        raise PreconditionError("no trials")
    tally: dict = {}
    for c in counts:
        tally[c] = tally.get(c, 0) + 1
    return max(tally, key=lambda c: (tally[c], c is not None))


def _random_world_point(config: CameraConfiguration, rng: random.Random) -> Vec:
    centers = [config.center(j + 1) for j in range(config.k)]

    def degenerate(q) -> bool:
        if linalg.is_zero_vector(q):
            return True
        images = [linalg.mat_vec(cam, q) for cam in config.cameras]
        if any(linalg.is_zero_vector(img) for img in images):
            return True
        # Avoid points whose image coincides with the image of another
        # camera's center: those sit on special lines through two centers.
        for i, cam in enumerate(config.cameras):
            for j in range(config.k):
                if i == j:
                    continue
                center_image = linalg.mat_vec(cam, centers[j])
                if linalg.proportional(images[i], center_image):
                    return True
        return False

    return _sample(
        rng,
        lambda r: tuple(random_rational(r) for _ in range(4)),
        lambda q: not degenerate(q),
        "world point",
    )


def epsilon_oracle(
    config: CameraConfiguration, beta, trials: int, rng_seed: int
) -> list:
    """Per-trial size of the fiber of the incidence correspondence.

    Each trial samples a world point, passes random spaces of codimension
    beta_i through its images, and counts the variety points inside the
    product of those spaces by solving the pulled-back linear system
    exactly.  ``None`` flags a positive-dimensional fiber.  In
    characteristic zero, determining profiles give 1 in every trial.
    """
    beta = as_beta(beta)
    sig = _signature(config.k)
    beta.check_range(sig, total=sig.r + 1)
    results = []
    for trial in range(trials):
        rng = trial_rng(rng_seed, trial)
        world = _random_world_point(config, rng)
        images = [project_point(cam, world) for cam in config.cameras]
        forms = [
            forms_through(rng, image, b) if b else () for image, b in zip(images, beta.beta)
        ]
        results.append(_fiber_size(config, _pullback_rows(config, forms)))
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
    for trial in range(trials):
        rng = trial_rng(rng_seed, trial)
        coords = []
        for x, b in zip(candidate, tensor.beta):
            if b == 2:
                coords.append(x)
            else:
                coords.append(forms_through(rng, x, 1)[0])
        if tensor_contract(tensor, coords) != 0:
            return False
    return True
