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
in [-10, 10] and denominators in [1, 10], drawn by :func:`_randint` from a
seeded generator, with genericity checks and bounded resampling (32 retries)
on degeneracy.  Oracle trial i uses a deterministic substream derived from
(seed, i), so per-trial results are reproducible regardless of execution order.

The work itself runs on integers, from the input to the answer: cameras,
forms, points, coordinates and tensor entries are read by
``errors.integer_rows`` into integer rows and one scale, each number by
``errors.exact`` (a float from its decimal text, as on the command line).
The three value classes store only integers and scales; ``cameras``,
``forms``, ``entries`` and ``tensor[index]`` build ``Fraction`` values when
read.  Kernels and zero tests do not see a scale, so random forms and world
points, images and pulled-back systems are integer vectors.  The residual
and a tensor entry are integer determinants over the scales of their rows.

No geometry computation runs an elimination; each job has one closed-form
kernel.  One or two forms on P^2 are independent when they are nonzero and,
for two, their cross product is nonzero (:func:`_independent`, for the
sampler and for :class:`LinearSpaceTuple`); three rows in P^3 have rank 3
when their signed 3x3 minors (:func:`_kernel3`, which also gives the camera
centers) are not all zero, and those minors then span their kernel, so a
pulled-back system is solved by the minors of its first row triple of rank
3, checked against the other rows.  The residual, every tensor entry and
each trial of :func:`sz_membership` are 4x4 determinants, all computed by
one Laplace expansion over 2x2 minors (:func:`_laplace`).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import gcd, lcm, prod

from .errors import (
    DegenerateInputError, PreconditionError, array, decimal, exact, exact_ints, field, integer_rows,
    ints, vector,
)
from .multidegree import Multidegree
from .polymatroid import SpaceSignature, Value

MAX_RESAMPLES = 32

Vec = tuple[Fraction, ...]
Camera = tuple[Vec, Vec, Vec]


def _over(rows, scale) -> tuple[Vec, ...]:
    """Integer rows divided by their scale, as ``Fraction`` rows."""
    return tuple(tuple(Fraction(x, scale) for x in row) for row in rows)


def _as_camera(rows) -> tuple[tuple, int]:
    """A camera's rows times its scale, the lcm of its 12 denominators, as
    integers, and that scale; a camera of ints is its own rows, scale 1.
    Its rows are read as vectors of length 4, then counted."""
    rows, scale = integer_rows(rows, 4)
    if len(rows) != 3:
        raise PreconditionError("a camera must be a 3x4 matrix")
    return tuple(rows), scale


def _image(rows, point) -> tuple[int, ...]:
    """Integer rows of length 4 applied to an integer point."""
    x0, x1, x2, x3 = point
    return tuple([a * x0 + b * x1 + c * x2 + d * x3 for a, b, c, d in rows])


class CameraConfiguration(Value):
    """A tuple of rank-3 projection matrices with exact rational entries.

    ``_rows[i]`` and ``_scales[i]`` are camera i as :func:`_as_camera`
    reads it, ``_columns[i]`` are the columns of ``_rows[i]``, and
    ``_int_centers[i]`` is a nonzero integer multiple of its
    center, the signed 3x3 minors of those rows (Hartley and Zisserman,
    *Multiple View Geometry*, 2nd ed., section 6.2.4), so building one needs
    no elimination.  ``cameras`` builds the ``Fraction`` matrices.
    """

    def __post_init__(self, cameras):
        read = [_as_camera(cam) for cam in cameras]
        if not read:
            raise PreconditionError("need at least one camera")
        self._rows, self._scales = zip(*read)
        self._columns = tuple(tuple(zip(*cam)) for cam in self._rows)
        self._int_centers = tuple(_kernel3(*cam) for cam in self._rows)
        for idx, center in enumerate(self._int_centers):
            if not any(center):
                raise PreconditionError(f"camera {idx + 1} does not have rank 3")

    @property
    def cameras(self) -> tuple[Camera, ...]:
        return tuple(map(_over, self._rows, self._scales))

    @property
    def k(self) -> int:
        return len(self._rows)

    def center(self, i: int) -> Vec:
        """The world point killed by camera i (1-based); its last nonzero
        entry is 1, as in the ``linalg.nullspace`` basis."""
        if not 1 <= i <= self.k:
            raise PreconditionError(f"camera {i} out of range 1..{self.k}")
        *_, last = filter(None, center := self._int_centers[i - 1])
        return tuple(Fraction(x, last) for x in center)

    def is_generic(self) -> bool:
        """Pairwise-distinct centers and no three centers collinear."""
        centers = self._int_centers
        if self.k < 3:
            return all(any(_minors(a, b)) for a, b in combinations(centers, 2))
        # From three cameras on, a repeated center also drops a triple's rank.
        return all(any(_kernel3(a, b, c)) for a, b, c in combinations(centers, 3))

    @classmethod
    def from_json(cls, obj) -> "CameraConfiguration":
        def cameras(cams):
            return tuple(tuple(vector(row, 4) for row in array(c)) for c in array(cams))

        return cls(field(obj, "cameras", cameras))

    def to_json(self) -> dict:
        return {
            "cameras": [
                [[str(x) for x in row] for row in cam] for cam in self.cameras
            ]
        }


class LinearSpaceTuple(Value):
    """For each factor, the linear forms cutting out a subspace of P^2.

    ``forms[i]`` builds the cutting forms of the i-th space as ``Fraction``
    vectors; its length is the codimension beta_i, at most 2.  Forms within
    a factor must be independent.  ``_forms[i]`` holds the forms of factor i
    times ``_scales[i]``, the lcm of their denominators, as integers.
    """

    def __post_init__(self, forms):
        scaled = [integer_rows(factor, 3) for factor in forms]
        for idx, (factor, _) in enumerate(scaled):
            if not _independent(factor):
                raise PreconditionError(f"factor {idx + 1}: cutting forms are linearly dependent")
        self._forms = tuple(tuple(rows) for rows, _ in scaled)
        self._scales = tuple(scale for _, scale in scaled)

    @property
    def forms(self) -> tuple[tuple[Vec, ...], ...]:
        return tuple(map(_over, self._forms, self._scales))

    @property
    def beta(self) -> tuple[int, ...]:
        return tuple(map(len, self._forms))

    @classmethod
    def from_json(cls, obj) -> "LinearSpaceTuple":
        return cls(
            tuple(tuple(vector(f, 3) for f in array(factor)) for factor in array(obj))
        )


class MultifocalTensor(Value):
    """Coefficient tensor of the incidence form.

    Slot i contracts with point coordinates when beta_i = 2 (the slicing
    space is a point) and with line coordinates when beta_i = 1.
    ``_numerators`` holds every entry times ``_denominator`` as an integer,
    zeros included, in :data:`_TENSOR_INDICES` order; ``entries`` builds the
    nonzero ones as ``Fraction`` values, and ``tensor[index]`` one entry.
    """

    def __post_init__(self, beta, entries):
        self.beta = beta = _tensor_profile(len(beta), beta)
        values = [0] * 3 ** len(beta)
        for index, value in entries.items():
            values[_position(len(beta), index)] = value
        (self._numerators,), self._denominator = integer_rows([values], len(values))

    @classmethod
    def _of_numerators(cls, beta, numerators, denominator) -> "MultifocalTensor":
        """The tensor of a checked profile whose entries are the integer
        ``numerators``, in :data:`_TENSOR_INDICES` order, over
        ``denominator``; nothing is derived again."""
        tensor = cls.__new__(cls)
        vars(tensor).update(beta=beta, _numerators=tuple(numerators), _denominator=denominator)
        return tensor

    def _key(self):
        # Equal tensors may store different denominators.
        g = gcd(self._denominator, *self._numerators)
        return self.beta, tuple(n // g for n in self._numerators), self._denominator // g

    def _nonzero(self):
        return ((i, n) for i, n in zip(_TENSOR_INDICES[self.k], self._numerators) if n)

    @property
    def k(self) -> int:
        return len(self.beta)

    @property
    def entries(self) -> dict:
        return {index: Fraction(n, self._denominator) for index, n in self._nonzero()}

    def __getitem__(self, index) -> Fraction:
        position = _position(self.k, tuple(index) if isinstance(index, list) else index)
        return Fraction(self._numerators[position], self._denominator)

    @classmethod
    def from_json(cls, obj) -> "MultifocalTensor":
        beta = field(obj, "beta", ints)
        entries = {}
        for entry in field(obj, "entries", array):
            index = field(entry, "index", ints)
            if index in entries:
                raise PreconditionError(f"tensor index {index} appears more than once")
            entries[index] = field(entry, "value", exact)
        return cls(beta, entries)

    def to_json(self) -> dict:
        """Each value written as ``str(Fraction(n, d))`` would write it."""
        entries = []
        for index, n in self._nonzero():
            g = gcd(n, d := self._denominator)
            value = decimal(n // g) if g == d else f"{decimal(n // g)}/{decimal(d // g)}"
            entries.append({"index": list(index), "value": value})
        return {"beta": list(self.beta), "entries": entries}


# ---------------------------------------------------------------------------
# basic projections and fixtures


def project_point(camera, world_point) -> Vec:
    """Apply a camera to a world point; undefined at the camera center."""
    rows, scale = _as_camera(camera)
    (point,), point_scale = integer_rows([world_point], 4)
    image = _image(rows, point)  # times both scales
    if not any(image):
        raise DegenerateInputError("projection undefined: point is the camera center")
    return tuple(Fraction(x, scale * point_scale) for x in image)


def _signature(k: int) -> SpaceSignature:
    """(P^2)^k with the three-dimensional image of P^3 under k cameras."""
    if k < 2:
        raise PreconditionError("need at least two cameras")
    return SpaceSignature((2,) * k, 3)


def multiview_multidegree(k: int) -> Multidegree:
    """Multidegree of the image closure of P^3 in (P^2)^k (generic cameras).

    Expands t_1^2...t_k^2 * (sum over i1<i2<i3 of 1/(t_i1 t_i2 t_i3)
    + sum over ordered pairs i1 != i2 of 1/(t_i1^2 t_i2)); no exponent
    leaves the box or repeats, so each carries coefficient 1.  They are not
    checked again, but the support passes the polymatroid consistency check.
    """
    sig = _signature(k)
    coeffs = {}
    twice = ((a, a, b) for a, b in permutations(range(k), 2))
    for lowered in chain(combinations(range(k), 3), twice):
        gamma = [2] * k
        for i in lowered:
            gamma[i] -= 1
        coeffs[tuple(gamma)] = 1
    return Multidegree(sig, coeffs, _checked=True)


# ---------------------------------------------------------------------------
# determinant form and tensor


def _pullback_rows(config: CameraConfiguration, factors):
    """The integer rows l^T P_i, each times the scale of camera i, for every
    integer cutting form l of factor i, factor order then form order; the
    caller has matched the factors to the cameras."""
    rows = []
    for cols, forms in zip(config._columns, factors):
        (a0, b0, c0), (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = cols
        for x, y, z in forms:
            rows.append((a0 * x + b0 * y + c0 * z, a1 * x + b1 * y + c1 * z,
                         a2 * x + b2 * y + c2 * z, a3 * x + b3 * y + c3 * z))
    return rows


#: For 2, 3 and 4 cameras, the 3^k tensor indices in product order, and the
#: position of each in that order.
_TENSOR_INDICES = {k: tuple(product((1, 2, 3), repeat=k)) for k in (2, 3, 4)}
_INDEX_POSITIONS = {
    k: {index: position for position, index in enumerate(indices)}
    for k, indices in _TENSOR_INDICES.items()
}


def _position(k: int, index) -> int:
    """The position of a tensor index for k cameras: one lookup accepts what
    exact_ints and the range check accept, as equal numbers hash alike."""
    if (position := _INDEX_POSITIONS[k].get(index)) is None:
        raise PreconditionError(f"bad tensor index {exact_ints(index, 'tensor index')}")
    return position


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
    r0, r1, r2, r3 = _pullback_rows(config, spaces._forms)
    scales = zip(config._scales, spaces._scales, spaces._forms)
    scale = prod((cam * space) ** len(forms) for cam, space, forms in scales)
    return Fraction(_laplace(_minors(r0, r1), _minors(r2, r3)), scale)


def _minors(u, v) -> tuple[int, ...]:
    """The six 2x2 minors of the block with rows u and v, by column pairs
    (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return (
        u0 * v1 - u1 * v0, u0 * v2 - u2 * v0, u0 * v3 - u3 * v0,
        u1 * v2 - u2 * v1, u1 * v3 - u3 * v1, u2 * v3 - u3 * v2,
    )


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


def _kernel3(r0, r1, r2) -> tuple[int, ...]:
    """The signed 3x3 minors of three rows of length 4: entry j is
    det(r0; r1; r2; e_j), :func:`_laplace` with the minors of (r2, e_j) as
    bottom block.  They are all zero exactly when the rows have rank below 3;
    otherwise they span the kernel (each row meets them in a determinant
    with a repeated row)."""
    m01, m02, m03, m12, m13, m23 = _minors(r0, r1)
    a, b, c, d = r2
    return (
        m13 * c - m12 * d - m23 * b,
        m02 * d - m03 * c + m23 * a,
        m03 * b - m01 * d - m13 * a,
        m01 * c - m02 * b + m12 * a,
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
    numerators = []
    for index in _TENSOR_INDICES[config.k]:
        rows, sign = (), 1
        for choice, a in zip(choices, index):
            pairs, pair_sign = choice[a - 1]
            rows += pairs
            sign *= pair_sign
        numerators.append(sign * _laplace(block(rows[:2]), block(rows[2:])))
    return MultifocalTensor._of_numerators(beta, numerators, scale)


def tensor_contract(tensor: MultifocalTensor, coordinates) -> Fraction:
    """Full multilinear contraction sum T[a] * prod_i x_i[a_i], slot by slot
    from the last: the tensor's integer numerators, in index order, fall
    into consecutive triples that agree in every slot but the last, and
    each triple contracts with that slot's integer coordinates."""
    coords, scale = integer_rows(coordinates, 3)
    if len(coords) != tensor.k:
        raise PreconditionError(f"need {tensor.k} coordinate vectors of length 3")
    values = tensor._numerators
    for x0, x1, x2 in reversed(coords):
        triples = iter(values)
        values = [a * x0 + b * x1 + c * x2 for a, b, c in zip(triples, triples, triples)]
    (total,) = values
    return Fraction(total, tensor._denominator * scale**tensor.k)


def contraction_coordinates(spaces: LinearSpaceTuple) -> list[Vec]:
    """Slot coordinates matching a space tuple: cross product of the two
    cutting lines on codimension-2 slots, the single line otherwise."""
    coords = []
    for factor in spaces.forms:
        if len(factor) == 2:
            coords.append(_cross(factor[0], factor[1]))
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


def _randint(rng: random.Random, low: int, high: int) -> int:
    """``random.Random.randint(low, high)`` as Python 3.10-3.13 draws it, so
    with its values and generator state: ``rng.getrandbits`` of the width's
    bit length, redrawn while it is not below the width."""
    width = high - low + 1
    bits = width.bit_length()
    value = rng.getrandbits(bits)
    while value >= width:
        value = rng.getrandbits(bits)
    return low + value


def _random_vector(rng: random.Random, length: int) -> tuple[int, ...]:
    """``length`` rationals ``randint(-10, 10) / randint(1, 10)``, numerator
    first, times the lcm of their denominators."""
    pairs = [(_randint(rng, -10, 10), _randint(rng, 1, 10)) for _ in range(length)]
    scale = lcm(*[d for _, d in pairs])
    return tuple([n * (scale // d) for n, d in pairs])


def _sample(rng, draw, good, what: str):
    for _ in range(MAX_RESAMPLES):
        value = draw(rng)
        if good(value):
            return value
    raise DegenerateInputError(f"could not sample a non-degenerate {what}")


def random_form(rng: random.Random) -> tuple[int, ...]:
    """A nonzero linear form on P^2, as an integer vector."""
    return _sample(rng, lambda r: _random_vector(r, 3), any, "linear form")


def _independent(forms) -> bool:
    """Whether forms on P^2 are linearly independent: each is nonzero, and
    two have a nonzero cross product.  More than two are refused, as a
    codimension in P^2 is at most 2."""
    if len(forms) > 2:
        raise PreconditionError(f"at most 2 independent forms cut P^2, not {len(forms)}")
    return all(map(any, forms)) and (len(forms) < 2 or any(_cross(*forms)))


def _cross(u, v) -> tuple[int, int, int]:
    """u x v for 3-vectors, as ``linalg.cross`` gives it; integer vectors
    have an integer cross product."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)


def _independent_forms(rng, draw, count: int, what: str) -> tuple[tuple[int, ...], ...]:
    """``count`` forms, each drawn until it is :func:`_independent` of the
    earlier ones."""
    forms = ()
    for _ in range(count):
        forms += (_sample(rng, draw, lambda f: _independent((*forms, f)), what),)
    return forms


def random_independent_forms(rng: random.Random, count: int):
    """``count`` (at most 2) independent linear forms, as integer vectors."""
    return _independent_forms(rng, random_form, count, "independent form")


def _forms_vanishing_at(x) -> list[tuple[int, ...]]:
    """A basis of the linear forms on P^2 vanishing at the integer point x:
    ``x[c] * e_f - x[f] * e_c``, where c is the first nonzero entry of x and
    f runs over the other two columns in order, which is the kernel basis of
    x times x[c].  All three unit forms when x is zero."""
    a, b, c = x
    if a:
        return [(-b, a, 0), (-c, 0, a)]
    if b:
        return [(b, 0, 0), (0, -c, b)]
    if c:
        return [(c, 0, 0), (0, c, 0)]
    return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def forms_through(rng: random.Random, point, count: int) -> tuple[tuple[int, ...], ...]:
    """``count`` independent linear forms on P^2 vanishing at ``point``, as
    integer vectors: each is ``u * b_0 + v * b_1`` for random integers u, v,
    over the basis :func:`_forms_vanishing_at` of the point."""
    if not all(type(a) is int for a in point):
        (point,), _ = integer_rows([point], 3)
    basis = _forms_vanishing_at(point)
    if len(basis) != 2:
        raise DegenerateInputError("candidate coordinate is the zero vector")
    return _forms_spanned_by(rng, basis, count)


def _forms_spanned_by(rng: random.Random, basis, count: int) -> tuple[tuple[int, ...], ...]:
    """``count`` independent forms ``u * b_0 + v * b_1`` for random integers
    u, v, over the two integer forms of ``basis``."""
    (a0, a1, a2), (b0, b1, b2) = basis

    def draw(r):
        u, v = _randint(r, -10, 10), _randint(r, -10, 10)
        return (u * a0 + v * b0, u * a1 + v * b1, u * a2 + v * b2)

    return _independent_forms(rng, draw, count, "form through a point")


def random_cameras(k: int, seed: int) -> CameraConfiguration:
    """A seeded generic configuration of k integer cameras."""

    def draw_camera(r):
        return [[_randint(r, -10, 10) for _ in range(4)] for _ in range(3)]

    def draw(r):
        return CameraConfiguration(
            tuple(
                _sample(r, draw_camera, lambda c: any(_kernel3(*c)), "rank-3 camera")
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
    case (no solution, or the solution is a center).  Any number of integer
    rows of length 4: the first row triple of rank 3 gives the only
    candidate point, its :func:`_kernel3`; with no such triple the rows have
    rank below 3, and when the point misses a row they have rank 4.
    """
    for triple in combinations(rows, 3):
        point = _kernel3(*triple)
        if any(point):
            break
    else:
        return None
    if any(_image(rows, point)):
        return 0
    return 0 if any(not any(_image(cam, point)) for cam in config._rows) else 1


def has_world_point_preimage(config: CameraConfiguration, candidate) -> bool:
    """True iff some world point projects to every candidate coordinate.

    The candidate is a k-tuple of P^2 points.  Builds the exact linear
    system forcing the image under each camera to be proportional to the
    corresponding coordinate and checks for a solution that is not a camera
    center.  Points of the image closure with no honest preimage are not
    detected; this is only used to certify *non*-membership.
    """
    # A point is defined only up to scale, so one scale serves.
    candidate, _ = integer_rows(candidate, 3)
    if len(candidate) != config.k:
        raise PreconditionError(f"candidate needs {config.k} coordinates")
    forms = [_forms_vanishing_at(x) for x in candidate]
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
    gamma = sig.check_profile(gamma, sig.codim())
    results = []
    for rng in _trial_rngs(rng_seed, trials):
        forms = [random_independent_forms(rng, 2 - g) for g in gamma]
        results.append(_fiber_size(config, _pullback_rows(config, forms)))
    return results


def majority_count(counts) -> int | None:
    """Most common per-trial value; ``None`` means non-finite."""
    if not counts:
        raise PreconditionError("no trials")
    tally = Counter(counts)
    return max(tally, key=lambda c: (tally[c], c is not None))


def _random_world_images(config: CameraConfiguration, center_images, rng: random.Random):
    """The integer images, one per camera, of a random world point that no
    camera sends to zero; ``center_images[i]`` holds the nonzero images of
    the other cameras' centers under camera i."""

    def draw(r):
        point = _random_vector(r, 4)
        return [_image(cam, point) for cam in config._rows]

    def good(images) -> bool:
        # Avoid points whose image coincides with the image of another
        # camera's center: those sit on special lines through two centers.
        return all(
            any(img) and all(any(_cross(img, c)) for c in others)
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
    characteristic zero, determining profiles of generic cameras give 1 in
    every trial; in characteristic p a fiber can have length p, as the test
    ``test_frobenius_multiplicity_in_characteristic_p`` computes with sympy.
    """
    sig = _signature(config.k)
    beta = sig.check_profile(beta, sig.r + 1)
    # Per camera, the images of the other cameras' centers; a zero image, of
    # a center it shares, rules out no point.
    center_images = [
        [img for j, c in enumerate(config._int_centers) if j != i and any(img := _image(cam, c))]
        for i, cam in enumerate(config._rows)
    ]
    results = []
    for rng in _trial_rngs(rng_seed, trials):
        # Forms through an image do not depend on its scale.
        images = _random_world_images(config, center_images, rng)
        forms = [
            forms_through(rng, image, b) if b else () for image, b in zip(images, beta)
        ]
        results.append(_fiber_size(config, _pullback_rows(config, forms)))
    return results


def sz_membership(
    config: CameraConfiguration,
    beta,
    candidate,
    trials: int,
    rng_seed: int,
) -> bool:
    """Sampled membership test for the always-incident locus of profile beta.

    Returns True iff the incidence form vanishes on every sampled tuple of
    spaces through the candidate's coordinates: codimension-2 slots are the
    coordinate itself, codimension-1 slots random lines through it.  Each
    trial is one 4x4 determinant of pulled-back rows (:func:`_laplace`), the
    residual of those spaces: a codimension-2 slot pulls back the two forms
    of :func:`_forms_vanishing_at`, whose cross product is a nonzero multiple
    of the coordinate, so the determinant is a nonzero multiple of the
    multifocal tensor contracted with the coordinates and the lines.

    False answers are exact; a non-member is called a member with
    probability at most ``(m * 20/440)^t``, for m slots with beta_i = 1 and t
    trials, taking the seeded draws as uniform and independent (with m = 0 a
    trial draws nothing, so the answer is exact).  Such a slot's line is
    ``u * b0 + v * b1`` over the basis of :func:`_forms_vanishing_at`, with
    (u, v) uniform on the 440 nonzero pairs of [-10, 10]^2, as
    :func:`_forms_spanned_by` redraws only (0, 0).  Off the locus the
    residual is a nonzero polynomial, linear in each pair, and a nonzero
    ``a * u + b * v`` vanishes on at most 20 of the 440 pairs, those on one
    line through the origin.  The Schwartz-Zippel lemma (Schwartz, J. ACM
    1980), taken one pair at a time, bounds a trial's miss by ``m * 20/440``.
    """
    beta = _tensor_profile(config.k, beta)
    # A point is defined only up to scale, so one scale serves.
    candidate, _ = integer_rows(candidate, 3)
    if len(candidate) != config.k:
        raise PreconditionError(f"candidate and tensor must have {config.k} slots")
    if not all(map(any, candidate)):
        raise PreconditionError("candidate coordinates must be nonzero")
    # The forms through each coordinate: both on a codimension-2 slot, one
    # random combination of them on a codimension-1 slot.
    bases = [_forms_vanishing_at(x) for x in candidate]
    for rng in _trial_rngs(rng_seed, trials):
        forms = [
            basis if b == 2 else _forms_spanned_by(rng, basis, 1) for basis, b in zip(bases, beta)
        ]
        r0, r1, r2, r3 = _pullback_rows(config, forms)
        if _laplace(_minors(r0, r1), _minors(r2, r3)):
            return False
    return True
