"""Sparse multidegrees and the incidence-form criteria they encode.

A multidegree is a homogeneous polynomial sum a_gamma * t^gamma of total
degree equal to the codimension; a_gamma counts intersection points with a
product of general linear spaces of dimensions gamma_i.  The coefficients
a_{alpha + e_j} read off both whether the incidence locus cut by spaces of
codimension profile beta is a hypersurface and the degrees of the polynomial
cutting it out.

Coefficients are arbitrary-precision integers.  A multidegree is tagged
``"variety"`` when its support passes the polymatroid consistency round-trip
(a necessary condition for coming from an irreducible variety) and
``"cycle"`` otherwise; the criteria operations whose meaning assumes
irreducibility refuse cycle-tagged inputs.

Note: the multiplicity splitting the full incidence form into (reduced form,
multiplicity) is not derivable from a multidegree alone; this module only
exposes the degree of the full form.  The multiplicity is estimated
separately by the fiber-counting oracle in :mod:`multichow.multiview`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    CycleInputError,
    InapplicableError,
    PreconditionError,
    array,
    decimal,
    field,
    ints,
)
from .polymatroid import (
    Polymatroid,
    RankFunction,
    SpaceSignature,
    as_beta,
    mask_of,
    projections_from_support,
)

VARIETY = "variety"
CYCLE = "cycle"


def _consistent_polymatroid(sig: SpaceSignature, support: tuple) -> Polymatroid | None:
    """Round trip of a sorted support -> projection dims -> support; the
    validated projection dimensions when the support comes back unchanged,
    else ``None``."""
    if not support:
        return None
    try:
        polymatroid = Polymatroid(sig, projections_from_support(sig, support))
    except PreconditionError:
        return None
    return polymatroid if polymatroid.support() == support else None


@dataclass(frozen=True)
class Multidegree:
    """Sparse map gamma -> a_gamma with strictly positive coefficients."""

    sig: SpaceSignature
    coeffs: Mapping[tuple, int]
    tag: str = VARIETY

    def __post_init__(self):
        if self.tag not in (VARIETY, CYCLE):
            raise PreconditionError(f"unknown tag {self.tag!r}")
        codim = self.sig.codim()
        clean = {}
        for gamma, a in self.coeffs.items():
            gamma = tuple(int(g) for g in gamma)
            a = int(a)
            if len(gamma) != self.sig.k:
                raise PreconditionError(f"gamma {gamma} has wrong length")
            if any(not 0 <= g <= n for g, n in zip(gamma, self.sig.n)):
                raise PreconditionError(f"gamma {gamma} out of range")
            if sum(gamma) != codim:
                raise PreconditionError(
                    f"gamma {gamma} has total degree {sum(gamma)}, expected {codim}"
                )
            if a <= 0:
                raise PreconditionError(
                    f"coefficient at {gamma} must be positive, got {a}"
                )
            clean[gamma] = a
        object.__setattr__(self, "coeffs", clean)
        polymatroid = None
        if self.tag == VARIETY:
            polymatroid = _consistent_polymatroid(self.sig, self.support())
            if polymatroid is None:
                raise PreconditionError(
                    "support fails the polymatroid consistency check; "
                    "construct with tag='cycle' for reducible/cycle-level data"
                )
        object.__setattr__(self, "_polymatroid", polymatroid)

    def support(self) -> tuple[tuple, ...]:
        return tuple(sorted(self.coeffs))

    def coefficient(self, gamma) -> int:
        """a_gamma; out-of-range or absent exponents give 0."""
        return self.coeffs.get(tuple(gamma), 0)

    def rank_function(self) -> RankFunction:
        """Projection dimensions read off the support; for a variety, the
        ones its round trip validated."""
        if self._polymatroid is not None:
            return self._polymatroid.delta
        return projections_from_support(self.sig, self.support())

    def polymatroid(self) -> Polymatroid:
        """The projection dimensions, validated: kept from the round trip
        for a variety, validated on each call for a cycle."""
        if self._polymatroid is not None:
            return self._polymatroid
        return Polymatroid(self.sig, self.rank_function())

    @classmethod
    def from_json(cls, obj) -> "Multidegree":
        sig = SpaceSignature(field(obj, "n", ints), field(obj, "r", int))
        coeffs = {}
        for entry in field(obj, "coefficients", array):
            gamma = field(entry, "gamma", ints)
            if gamma in coeffs:
                raise PreconditionError(f"gamma {gamma} appears more than once")
            coeffs[gamma] = field(entry, "a", lambda a: int(str(a)))
        return cls(sig, coeffs, obj.get("tag", VARIETY))

    def to_json(self) -> dict:
        return {
            "n": list(self.sig.n),
            "r": self.sig.r,
            "coefficients": [
                {"gamma": list(gamma), "a": decimal(self.coeffs[gamma])}
                for gamma in self.support()
            ],
            "tag": self.tag,
        }


@dataclass(frozen=True)
class ChowDegree:
    """Degree of the incidence form in each group of Pluecker variables."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if any(d < 0 for d in self.degrees):
            raise PreconditionError("degrees must be non-negative")


def criterion_form(md: Multidegree, beta) -> tuple[int, ...]:
    """Coefficient vector (a_{alpha+e_1}, ..., a_{alpha+e_k}).

    The linear form with these coefficients is nonzero iff the incidence
    locus is a hypersurface, and has full support iff it determines the
    variety.  Entries where alpha + e_j falls outside the exponent box are 0.
    """
    beta = as_beta(beta)
    beta.check_range(md.sig, total=md.sig.r + 1)
    alpha = beta.alpha(md.sig)
    out = []
    for j in range(md.sig.k):
        gamma = tuple(a + (1 if i == j else 0) for i, a in enumerate(alpha))
        if gamma[j] > md.sig.n[j]:
            out.append(0)
        else:
            out.append(md.coefficient(gamma))
    return tuple(out)


def _require_variety(md: Multidegree, op: str) -> None:
    if md.tag != VARIETY:
        raise CycleInputError(
            f"{op} is only meaningful for irreducible-variety multidegrees; "
            "got a cycle-tagged input"
        )


def is_hypersurface(md: Multidegree, beta) -> bool:
    """True iff some coefficient a_{alpha+e_j} is nonzero."""
    _require_variety(md, "is_hypersurface")
    return any(c != 0 for c in criterion_form(md, beta))


def determines_variety(md: Multidegree, beta) -> bool:
    """True iff every coefficient a_{alpha+e_j} is nonzero."""
    _require_variety(md, "determines_variety")
    return all(c != 0 for c in criterion_form(md, beta))


def chow_form_multidegree(md: Multidegree, beta) -> ChowDegree:
    """Degrees of the incidence form in each variable group.

    Defined for cycle-tagged inputs as well (the construction is linear in
    the cycle); raises when the form would be identically zero.
    """
    form = criterion_form(md, beta)
    if all(c == 0 for c in form):
        raise InapplicableError(
            "incidence locus is not a hypersurface for this beta"
        )
    return ChowDegree(form)


def slice_multidegree(md: Multidegree, subset: Iterable[int], beta) -> Multidegree:
    """Multidegree of the slice by general spaces in the factors of ``subset``.

    Fixing general linear spaces of codimension beta_i in each factor
    i in subset and pushing forward to the remaining factors drops the
    dimension by |beta_subset| and keeps exactly the coefficients whose
    exponent equals alpha_i = n_i - beta_i on the sliced factors.  The result
    is cycle-tagged (slices need not be irreducible); an empty result is the
    zero cycle.
    """
    beta = as_beta(beta)
    beta.check_range(md.sig, total=md.sig.r + 1)
    k = md.sig.k
    mask = mask_of(subset, k)
    if mask == 0:
        raise PreconditionError("subset must be nonempty")
    if mask == (1 << k) - 1:
        raise PreconditionError("subset must be a proper subset of the factors")
    sliced = [i for i in range(k) if mask >> i & 1]
    kept = [i for i in range(k) if not mask >> i & 1]
    new_r = md.sig.r - beta.sum_over(mask)
    if new_r < 0:
        raise PreconditionError(
            f"over-slicing: |beta_I|={beta.sum_over(mask)} exceeds r={md.sig.r}"
        )
    alpha = beta.alpha(md.sig)
    new_sig = SpaceSignature(tuple(md.sig.n[i] for i in kept), new_r)
    coeffs = {}
    for gamma, a in md.coeffs.items():
        if all(gamma[i] == alpha[i] for i in sliced):
            coeffs[tuple(gamma[i] for i in kept)] = a
    return Multidegree(new_sig, coeffs, CYCLE)


def multidegree_add(md1: Multidegree, md2: Multidegree) -> Multidegree:
    """Coefficient-wise sum; models taking the union as a cycle."""
    if md1.sig != md2.sig:
        raise PreconditionError(
            f"signature mismatch: {md1.sig} vs {md2.sig}"
        )
    coeffs = dict(md1.coeffs)
    for gamma, a in md2.coeffs.items():
        coeffs[gamma] = coeffs.get(gamma, 0) + a
    return Multidegree(md1.sig, coeffs, CYCLE)
