"""Sparse multidegrees and the incidence-form criteria they encode.

A multidegree is a homogeneous polynomial sum a_gamma * t^gamma of total
degree equal to the codimension; a_gamma counts intersection points with a
product of general linear spaces of dimensions gamma_i.  The coefficients
a_{alpha + e_j} read off both whether the incidence locus cut by spaces of
codimension profile beta is a hypersurface and the degrees of the polynomial
cutting it out.

Coefficients are arbitrary-precision integers.  A multidegree is tagged
``"variety"`` when its support passes the polymatroid consistency check, that
is, is the support of a polymatroid rank function (a necessary condition for
coming from an irreducible variety; see :mod:`multichow.polymatroid`), and
``"cycle"`` otherwise.  Only a variety has a polymatroid, and the criteria,
which assume irreducibility, read it from :meth:`Multidegree.polymatroid`.

Note: the multiplicity splitting the full incidence form into (reduced form,
multiplicity) is not derivable from a multidegree alone; this module only
exposes the degree of the full form.  The multiplicity is estimated
separately by the fiber-counting oracle in :mod:`multichow.multiview`.

Exponents ``gamma`` and profiles ``beta`` are plain integer tuples, checked
against the signature by :meth:`SpaceSignature.check_profile`; the degree
of the incidence form is returned as its coefficient tuple.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import is_

from .errors import (
    CycleInputError,
    InapplicableError,
    PreconditionError,
    array,
    decimal,
    exact_ints,
    field,
    integer,
    ints,
)
from .polymatroid import (
    Polymatroid,
    RankFunction,
    SpaceSignature,
    Value,
    mask_of,
    profiles,
    projections_from_support,
)

VARIETY = "variety"
CYCLE = "cycle"


class Multidegree(Value):
    """Sparse map gamma -> a_gamma with strictly positive coefficients."""

    def __post_init__(self, sig, coeffs, tag=VARIETY, *, _checked=False):
        """``_checked``: ``coeffs`` already maps in-range int tuples to positive ints."""
        if tag not in (VARIETY, CYCLE):
            raise PreconditionError(f"unknown tag {tag!r}")
        if not _checked:
            codim, gammas = sig.codim(), list(coeffs)
            values = exact_ints(coeffs.values(), "coefficients")
            if values and min(values) <= 0:
                first, a = next((i, a) for i, a in enumerate(values) if a <= 0)
                gamma = sig.check_profiles(gammas[:first + 1], codim)[first]
                raise PreconditionError(f"coefficient at {gamma} must be positive, got {a}")
            coeffs = dict(zip(sig.check_profiles(gammas, codim), values))
        self.sig, self.tag, self.coeffs = sig, tag, coeffs
        self._polymatroid = None
        if tag == VARIETY:
            try:
                self._polymatroid = Polymatroid.from_support(sig, coeffs)
            except PreconditionError:
                raise PreconditionError(
                    "support fails the polymatroid consistency check; "
                    "construct with tag='cycle' for reducible/cycle-level data"
                ) from None

    def _key(self):
        return self.sig, self.coeffs, self.tag

    def support(self) -> tuple[tuple, ...]:
        return tuple(sorted(self.coeffs))

    def coefficient(self, gamma) -> int:
        """a_gamma; out-of-range or absent exponents give 0."""
        return self.coeffs.get(tuple(gamma), 0)

    def rank_function(self) -> RankFunction:
        """Projection dimensions read off the support (``2**k`` values)."""
        return projections_from_support(self.sig, self.support())

    def polymatroid(self) -> Polymatroid:
        """The polymatroid the consistency check built, whose support is this
        one: the one gate of the criteria that assume an irreducible variety,
        so a cycle raises :class:`CycleInputError`."""
        if self._polymatroid is None:
            raise CycleInputError("the criteria assume a variety; got a cycle-tagged input")
        return self._polymatroid

    @classmethod
    def from_json(cls, obj) -> "Multidegree":
        """Read in one pass when each gamma is an array of ints in range and
        each ``a`` an int or a decimal string, no gamma repeated, checking the
        type of each entry once: gamma's in :meth:`SpaceSignature.check_profiles`,
        which returns int tuples as they are; else entry by entry."""
        sig = SpaceSignature(field(obj, "n", ints), field(obj, "r", integer))
        entries = field(obj, "coefficients", array)
        try:
            gammas = [entry["gamma"] for entry in entries]
            values = [entry["a"] for entry in entries]
            plain = {*map(type, gammas)} <= {list} and {*map(type, values)} <= {int, str}
            coeffs = dict(zip(map(tuple, gammas), map(int, values))) if plain else {}
            plain, gammas = plain and len(coeffs) == len(entries), list(coeffs)
            plain = plain and all(map(is_, sig.check_profiles(gammas, sig.codim()), gammas))
        except (KeyError, TypeError, ValueError, PreconditionError):
            plain = False
        if not plain:
            coeffs = {}
            for entry in entries:
                gamma = field(entry, "gamma", ints)
                if gamma in coeffs:
                    raise PreconditionError(f"gamma {gamma} appears more than once")
                coeffs[gamma] = field(entry, "a", integer)
        checked = plain and min(coeffs.values(), default=1) > 0
        return cls(sig, coeffs, obj.get("tag", VARIETY), _checked=checked)

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


def criterion_form(md: Multidegree, beta) -> tuple[int, ...]:
    """Coefficient vector (a_{alpha+e_1}, ..., a_{alpha+e_k}).

    The linear form with these coefficients is nonzero iff the incidence
    locus is a hypersurface, and has full support iff it determines the
    variety.  Entries where alpha + e_j falls outside the exponent box are 0.
    """
    alpha = tuple(n - b for n, b in zip(md.sig.n, md.sig.check_profile(beta, md.sig.r + 1)))
    return tuple(md.coefficient(alpha[:j] + (a + 1,) + alpha[j + 1:]) for j, a in enumerate(alpha))


def criterion_forms(md: Multidegree) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``(beta, criterion_form(md, beta))`` for every in-range beta with
    ``|beta| = r + 1``, in lexicographic order, by code lookups: the code of
    ``alpha + e_j`` is ``top - code(beta) + w_j``, in the box iff ``beta_j > 0``."""
    sig, top, betas = md.sig, md.sig.top, list(profiles(md.sig.n, md.sig.r + 1))
    coded = dict(zip(sig.encode(md.coeffs), md.coeffs.values()))
    return [
        (beta, tuple(coded.get(top - code + w, 0) if b else 0 for b, w in zip(beta, sig.places)))
        for beta, code in zip(betas, sig.encode(betas))
    ]


def is_hypersurface(md: Multidegree, beta) -> bool:
    """True iff some coefficient a_{alpha+e_j} is nonzero."""
    return bool(md.polymatroid().tight_set(beta))


def determines_variety(md: Multidegree, beta) -> bool:
    """True iff every coefficient a_{alpha+e_j} is nonzero."""
    return len(md.polymatroid().tight_set(beta)) == md.sig.k


def chow_form_multidegree(md: Multidegree, beta) -> tuple[int, ...]:
    """Degrees of the incidence form in each group of Pluecker variables.

    Defined for cycle-tagged inputs as well (the construction is linear in
    the cycle); raises when the form would be identically zero.
    """
    form = criterion_form(md, beta)
    if all(c == 0 for c in form):
        raise InapplicableError("incidence locus is not a hypersurface for this beta")
    return form


def slice_multidegree(md: Multidegree, subset: Iterable[int], beta) -> Multidegree:
    """Multidegree of the slice by general spaces in the factors of ``subset``.

    Fixing general linear spaces of codimension beta_i in each factor
    i in subset and pushing forward to the remaining factors drops the
    dimension by |beta_subset| and keeps exactly the coefficients whose
    exponent equals alpha_i = n_i - beta_i on the sliced factors.  The result
    is cycle-tagged (slices need not be irreducible); an empty result is the
    zero cycle.
    """
    beta = md.sig.check_profile(beta, md.sig.r + 1)
    k = md.sig.k
    mask = mask_of(subset, k)
    if mask == 0:
        raise PreconditionError("subset must be nonempty")
    if mask == (1 << k) - 1:
        raise PreconditionError("subset must be a proper subset of the factors")
    sliced = [i for i in range(k) if mask >> i & 1]
    kept = [i for i in range(k) if not mask >> i & 1]
    cut = sum(beta[i] for i in sliced)
    if cut > md.sig.r:
        raise PreconditionError(f"over-slicing: |beta_I|={cut} exceeds r={md.sig.r}")
    new_sig = SpaceSignature(tuple(md.sig.n[i] for i in kept), md.sig.r - cut)
    coeffs = {}
    for gamma, a in md.coeffs.items():
        if all(gamma[i] == md.sig.n[i] - beta[i] for i in sliced):
            coeffs[tuple(gamma[i] for i in kept)] = a
    return Multidegree(new_sig, coeffs, CYCLE, _checked=True)


def multidegree_add(md1: Multidegree, md2: Multidegree) -> Multidegree:
    """Coefficient-wise sum; models taking the union as a cycle."""
    if md1.sig != md2.sig:
        raise PreconditionError(f"signature mismatch: {md1.sig} vs {md2.sig}")
    coeffs = dict(md1.coeffs)
    for gamma, a in md2.coeffs.items():
        coeffs[gamma] = coeffs.get(gamma, 0) + a
    return Multidegree(md1.sig, coeffs, CYCLE, _checked=True)
