"""Set functions recording dimensions of coordinate projections.

A subvariety of a product of projective spaces induces the function
``delta(I) = dim`` of its projection to the factors indexed by ``I``.  Such
functions are normalized (``delta(empty) = 0``), monotone and submodular,
i.e. they are discrete polymatroid rank functions.  This module validates
those axioms, converts between rank functions and multidegree supports, and
classifies slicing-codimension profiles ``beta`` (1-deficient / circuit /
determining).  A :class:`Polymatroid` holds only the support; the criteria
and enumerations live on it, and the module-level functions of the same
names build one from a rank function per call.

A nonempty set S of exponents in the box ``0 <= gamma <= n`` with equal sum
is the support of a rank function exactly when it is M-convex: a finite set
of lattice points of equal sum is the point set of an integral polymatroid
base polytope exactly when it satisfies the exchange axiom, for
x, y in S and i with ``x_i > y_i`` there is a j with ``x_j < y_j`` such that
``x - e_i + e_j`` and ``y + e_i - e_j`` are both in S (Murota, *Discrete
Convex Analysis*, SIAM 2003, ch. 4).  The rank function is then
``delta(I) = max over gamma in S of sum_{i in I}(n_i - gamma_i)``, and its
support is S again; ``gamma -> n - gamma`` preserves the axiom.  So
:meth:`Polymatroid.from_support` checks a support with no rank-function
table, running x over one point per orbit of the factor permutations that
fix S when there are at most ``2**k / (2k)`` orbits, and through the dense
round trip otherwise.

The criteria read the support at the k exponents ``alpha + e_j``, where
``alpha = n - beta``: j lies in the minimal tight set of beta exactly when
``alpha + e_j`` is in the support.  If it is, ``beta - e_j`` meets every
support inequality, so beta is 1-deficient and no set missing j is tight.
Conversely the tight sets of a 1-deficient beta are closed under
intersection (submodularity); take j in their intersection J.  Then
``beta_j > 0``, else ``J - j`` would be tight (monotonicity), and no set
missing j is tight, so ``beta - e_j`` is at most delta on every subset.

A profile (a codimension profile ``beta`` or an exponent ``gamma``) is a
plain integer tuple with one entry per factor;
:meth:`SpaceSignature.check_profile` is the one check of its length, range
and total.

Subsets of ``{1, ..., k}`` are encoded as bitmasks (bit ``i-1`` for element
``i``).  Validating an explicit rank function, enumerating its support and
recovering the projections from a support scan all ``2**k`` subsets; the
exchange test does not, and the hard cap is ``k <= 24``.  Each criterion is
k lookups in the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Iterable

from .errors import PreconditionError, array, field, integer, ints

MAX_K = 24


def mask_of(indices: Iterable[int], k: int) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= k:
            raise PreconditionError(f"subset element {i} out of range 1..{k}")
        mask |= 1 << (i - 1)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class SpaceSignature:
    """Ambient product of projective spaces plus the subvariety dimension.

    ``n`` lists the factor dimensions; ``r`` is the dimension of the
    subvariety (or cycle) living inside the product.
    """

    n: tuple[int, ...]
    r: int

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(x) for x in self.n))
        if not self.n:
            raise PreconditionError("need at least one factor")
        if len(self.n) > MAX_K:
            raise PreconditionError(f"at most {MAX_K} factors supported")
        if any(x < 0 for x in self.n):
            raise PreconditionError("factor dimensions must be non-negative")
        if not 0 <= self.r <= sum(self.n):
            raise PreconditionError("dimension r out of range")

    @property
    def k(self) -> int:
        return len(self.n)

    def codim(self) -> int:
        return sum(self.n) - self.r

    def check_profile(self, vec, total: int) -> tuple[int, ...]:
        """``vec`` as an integer tuple, checked to have one entry per factor,
        ``0 <= vec_i <= n_i`` and ``sum(vec) == total``; an entry that
        ``int`` would change (1.5, ``"2"``) is refused, not truncated."""
        entries = tuple(vec)
        vec = tuple(map(int, entries))
        if vec != entries:
            raise PreconditionError(f"profile {list(entries)} needs integer entries")
        if len(vec) != self.k:
            raise PreconditionError(f"profile {vec} needs {self.k} entries, one per factor")
        for i, (v, n) in enumerate(zip(vec, self.n)):
            if not 0 <= v <= n:
                raise PreconditionError(f"entry {i + 1} of {vec} out of range 0..{n}")
        if sum(vec) != total:
            raise PreconditionError(f"profile {vec} sums to {sum(vec)}, expected {total}")
        return vec

    def criterion_exponents(self, beta) -> tuple[tuple[int, ...], ...]:
        """The k exponents ``alpha + e_j``, ``alpha = n - beta``, of a checked
        ``beta`` with ``|beta| = r + 1``; the j-th leaves the exponent box
        exactly when ``beta_j = 0``."""
        alpha = tuple(n - b for n, b in zip(self.n, self.check_profile(beta, self.r + 1)))
        return tuple(alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:] for j in range(self.k))


@dataclass(frozen=True)
class RankFunction:
    """Integer set function on subsets of ``{1,...,k}``, stored densely.

    ``values[mask]`` is the value on the subset encoded by ``mask``; nothing
    about the axioms is enforced here -- use :func:`validate_rank_function`.
    """

    k: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if not 1 <= self.k <= MAX_K:
            raise PreconditionError(f"k must be in 1..{MAX_K}")
        if len(self.values) != 1 << self.k:
            raise PreconditionError(
                f"rank function on k={self.k} needs {1 << self.k} values, "
                f"got {len(self.values)}"
            )

    @classmethod
    def from_json(cls, obj) -> "RankFunction":
        """Parse ``{"k": int, "values": [{"subset": [...], "delta": int}]}``.

        Subsets are 1-based index lists; each of the ``2**k`` subsets must
        appear exactly once.
        """
        k = field(obj, "k", integer)
        if not 1 <= k <= MAX_K:
            raise PreconditionError(f"k must be in 1..{MAX_K}")
        values: list = [None] * (1 << k)
        for entry in field(obj, "values", array):
            mask = field(entry, "subset", lambda subset: mask_of(ints(subset), k))
            if values[mask] is not None:
                raise PreconditionError(
                    f"subset {list(indices_of(mask))} appears more than once"
                )
            values[mask] = field(entry, "delta", integer)
        missing = [mask for mask, v in enumerate(values) if v is None]
        if missing:
            raise PreconditionError(
                f"subset {list(indices_of(missing[0]))} missing from rank function"
            )
        return cls(k, tuple(values))

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "values": [
                {"subset": list(indices_of(mask)), "delta": self.values[mask]}
                for mask in range(1 << self.k)
            ],
        }


@dataclass(frozen=True)
class Violation:
    axiom: str
    subset_i: tuple[int, ...]
    subset_j: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {
                    "axiom": v.axiom,
                    "I": list(v.subset_i),
                    "J": list(v.subset_j) if v.subset_j is not None else None,
                }
                for v in self.violations
            ],
        }


def validate_rank_function(sig: SpaceSignature, delta: RankFunction) -> ValidationReport:
    """Check the polymatroid axioms, the ambient bound and, as the axiom
    ``"rank"`` on the full set, ``delta(full) = r``.

    Monotonicity and submodularity are checked through their single-element
    local forms, which are equivalent to the quantified axioms; each reported
    violation carries a witnessing pair of subsets.
    """
    if delta.k != sig.k:
        raise PreconditionError(
            f"rank function on k={delta.k} does not match signature k={sig.k}"
        )
    k = sig.k
    violations: list[Violation] = []
    if delta.values[0] != 0:
        violations.append(Violation("normalization", (), None))
    bounds = subset_sums(sig.n)
    for mask in range(1 << k):
        if delta.values[mask] > bounds[mask]:
            violations.append(Violation("bounded", indices_of(mask), None))
        outside = [i for i in range(k) if not mask >> i & 1]
        for idx, i in enumerate(outside):
            with_i = mask | 1 << i
            if delta.values[mask] > delta.values[with_i]:
                violations.append(
                    Violation("monotone", indices_of(mask), indices_of(with_i))
                )
            for j in outside[idx + 1:]:
                with_j = mask | 1 << j
                if (
                    delta.values[with_i] + delta.values[with_j]
                    < delta.values[with_i | with_j] + delta.values[mask]
                ):
                    violations.append(
                        Violation(
                            "submodular", indices_of(with_i), indices_of(with_j)
                        )
                    )
    if delta.values[-1] != sig.r:
        violations.append(Violation("rank", indices_of((1 << k) - 1), None))
    return ValidationReport(not violations, tuple(violations))


def profiles(bounds, total: int):
    """Integer vectors x with 0 <= x_i <= bounds[i] and sum(x) = total, in
    lexicographic order; coordinates are assigned left to right, and only
    values that leave the remaining total reachable are tried."""
    bounds = tuple(bounds)
    room = [sum(bounds[i:]) for i in range(len(bounds) + 1)]
    prefix: list[int] = []

    def extend(i: int, left: int):
        if i == len(bounds):
            yield tuple(prefix)
            return
        for x in range(max(0, left - room[i + 1]), min(bounds[i], left) + 1):
            prefix.append(x)
            yield from extend(i + 1, left - x)
            prefix.pop()

    if 0 <= total <= room[0]:
        yield from extend(0, total)


def subset_sums(vec) -> list[int]:
    """``sums[mask]`` = the sum of ``vec[i]`` over the bits ``i`` of ``mask``."""
    sums = [0]
    for x in vec:
        sums += [s + x for s in sums]
    return sums


def _swapped(x: tuple, a: int, b: int) -> tuple:
    """``x`` with entries ``a < b`` exchanged."""
    return x[:a] + (x[b],) + x[a + 1:b] + (x[a],) + x[b + 1:]


def _factor_classes(sig: SpaceSignature, points: frozenset) -> list[list[int]]:
    """Classes of factors that permute freely without changing ``points``.

    Only factors with equal ``n_i`` can be exchanged.  Within each group of
    them, the transposition of consecutive members is tested on every point;
    a run of members joined by symmetries is a class, since connected
    transpositions generate the full symmetric group on it.  Symmetries this
    misses cost time in the exchange test, never its answer.
    """
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(sig.n):
        groups.setdefault(n, []).append(i)
    classes = []
    for members in groups.values():
        run = [members[0]]
        for a, b in zip(members, members[1:]):
            if all(x[a] == x[b] or _swapped(x, a, b) in points for x in points):
                run.append(b)
            else:
                classes.append(run)
                run = [b]
        classes.append(run)
    return [run for run in classes if len(run) > 1]


def _orbit_representatives(points: frozenset, classes, limit: int) -> set | None:
    """One point per orbit of ``points`` under the permutations of each
    class, its entries on a class sorted in decreasing order; ``None`` as
    soon as there are more than ``limit`` orbits."""
    representatives = set()
    for x in points:
        rep = list(x)
        for members in classes:
            for i, v in zip(members, sorted([x[i] for i in members], reverse=True)):
                rep[i] = v
        representatives.add(tuple(rep))
        if len(representatives) > limit:
            return None
    return representatives


def _step(x: tuple, i: int, j: int) -> tuple:
    """``x - e_i + e_j``."""
    y = list(x)
    y[i] -= 1
    y[j] += 1
    return tuple(y)


def _exchange_holds(points: frozenset, representatives) -> bool:
    """The exchange axiom on ``points`` for x among ``representatives``:
    for every y in ``points`` and i with ``x_i > y_i`` there is a j with
    ``x_j < y_j`` such that ``x - e_i + e_j`` and ``y + e_i - e_j`` are both
    in ``points``.  With the representatives of every orbit of a symmetry
    group of ``points`` this is the whole axiom, since a symmetry carries
    the witnesses of x to those of its image.  The steps ``x - e_i + e_j``
    into ``points`` are listed once per x.
    """
    k = len(next(iter(points)))
    for x in representatives:
        moves = [
            [j for j in range(k) if _step(x, i, j) in points] if x[i] else []
            for i in range(k)
        ]
        for y in points:
            for i in range(k):
                if x[i] > y[i] and not any(
                    x[j] < y[j] and _step(y, j, i) in points for j in moves[i]
                ):
                    return False
    return True


class Polymatroid:
    """Projection dimensions, held as their support.

    ``Polymatroid(sig, delta)`` keeps the support of an explicit rank
    function from :func:`support_from_projections`, which validates it
    first.  :meth:`from_support` checks a support instead (see the module
    docstring).  No rank function is kept; :func:`projections_from_support`
    recovers it.  The criteria and enumerations below read only the support
    and check only their own arguments.
    """

    def __init__(self, sig: SpaceSignature, delta: RankFunction):
        self._keep(sig, support_from_projections(sig, delta))

    @classmethod
    def from_support(cls, sig: SpaceSignature, support) -> "Polymatroid":
        """The polymatroid whose support is ``support``, a nonempty set of
        exponents already checked against ``sig``; raises
        :class:`PreconditionError` when no rank function has it as support.

        Two checks give the same answer: the exchange axiom over the orbits
        of the detected factor symmetries, about ``2 * |orbits| * k`` support
        scans, or the dense round trip through :func:`projections_from_support`,
        about ``2**k`` steps per support point.  The exchange test runs when
        ``2 * |orbits| * k <= 2**k``, counting the orbits in one pass that
        stops past that bound; else the round trip runs.
        """
        support = tuple(sorted(support))
        if not support:
            raise PreconditionError("empty support")
        points = frozenset(support)
        limit = (1 << sig.k) // (2 * sig.k)
        representatives = _orbit_representatives(points, _factor_classes(sig, points), limit)
        if representatives is None:
            if support_from_projections(sig, projections_from_support(sig, support)) != support:
                raise PreconditionError("support differs from the support of its projections")
        elif not _exchange_holds(points, representatives):
            raise PreconditionError("support fails the exchange axiom")
        polymatroid = object.__new__(cls)
        polymatroid._keep(sig, support)
        return polymatroid

    def _keep(self, sig: SpaceSignature, support: tuple) -> None:
        self.sig = sig
        self._support = support
        self._support_set = frozenset(support)

    def _tight(self, beta) -> list[bool]:
        """Whether each criterion exponent ``alpha + e_j`` of ``beta`` is in
        the support, that is, whether j is in the minimal tight set."""
        return [gamma in self._support_set for gamma in self.sig.criterion_exponents(beta)]

    def is_one_deficient(self, beta) -> bool:
        """|beta_I| <= delta(I) + 1 for every subset I.

        Exactly the condition for the incidence locus cut by spaces of
        codimension profile beta to be a hypersurface.
        """
        return any(self._tight(beta))

    def minimal_tight_set(self, beta) -> tuple[int, ...]:
        """The unique nonempty J with |beta_I| = delta(I)+1 iff I contains J:
        the intersection of all tight subsets (see the module docstring)."""
        tight = self._tight(beta)
        if not any(tight):
            raise PreconditionError("beta is not 1-deficient")
        return tuple(j + 1 for j, t in enumerate(tight) if t)

    def is_circuit(self, beta) -> bool:
        """True iff beta is positive, 1-deficient, and only the full set is
        tight.

        Since the full set is tight, this says |beta_I| <= delta(I) for every
        proper nonempty subset (plus positivity), which is the condition for
        the incidence hypersurface to determine the variety.
        """
        return all(self._tight(beta))

    def support(self) -> tuple[tuple[int, ...], ...]:
        """The exponent vectors of :func:`support_from_projections`, in
        lexicographic order; kept at construction."""
        return self._support

    def betas(self, criterion: str) -> tuple[tuple[int, ...], ...]:
        """All in-range beta with |beta| = r+1 passing the chosen criterion,
        in lexicographic order: ``"hypersurface"`` keeps the 1-deficient
        ones, ``"determining"`` the circuits."""
        keep = {"hypersurface": self.is_one_deficient, "determining": self.is_circuit}
        if criterion not in keep:
            raise PreconditionError(f"unknown criterion {criterion!r}")
        candidates = profiles(self.sig.n, self.sig.r + 1)
        return tuple(beta for beta in candidates if keep[criterion](beta))


def support_from_projections(
    sig: SpaceSignature, delta: RankFunction
) -> tuple[tuple[int, ...], ...]:
    """The exponents gamma with 0 <= gamma_i <= n_i and
    sum_{i in I}(n_i - gamma_i) <= delta(I) for every I, with equality on the
    full set, in lexicographic order; raises the first violation that
    :func:`validate_rank_function` finds in ``delta``."""
    report = validate_rank_function(sig, delta)
    if not report.ok:
        first = report.violations[0]
        raise PreconditionError(
            f"invalid rank function: {first.axiom} fails at "
            f"I={list(first.subset_i)}"
            + (f", J={list(first.subset_j)}" if first.subset_j is not None else "")
        )
    n, values = sig.n, delta.values
    return tuple(
        gamma
        for gamma in profiles(n, sig.codim())
        if all(map(le, subset_sums(a - g for a, g in zip(n, gamma)), values))
    )


def projections_from_support(sig: SpaceSignature, support: Iterable) -> RankFunction:
    """Recover delta(I) = max over gamma of sum_{i in I}(n_i - gamma_i).

    Inverts :func:`support_from_projections` whenever the support is the full
    set of lattice points it would produce (in particular for supports of
    actual irreducible varieties).
    """
    support = [sig.check_profile(gamma, sig.codim()) for gamma in support]
    if not support:
        raise PreconditionError("rank function undefined for empty support")
    values = [0] * (1 << sig.k)
    for gamma in support:
        drops = subset_sums(n - g for n, g in zip(sig.n, gamma))
        values = [max(v, d) for v, d in zip(values, drops)]
    return RankFunction(sig.k, tuple(values))


def is_one_deficient(sig: SpaceSignature, delta: RankFunction, beta) -> bool:
    """See :meth:`Polymatroid.is_one_deficient`."""
    return Polymatroid(sig, delta).is_one_deficient(beta)


def tight_sets(sig: SpaceSignature, delta: RankFunction, beta) -> tuple[int, ...]:
    """Bitmasks of all subsets with |beta_I| = delta(I) + 1."""
    sums = subset_sums(sig.check_profile(beta, sig.r + 1))
    return tuple(
        mask for mask, (s, d) in enumerate(zip(sums, delta.values)) if s == d + 1
    )


def minimal_tight_set(sig: SpaceSignature, delta: RankFunction, beta) -> tuple[int, ...]:
    """See :meth:`Polymatroid.minimal_tight_set`."""
    return Polymatroid(sig, delta).minimal_tight_set(beta)


def is_circuit(sig: SpaceSignature, delta: RankFunction, beta) -> bool:
    """See :meth:`Polymatroid.is_circuit`."""
    return Polymatroid(sig, delta).is_circuit(beta)


def enumerate_beta(
    sig: SpaceSignature, delta: RankFunction, criterion: str
) -> tuple[tuple[int, ...], ...]:
    """See :meth:`Polymatroid.betas`."""
    return Polymatroid(sig, delta).betas(criterion)
