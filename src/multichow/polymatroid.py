"""Set functions recording dimensions of coordinate projections.

A subvariety of a product of projective spaces induces the function
``delta(I) = dim`` of its projection to the factors indexed by ``I``.  Such
functions are normalized (``delta(empty) = 0``), monotone and submodular,
i.e. they are discrete polymatroid rank functions.  This module validates
those axioms, converts between rank functions and multidegree supports, and
classifies slicing-codimension profiles ``beta`` (1-deficient / circuit /
determining).  The criteria and enumerations live on :class:`Polymatroid`,
which validates its rank function once, when it is built; the module-level
functions of the same names build one per call.

Subsets of ``{1, ..., k}`` are encoded as bitmasks (bit ``i-1`` for element
``i``), and every subset-quantified check enumerates all ``2**k`` subsets
(or ``O(2**k * k**2)`` local conditions), so the intended regime is small
``k``; the hard cap is ``k <= 24``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import PreconditionError, array, field, ints

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

    def value(self, mask: int) -> int:
        return self.values[mask]

    def of(self, indices: Iterable[int]) -> int:
        return self.values[mask_of(indices, self.k)]

    @classmethod
    def from_subset_values(cls, k: int, table: dict[frozenset, int]) -> "RankFunction":
        values = []
        for mask in range(1 << k):
            key = frozenset(indices_of(mask))
            if key not in table:
                raise PreconditionError(f"missing subset {sorted(key)}")
            values.append(table[key])
        return cls(k, tuple(values))

    @classmethod
    def from_json(cls, obj) -> "RankFunction":
        """Parse ``{"k": int, "values": [{"subset": [...], "delta": int}]}``.

        Subsets are 1-based index lists; each of the ``2**k`` subsets must
        appear exactly once.
        """
        k = field(obj, "k", int)
        if not 1 <= k <= MAX_K:
            raise PreconditionError(f"k must be in 1..{MAX_K}")
        values: list = [None] * (1 << k)
        for entry in field(obj, "values", array):
            mask = field(entry, "subset", lambda subset: mask_of(ints(subset), k))
            if values[mask] is not None:
                raise PreconditionError(
                    f"subset {list(indices_of(mask))} appears more than once"
                )
            values[mask] = field(entry, "delta", int)
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
class BetaVector:
    """Codimension profile of a tuple of slicing linear spaces."""

    beta: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(int(b) for b in self.beta))

    @property
    def k(self) -> int:
        return len(self.beta)

    @property
    def total(self) -> int:
        return sum(self.beta)

    def alpha(self, sig: SpaceSignature) -> tuple[int, ...]:
        """Dimensions n_i - beta_i of the slicing spaces themselves."""
        return tuple(n - b for n, b in zip(sig.n, self.beta))

    def sum_over(self, mask: int) -> int:
        return sum(self.beta[i] for i in range(self.k) if mask >> i & 1)

    def check_range(self, sig: SpaceSignature, total: int | None = None) -> None:
        if self.k != sig.k:
            raise PreconditionError(
                f"beta has {self.k} entries but signature has {sig.k} factors"
            )
        for i, b in enumerate(self.beta):
            if not 0 <= b <= sig.n[i]:
                raise PreconditionError(
                    f"beta_{i + 1}={b} out of range 0..{sig.n[i]}"
                )
        if total is not None and self.total != total:
            raise PreconditionError(
                f"|beta|={self.total}, expected {total}"
            )


def as_beta(beta) -> BetaVector:
    return beta if isinstance(beta, BetaVector) else BetaVector(tuple(beta))


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
    """Check the polymatroid axioms plus the ambient bound.

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


@dataclass(frozen=True)
class Polymatroid:
    """A rank function validated against a signature, once.

    Construction checks the polymatroid axioms, the ambient bound and
    ``delta(full) = r``; the criteria and enumerations below rely on that
    and check only their own arguments.
    """

    sig: SpaceSignature
    delta: RankFunction

    def __post_init__(self):
        report = validate_rank_function(self.sig, self.delta)
        if not report.ok:
            first = report.violations[0]
            raise PreconditionError(
                f"invalid rank function: {first.axiom} fails at "
                f"I={list(first.subset_i)}"
                + (f", J={list(first.subset_j)}" if first.subset_j is not None else "")
            )
        if self.delta.values[-1] != self.sig.r:
            raise PreconditionError(
                f"delta(full set)={self.delta.values[-1]} must equal r={self.sig.r}"
            )

    def _beta_sums(self, beta) -> list[int]:
        beta = as_beta(beta)
        beta.check_range(self.sig, total=self.sig.r + 1)
        return subset_sums(beta.beta)

    def is_one_deficient(self, beta) -> bool:
        """|beta_I| <= delta(I) + 1 for every subset I.

        Exactly the condition for the incidence locus cut by spaces of
        codimension profile beta to be a hypersurface.
        """
        sums = self._beta_sums(beta)
        return all(s <= d + 1 for s, d in zip(sums, self.delta.values))

    def minimal_tight_set(self, beta) -> tuple[int, ...]:
        """The unique nonempty J with |beta_I| = delta(I)+1 iff I contains J.

        Computed as the intersection of all tight subsets; the full set is
        always tight since |beta| = r + 1, and the intersection of two tight
        sets is again tight by submodularity.
        """
        if not self.is_one_deficient(beta):
            raise PreconditionError("beta is not 1-deficient")
        mask = (1 << self.sig.k) - 1
        for tight in tight_sets(self.sig, self.delta, beta):
            mask &= tight
        return indices_of(mask)

    def is_circuit(self, beta) -> bool:
        """True iff beta is positive, 1-deficient, and only the full set is
        tight.

        Since the full set is tight, this says |beta_I| <= delta(I) for every
        proper nonempty subset (plus positivity), which is the condition for
        the incidence hypersurface to determine the variety.
        """
        sums = self._beta_sums(beta)
        values = self.delta.values
        return all(sums[1 << i] > 0 for i in range(self.sig.k)) and all(
            sums[mask] <= values[mask] for mask in range(1, len(sums) - 1)
        )

    def support(self) -> tuple[tuple[int, ...], ...]:
        """All exponent vectors gamma compatible with the projection
        dimensions, in lexicographic order: 0 <= gamma_i <= n_i and
        sum_{i in I}(n_i - gamma_i) <= delta(I) for every I, with equality
        on the full set.  Enumerated on the first call and kept."""
        if "_support" not in self.__dict__:
            n, values = self.sig.n, self.delta.values
            support = tuple(
                gamma
                for gamma in profiles(n, self.sig.codim())
                if all(
                    drop <= d
                    for drop, d in zip(subset_sums(a - g for a, g in zip(n, gamma)), values)
                )
            )
            object.__setattr__(self, "_support", support)
        return self._support

    def betas(self, criterion: str) -> tuple[BetaVector, ...]:
        """All in-range beta with |beta| = r+1 passing the chosen criterion,
        in lexicographic order: ``"hypersurface"`` keeps the 1-deficient
        ones, ``"determining"`` the circuits."""
        keep = {"hypersurface": self.is_one_deficient, "determining": self.is_circuit}
        if criterion not in keep:
            raise PreconditionError(f"unknown criterion {criterion!r}")
        candidates = map(BetaVector, profiles(self.sig.n, self.sig.r + 1))
        return tuple(beta for beta in candidates if keep[criterion](beta))


def support_from_projections(
    sig: SpaceSignature, delta: RankFunction
) -> tuple[tuple[int, ...], ...]:
    """See :meth:`Polymatroid.support`."""
    return Polymatroid(sig, delta).support()


def projections_from_support(sig: SpaceSignature, support: Iterable) -> RankFunction:
    """Recover delta(I) = max over gamma of sum_{i in I}(n_i - gamma_i).

    Inverts :func:`support_from_projections` whenever the support is the full
    set of lattice points it would produce (in particular for supports of
    actual irreducible varieties).
    """
    support = [tuple(int(g) for g in gamma) for gamma in support]
    if not support:
        raise PreconditionError("rank function undefined for empty support")
    k = sig.k
    codim = sig.codim()
    values = [0] * (1 << k)
    for gamma in support:
        if len(gamma) != k:
            raise PreconditionError(f"gamma {gamma} has wrong length")
        if any(not 0 <= g <= n for g, n in zip(gamma, sig.n)):
            raise PreconditionError(f"gamma {gamma} out of range for n={sig.n}")
        if sum(gamma) != codim:
            raise PreconditionError(
                f"gamma {gamma} has total degree {sum(gamma)}, expected {codim}"
            )
        drops = subset_sums(n - g for n, g in zip(sig.n, gamma))
        values = [max(v, d) for v, d in zip(values, drops)]
    return RankFunction(k, tuple(values))


def is_one_deficient(sig: SpaceSignature, delta: RankFunction, beta) -> bool:
    """See :meth:`Polymatroid.is_one_deficient`."""
    return Polymatroid(sig, delta).is_one_deficient(beta)


def tight_sets(sig: SpaceSignature, delta: RankFunction, beta) -> tuple[int, ...]:
    """Bitmasks of all subsets with |beta_I| = delta(I) + 1."""
    sums = subset_sums(as_beta(beta).beta)
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
) -> tuple[BetaVector, ...]:
    """See :meth:`Polymatroid.betas`."""
    return Polymatroid(sig, delta).betas(criterion)
