"""Set functions recording dimensions of coordinate projections.

A subvariety of a product of projective spaces induces the function
``delta(I) = dim`` of its projection to the factors indexed by ``I``.  Such
functions are normalized (``delta(empty) = 0``), monotone and submodular,
i.e. they are discrete polymatroid rank functions.  This module validates
those axioms, converts between rank functions and multidegree supports, and
classifies slicing-codimension profiles ``beta`` by their minimal tight set,
empty unless beta is 1-deficient.  A :class:`Polymatroid` holds only the
support, which :meth:`Polymatroid.tight_set` and the enumerations read; the
module-level criteria build one from a rank function per call.

A nonempty set S of exponents in the box ``0 <= gamma <= n`` with equal sum
is the support of a rank function exactly when it is M-convex, the point set
of an integral polymatroid base polytope.  That holds exactly when S meets
the weak exchange axiom: for x != y in S there are i, j with ``x_i > y_i``
and ``x_j < y_j`` such that ``x - e_i + e_j`` and ``y + e_i - e_j`` are both
in S.  For a nonempty set it is equivalent to the exchange axiom, which asks
for such a j for every i with ``x_i > y_i`` (Murota, *Discrete Convex
Analysis*, SIAM 2003, ch. 4).  The rank function is then
``delta(I) = max over gamma in S of sum_{i in I}(n_i - gamma_i)``, and its
support is S again; ``gamma -> n - gamma`` preserves the axiom.  So
:meth:`Polymatroid.from_support` checks a support with no rank-function
table, running x over one point per orbit of the factor permutations that
fix S, and y over the orbits ranked at or below x's, when there are at most
``2**k / (2k)`` orbits, and through the dense round trip otherwise.

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
and total; :meth:`SpaceSignature.check_profiles` checks many at once by set
and column operations, calling it only to name a failure.  The exchange test
and the beta enumerations work on mixed-radix codes ``sum(g_i * w_i)``,
``w_i`` the product of ``n_l + 1`` over ``l > i``, in lexicographic order;
``g - e_i + e_j`` has the code ``c - w_i + w_j`` if ``g_i > 0``, ``g_j < n_j``.

Subsets of ``{1, ..., k}`` are encoded as bitmasks (bit ``i-1`` for element
``i``).  A table on them, such as a rank function, is one int whose field
``mask``, a whole number of bytes with a spare top bit, holds the value at
``mask``.  The subset sums of ``x`` are k steps
``sums |= (sums + x_j * ones_j) << (width << j)``, ``ones_j`` having 1 in each
of the first ``2**j`` fields, and a fieldwise ``a >= b`` is one subtraction,
``((a | high) - b) & high``.  So validating a rank function and recovering
the projections from a support cost a few big-int operations per factor
pair or support point.  :func:`profiles` enumerates the support level by
level, one shift-or and one compare per prefix of a candidate, dropping a
prefix at its first subset past the ceiling; the exchange test builds no
table, and the hard cap is ``k <= 24``.  :meth:`Polymatroid.tight_set` is
k lookups in the support; :meth:`Polymatroid.betas` reads the profiles off it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable
from itertools import accumulate, chain, compress, product, repeat
from math import factorial, prod
from operator import add, itemgetter, mul, sub

from .errors import PreconditionError, array, exact_ints, field, integer, ints

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


def subset_lists(k: int) -> list[list[int]]:
    """``subsets[mask]`` = the 1-based index list of ``mask``, for every mask."""
    subsets = [[]]
    for i in range(1, k + 1):
        subsets += [subset + [i] for subset in subsets]
    return subsets


class Value:
    """A value whose attributes ``__post_init__`` sets once from what ``__init__``
    hands it: its arguments, or, in ``CameraConfiguration``, the cameras read
    whole first.  Nothing changes them after; ``==`` and ``hash`` read :meth:`_key`."""

    def __init__(self, *args, **kwargs):
        self.__post_init__(*args, **kwargs)

    def _key(self):
        return tuple(vars(self).values())

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


class SpaceSignature(Value):
    """Ambient product of projective spaces plus the subvariety dimension.

    ``n`` lists the factor dimensions; ``r`` is the dimension of the
    subvariety (or cycle) inside the product.  ``places`` holds the place
    values ``w_i`` of profile codes (module docstring), ``top`` the code of n.
    """

    def __post_init__(self, n, r):
        self.n = exact_ints(n, "factor dimensions")
        self.r = exact_ints((r,), "dimension r")[0]
        if not self.n:
            raise PreconditionError("need at least one factor")
        if len(self.n) > MAX_K:
            raise PreconditionError(f"at most {MAX_K} factors supported")
        if any(x < 0 for x in self.n):
            raise PreconditionError("factor dimensions must be non-negative")
        if not 0 <= self.r <= sum(self.n):
            raise PreconditionError("dimension r out of range")
        *places, size = accumulate((n + 1 for n in reversed(self.n)), mul, initial=1)
        self.places, self.top = tuple(places[::-1]), size - 1

    def __repr__(self):
        return f"SpaceSignature(n={self.n}, r={self.r})"

    @property
    def k(self) -> int:
        return len(self.n)

    def codim(self) -> int:
        return sum(self.n) - self.r

    def check_profile(self, vec, total: int) -> tuple[int, ...]:
        """``vec`` read by :func:`~multichow.errors.exact_ints`, checked to
        have one entry per factor, ``0 <= vec_i <= n_i`` and
        ``sum(vec) == total``."""
        vec = exact_ints(vec, "profile")
        if len(vec) != self.k:
            raise PreconditionError(f"profile {vec} needs {self.k} entries, one per factor")
        for i, (v, n) in enumerate(zip(vec, self.n)):
            if not 0 <= v <= n:
                raise PreconditionError(f"entry {i + 1} of {vec} out of range 0..{n}")
        if sum(vec) != total:
            raise PreconditionError(f"profile {vec} sums to {sum(vec)}, expected {total}")
        return vec

    def check_profiles(self, vecs, total: int) -> list[tuple[int, ...]]:
        """:meth:`check_profile` on each of ``vecs`` at once: tuples of k ints
        with the right totals and columns in range are returned as they are;
        otherwise each is checked in turn, naming the first failure."""
        vecs = list(vecs)
        plain = {*map(type, vecs)} <= {tuple} and {*map(len, vecs)} <= {self.k}
        plain = plain and {*map(type, chain.from_iterable(vecs))} <= {int}
        if plain and {*map(sum, vecs)} <= {total}:
            if all(min(col) >= 0 and max(col) <= n for col, n in zip(zip(*vecs), self.n)):
                return vecs
        return [self.check_profile(vec, total) for vec in vecs]

    def encode(self, vecs) -> list[int]:
        """The codes of checked profiles."""
        places = self.places
        return [sum(map(mul, vec, places)) for vec in vecs]

    def decode(self, codes) -> list[tuple[int, ...]]:
        """The profiles of a list of codes."""
        columns = [[code // w % (n + 1) for code in codes] for w, n in zip(self.places, self.n)]
        return list(zip(*columns))


class RankFunction(Value):
    """Integer set function on subsets of ``{1,...,k}``, stored densely.

    ``values[mask]`` is the value on the subset encoded by ``mask``; nothing
    about the axioms is enforced here -- use :func:`validate_rank_function`.
    """

    def __post_init__(self, k, values):
        self.k = exact_ints((k,), "k")[0]
        self.values = exact_ints(values, "rank function values")
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
        appear exactly once.  Entries in the order of :meth:`to_json`, with
        JSON integers throughout, are read in one pass; any other list entry
        by entry, which names its first fault.
        """
        k = field(obj, "k", integer)
        if not 1 <= k <= MAX_K:
            raise PreconditionError(f"k must be in 1..{MAX_K}")
        entries = field(obj, "values", array)
        if len(entries) == 1 << k and {*map(type, entries)} <= {dict}:
            subsets = [entry.get("subset") for entry in entries]
            deltas = [entry.get("delta") for entry in entries]
            # The types too: [1.0] == [1] and [True] == [1].
            if subsets == subset_lists(k) and {*map(type, chain(deltas, *subsets))} <= {int}:
                return cls(k, tuple(deltas))
        values = {}
        for entry in entries:
            mask = field(entry, "subset", lambda subset: mask_of(ints(subset), k))
            if mask in values:
                raise PreconditionError(f"subset {list(indices_of(mask))} appears more than once")
            values[mask] = field(entry, "delta", integer)
        if len(values) < 1 << k:
            missing = next(mask for mask in range(1 << k) if mask not in values)
            raise PreconditionError(f"subset {list(indices_of(missing))} missing from rank function")
        return cls(k, tuple(values[mask] for mask in range(1 << k)))

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "values": [
                {"subset": subset, "delta": value}
                for subset, value in zip(subset_lists(self.k), self.values)
            ],
        }


Violation = namedtuple("Violation", "axiom subset_i subset_j", defaults=(None,))


class ValidationReport(namedtuple("ValidationReport", "ok violations")):
    __slots__ = ()

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
    violation carries a witnessing pair of subsets, in the order of a scan of
    the subsets I, then of the elements i < j outside I.  One fieldwise
    compare of the values, less their minimum, checks each local form.
    """
    if delta.k != sig.k:
        raise PreconditionError(f"rank function on k={delta.k} does not match signature k={sig.k}")
    k, values = sig.k, delta.values
    lo = min(0, min(values))
    table = _Packed(k, 2 * (max(sum(sig.n), max(values)) - lo))
    packed = table.pack(v - lo for v in values)
    bounds = table.sums(sig.n) - lo * (table.high >> table.width - 1)
    failed = [(table.high & ~table.at_least(bounds, packed), -1, -1)]
    shifted = [packed >> (table.width << i) for i in range(k)]
    lacking = [table.lacking(i) for i in range(k)]
    for i in range(k):
        failed.append((lacking[i] & ~table.at_least(shifted[i], packed), i, -1))
        for j in range(i + 1, k):
            both = (shifted[i] >> (table.width << j)) + packed
            flags = lacking[i] & lacking[j] & ~table.at_least(shifted[i] + shifted[j], both)
            failed.append((flags, i, j))
    violations = [Violation("normalization", (), None)] if values[0] != 0 else []
    for mask, i, j in sorted((mask, i, j) for flags, i, j in failed for mask in table.masks(flags)):
        if i < 0:
            violations.append(Violation("bounded", indices_of(mask), None))
        elif j < 0:
            violations.append(Violation("monotone", indices_of(mask), indices_of(mask | 1 << i)))
        else:
            violations.append(
                Violation("submodular", indices_of(mask | 1 << i), indices_of(mask | 1 << j))
            )
    if values[-1] != sig.r:
        violations.append(Violation("rank", indices_of((1 << k) - 1), None))
    return ValidationReport(not violations, tuple(violations))


def profiles(bounds, total: int, ceiling=None) -> list[tuple[int, ...]]:
    """Integer vectors x with ``0 <= x_i <= bounds[i]`` and ``sum(x) = total``,
    in lexicographic order: a list of prefixes grows one coordinate at a
    time, by the values that leave the rest of the total reachable.  With
    ``ceiling``, a :class:`_Packed` table and a table packed in it, only the
    x whose subset sums of ``bounds - x`` are at most it are kept: a prefix
    carries the sums of its i entries in the low ``2**i`` fields, and each
    step costs one shift-or and one fieldwise compare, which drops the
    prefix at its first subset past the ceiling."""
    bounds = tuple(bounds)
    room = [*accumulate(reversed(bounds), initial=0)][::-1]
    level = [((), total, 0)] if 0 <= total <= room[0] else []
    shift = bar = top = ones = 0
    for i, b in enumerate(bounds):
        if ceiling is not None:
            table, values = ceiling
            shift = table.width << i
            low = (1 << shift) - 1
            top = table.high & low
            ones = top >> table.width - 1
            bar = values >> shift & low | top
        level = [
            (prefix + (x,), left - x, sums | new << shift)
            for prefix, left, sums in level
            for x in range(max(0, left - room[i + 1]), min(b, left) + 1)
            if (bar - (new := sums + (b - x) * ones)) & top == top
        ]
    return [prefix for prefix, _, _ in level]


def subset_sums(vec) -> list[int]:
    """``sums[mask]`` = the sum of ``vec[i]`` over the bits ``i`` of ``mask``."""
    sums = [0]
    for x in vec:
        sums += [s + x for s in sums]
    return sums


class _Packed:
    """Tables on the subsets of ``{1, ..., k}``, one int each (see the module
    docstring), with fields of ``width`` bits for values ``0..top``."""

    def __init__(self, k: int, top: int):
        self.k = k
        self.size = (top.bit_length() + 8) // 8
        self.width = 8 * self.size
        self.high = self.lacking(k)

    def lacking(self, i: int) -> int:
        """The top bits of the fields whose mask lacks bit ``i``, all for ``i = k``."""
        run = (bytes(self.size - 1) + b"\x80") * (1 << i) + bytes(self.size << i)
        return int.from_bytes((run * (1 << self.k >> i))[: self.size << self.k], "little")

    def pack(self, values: Iterable[int]) -> int:
        if self.size == 1:
            return int.from_bytes(bytes(values), "little")
        return int.from_bytes(b"".join(v.to_bytes(self.size, "little") for v in values), "little")

    def sums(self, vec) -> int:
        """The subset sums of ``vec``, k entries ``>= 0`` totalling at most ``top``."""
        sums, ones = 0, 1
        for j, x in enumerate(vec):
            shift = self.width << j
            sums |= (sums + x * ones) << shift
            ones |= ones << shift
        return sums

    def at_least(self, a: int, b: int) -> int:
        """The top bit of each field where ``a >= b``."""
        return ((a | self.high) - b) & self.high

    def maximum(self, a: int, b: int) -> int:
        pick = self.at_least(b, a)
        return a ^ ((a ^ b) & (pick - (pick >> self.width - 1)))

    def values(self, table: int) -> list[int]:
        data = table.to_bytes(self.size << self.k, "little")
        if self.size == 1:
            return list(data)
        return [int.from_bytes(data[p:p + self.size], "little") for p in range(0, len(data), self.size)]

    def masks(self, flags: int) -> list[int]:
        """The masks of the fields whose top bit is set in ``flags``, in order."""
        data = flags.to_bytes(self.size << self.k, "little") if flags else b""
        found, p = [], data.find(0x80)
        while p >= 0:
            found.append(p // self.size)
            p = data.find(0x80, p + 1)
        return found


def _groups(sig: SpaceSignature) -> list[list[int]]:
    """The groups of factors with equal ``n_i``, in order of their first member."""
    return [[i for i, m in enumerate(sig.n) if m == n] for n in dict.fromkeys(sig.n)]


def _factor_classes(sig: SpaceSignature, coded: dict) -> list[list[int]]:
    """Classes of factors that permute freely without changing the support
    ``coded``, a dict from the codes of its points to the points.  Only the
    factors of a group of :func:`_groups` can be exchanged.  Within each, the
    transposition of consecutive members a < b, which moves the code c of x
    to ``c + (x_b - x_a)(w_a - w_b)``, is tested on every point; a run of
    members joined by symmetries is a class, since connected transpositions
    generate the full symmetric group on it.  Symmetries this misses cost
    time in the exchange test, never its answer."""
    columns = list(zip(*coded.values()))
    classes = []
    for members in _groups(sig):
        run = [members[0]]
        for a, b in zip(members, members[1:]):
            shift = repeat(sig.places[a] - sig.places[b])
            moved = map(add, coded, map(mul, map(sub, columns[b], columns[a]), shift))
            if all(map(coded.__contains__, moved)):
                run.append(b)
            else:
                classes.append(run)
                run = [b]
        classes.append(run)
    return [run for run in classes if len(run) > 1]


def _orbits(sig: SpaceSignature, coded: dict, classes) -> tuple[list, dict]:
    """The key of each point of the support ``coded``, in its order, and a
    dict from the keys to the codes, filled in increasing code order, which
    keeps the largest code of each orbit under the permutations of each
    class.  A key, the sorted entries of each class and the others, names an orbit."""
    points = coded.values()
    fixed = sorted(set(range(sig.k)).difference(*classes))
    keys = [map(tuple, map(sorted, map(itemgetter(*members), points))) for members in classes]
    if fixed:
        keys.append(map(itemgetter(*fixed), points))
    keys = list(zip(*keys))
    return keys, dict(zip(keys, coded))


def _symmetric_orbits(sig: SpaceSignature, coded: dict) -> tuple[list, dict]:
    """:func:`_orbits` under the classes of :func:`_factor_classes`.  Keyed by
    every group at once, the orbit of a key holds the product of multinomials
    of its group entries; when these add up to ``|S|`` the support holds each
    orbit it meets, so each group is a class.  Else the scan finds them."""
    classes = [members for members in _groups(sig) if len(members) > 1]
    keys, orbits = _orbits(sig, coded, classes)
    spare = len(coded) - len(orbits)
    for key in orbits:
        parts = key[:len(classes)]
        size = prod([factorial(len(p)) // prod(map(factorial, map(p.count, set(p)))) for p in parts])
        spare -= size - 1
        if spare < 0:
            return _orbits(sig, coded, _factor_classes(sig, coded))
    return keys, orbits


def _exchange_holds(sig: SpaceSignature, coded: dict, representatives, tops) -> bool:
    """The weak exchange axiom on the support ``coded`` for x among the codes
    ``representatives``: for every y != x in it there are i, j with
    ``x_i > y_i`` and ``x_j < y_j`` such that ``x - e_i + e_j`` and
    ``y + e_i - e_j`` are both in it.  With the largest code of every orbit
    of a symmetry group of the support this is the whole axiom, since a
    symmetry carries the witnesses of x to those of its image, and as
    ``(j, i)`` serves ``(y, x)`` when ``(i, j)`` serves ``(x, y)``, y runs
    over the orbits whose largest code, ``tops`` in the order of ``coded``, is
    at most x's.  The moves ``c - w_i + w_j`` of x are listed once; the guards
    ``x_i > 0`` and ``x_j < n_j``, and the comparisons for y, keep every code
    in the box.  Each move in turn drops the points y it serves, until none is
    left."""
    places, n, k = sig.places, sig.n, sig.k
    tops = list(tops)
    for c in representatives:
        x = coded[c]
        left = [point for point, top in zip(coded.items(), tops) if top <= c and point[0] != c]
        for i, j in product(range(k), repeat=2):
            if left and x[i] and x[j] < n[j] and j != i and c - places[i] + places[j] in coded:
                xi, xj, shift = x[i], x[j], places[i] - places[j]
                left = [
                    p for p in left
                    if not (p[1][i] < xi and p[1][j] > xj and p[0] + shift in coded)
                ]
        if left:
            return False
    return True


class Polymatroid:
    """Projection dimensions, held as their support.

    ``Polymatroid(sig, delta)`` keeps the support of an explicit rank
    function from :func:`support_from_projections`, which validates it
    first.  :meth:`from_support` checks a support instead (see the module
    docstring).  Either way only the support is kept, as a dict from the
    codes of its points to the points in increasing code order, which
    :meth:`tight_set`, the one criterion, and :meth:`betas` read, checking
    only their own arguments.  :func:`projections_from_support` recovers
    the rank function.
    """

    def __init__(self, sig: SpaceSignature, delta: RankFunction):
        support = support_from_projections(sig, delta)
        self.sig, self._coded = sig, dict(zip(sig.encode(support), support))

    @classmethod
    def from_support(cls, sig: SpaceSignature, support) -> "Polymatroid":
        """The polymatroid whose support is ``support``, a nonempty set of
        exponents already checked against ``sig``; raises
        :class:`PreconditionError` when no rank function has it as support.

        Two checks give the same answer: the weak exchange axiom over each
        pair of orbits of :func:`_symmetric_orbits` once, at most ``k**2``
        code lookups per orbit and point of an orbit ranked at or below it,
        or the dense round trip through :func:`projections_from_support`,
        about k operations on tables of ``2**k`` fields per support point
        and candidate.  The exchange test runs when ``2|orbits|k <= 2**k``."""
        coded = dict(sorted(zip(sig.encode(support), support)))
        if not coded:
            raise PreconditionError("empty support")
        keys, orbits = _symmetric_orbits(sig, coded)
        if 2 * len(orbits) * sig.k > 1 << sig.k:
            support = tuple(coded.values())
            delta = projections_from_support(sig, support)
            if support_from_projections(sig, delta) != support:
                raise PreconditionError("support differs from the support of its projections")
        elif not _exchange_holds(sig, coded, orbits.values(), map(orbits.get, keys)):
            raise PreconditionError("support fails the exchange axiom")
        polymatroid = object.__new__(cls)
        polymatroid.sig, polymatroid._coded = sig, coded
        return polymatroid

    def tight_set(self, beta) -> tuple[int, ...]:
        """The minimal tight set of ``beta``, empty unless beta is 1-deficient:
        the j where ``beta_j > 0`` (``alpha + e_j`` is then in the box) and the
        code ``top - code(beta) + w_j`` of ``alpha + e_j`` is in the support."""
        beta = self.sig.check_profile(beta, self.sig.r + 1)
        code = self.sig.top - self.sig.encode([beta])[0]
        return tuple(j for j, (b, w) in enumerate(zip(beta, self.sig.places), 1)
                     if b and code + w in self._coded)

    def support(self) -> tuple[tuple[int, ...], ...]:
        """The exponent vectors of :func:`support_from_projections`, in
        lexicographic order; kept at construction."""
        return tuple(self._coded.values())

    def betas(self, criterion: str) -> tuple[tuple[int, ...], ...]:
        """All in-range beta with |beta| = r+1 passing the chosen criterion,
        in lexicographic order: ``"hypersurface"`` keeps the 1-deficient
        ones, ``"determining"`` the circuits.  Each support point gamma gives
        ``beta = n - gamma + e_j`` for each j with ``gamma_j > 0``, so beta is
        reached once per member of its minimal tight set, a circuit k times."""
        reached = {"hypersurface": 1, "determining": self.sig.k}
        if criterion not in reached:
            raise PreconditionError(f"unknown criterion {criterion!r}")
        places, top, coded = self.sig.places, self.sig.top, self._coded
        counts = Counter()
        for w, column in zip(places, zip(*coded.values())):
            counts.update(map((top + w).__sub__, compress(coded, column)))
        kept = sorted(code for code, c in counts.items() if c >= reached[criterion])
        return tuple(self.sig.decode(kept))


def support_from_projections(
    sig: SpaceSignature, delta: RankFunction
) -> tuple[tuple[int, ...], ...]:
    """The exponents gamma with 0 <= gamma_i <= n_i and
    sum_{i in I}(n_i - gamma_i) <= delta(I) for every I, with equality on the
    full set, in lexicographic order: :func:`profiles` under the ceiling
    ``delta``, whose full-set value ``r`` makes the equality hold.  Raises the
    first violation that :func:`validate_rank_function` finds in ``delta``."""
    report = validate_rank_function(sig, delta)
    if not report.ok:
        first = report.violations[0]
        raise PreconditionError(
            f"invalid rank function: {first.axiom} fails at "
            f"I={list(first.subset_i)}"
            + (f", J={list(first.subset_j)}" if first.subset_j is not None else "")
        )
    table = _Packed(sig.k, sum(sig.n))
    return tuple(profiles(sig.n, sig.codim(), (table, table.pack(delta.values))))


def projections_from_support(sig: SpaceSignature, support: Iterable) -> RankFunction:
    """Recover delta(I) = max over gamma of sum_{i in I}(n_i - gamma_i).

    Inverts :func:`support_from_projections` whenever the support is the full
    set of lattice points it would produce (in particular for supports of
    actual irreducible varieties).
    """
    support = sig.check_profiles(support, sig.codim())
    if not support:
        raise PreconditionError("rank function undefined for empty support")
    table = _Packed(sig.k, sum(sig.n))
    values = 0
    for gamma in support:
        values = table.maximum(values, table.sums([n - g for n, g in zip(sig.n, gamma)]))
    return RankFunction(sig.k, tuple(table.values(values)))


def is_one_deficient(sig: SpaceSignature, delta: RankFunction, beta) -> bool:
    """|beta_I| <= delta(I) + 1 for every subset I, i.e. a nonempty
    :meth:`Polymatroid.tight_set`: the condition for the incidence locus cut
    by spaces of codimension profile beta to be a hypersurface."""
    return bool(Polymatroid(sig, delta).tight_set(beta))


def tight_sets(sig: SpaceSignature, delta: RankFunction, beta) -> tuple[int, ...]:
    """Bitmasks of all subsets with |beta_I| = delta(I) + 1."""
    sums = subset_sums(sig.check_profile(beta, sig.r + 1))
    return tuple(mask for mask, (s, d) in enumerate(zip(sums, delta.values)) if s == d + 1)


def minimal_tight_set(sig: SpaceSignature, delta: RankFunction, beta) -> tuple[int, ...]:
    """The unique nonempty J with |beta_I| = delta(I)+1 iff I contains J,
    the intersection of all tight subsets (:meth:`Polymatroid.tight_set`);
    raises when beta is not 1-deficient."""
    if not (tight := Polymatroid(sig, delta).tight_set(beta)):
        raise PreconditionError("beta is not 1-deficient")
    return tight


def is_circuit(sig: SpaceSignature, delta: RankFunction, beta) -> bool:
    """True iff beta is positive, 1-deficient, and only the full set is
    tight, i.e. :meth:`Polymatroid.tight_set` is every factor: |beta_I| <=
    delta(I) on every proper nonempty I, the condition for the incidence
    hypersurface to determine the variety."""
    return len(Polymatroid(sig, delta).tight_set(beta)) == sig.k


def enumerate_beta(
    sig: SpaceSignature, delta: RankFunction, criterion: str
) -> tuple[tuple[int, ...], ...]:
    """See :meth:`Polymatroid.betas`."""
    return Polymatroid(sig, delta).betas(criterion)
