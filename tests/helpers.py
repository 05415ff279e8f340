"""Shared generators and fixtures for the test suite.

Random submodular functions are realized as ranks of unions of random vector
batches over a prime field, so validity is guaranteed by construction and the
tests exercise genuinely varied polymatroids rather than hand-picked ones.
"""

import argparse
import contextlib
import importlib.util
import io
import random
import re
import sys
from fractions import Fraction
from itertools import product
from operator import le
from pathlib import Path

from multichow import CameraConfiguration, Multidegree, MultifocalTensor, cli, linalg
from multichow.errors import (
    DegenerateInputError,
    PreconditionError,
    array,
    exact_ints,
    field,
    integer,
    integer_rows,
    ints,
    vector,
)
from multichow.multiview import (
    _image,
    _pullback_rows,
    _sample,
    _signature,
    _trial_rngs,
    forms_through,
    random_cameras,
)
from multichow import polymatroid as pm
from multichow.polymatroid import (
    Polymatroid,
    RankFunction,
    SpaceSignature,
    ValidationReport,
    Violation,
    _Packed,
    indices_of,
    mask_of,
    profiles,
    projections_from_support,
    subset_sums,
)

#: ``perfbench/exact.py``, the benchmark's references written from the
#: definitions, loaded by file path so that the tests share its copies.
EXACT_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "exact.py"
_spec = importlib.util.spec_from_file_location("perfbench_exact", EXACT_PATH)
bench_exact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_exact)


def random_polymatroid(rng: random.Random, k: int, max_n: int = 3):
    """A random valid (signature, rank function) pair, drawn by
    ``bench_exact.random_polymatroid``: factor i owns n_i random vectors
    over GF(p), and delta(I) is the rank of the union of the batches over I,
    which is normalized, monotone, submodular and bounded by sum of n_i over
    I.  Small entries force plenty of coincidences."""
    n, r, values = bench_exact.random_polymatroid(rng, k, max_n)
    return SpaceSignature(tuple(n), r), RankFunction(k, tuple(values))


def planted_symmetric_polymatroid(rng: random.Random, k: int):
    """A random partition of the k factors into classes with a different
    ``n_c`` each, and a (signature, rank function, classes) triple whose rank
    function every permutation within a class fixes:
    ``delta(I) = min(r, sum over classes c of h_c(|I & c|))`` with each h_c
    concave, nondecreasing and at most ``n_c`` per step.  A truncated sum of
    such functions is a polymatroid rank function."""
    dims = rng.sample(range(4), rng.randint(1, min(4, k)))
    labels = [rng.randrange(len(dims)) for _ in range(k)]
    classes = [[i for i in range(k) if labels[i] == c] for c in range(len(dims))]
    steps = []
    for c, members in enumerate(classes):
        steps.append(sorted((rng.randint(0, dims[c]) for _ in members), reverse=True))
    total = sum(sum(s) for s in steps)
    r = rng.randint(0, total)
    values = []
    for mask in range(1 << k):
        counts = [sum(mask >> i & 1 for i in members) for members in classes]
        values.append(min(r, sum(sum(s[:m]) for s, m in zip(steps, counts))))
    sig = SpaceSignature(tuple(dims[label] for label in labels), r)
    return sig, RankFunction(k, tuple(values)), [c for c in classes if c]


def split_group_polymatroid(rng: random.Random, k: int):
    """A (signature, rank function, classes) triple as in
    :func:`planted_symmetric_polymatroid`, but with one ``n`` for every
    factor: each class has its own steps, so a permutation within a class
    fixes the rank function and one across classes need not."""
    n = rng.randint(1, 3)
    labels = [rng.randrange(rng.randint(2, k)) for _ in range(k)]
    classes = [members for c in range(k) if (members := [i for i in range(k) if labels[i] == c])]
    steps = [sorted((rng.randint(0, n) for _ in members), reverse=True) for members in classes]
    r = rng.randint(0, sum(map(sum, steps)))
    values = []
    for mask in range(1 << k):
        counts = [sum(mask >> i & 1 for i in members) for members in classes]
        values.append(min(r, sum(sum(s[:m]) for s, m in zip(steps, counts))))
    return SpaceSignature((n,) * k, r), RankFunction(k, tuple(values)), classes


def consistent_polymatroid(sig: SpaceSignature, support) -> Polymatroid | None:
    """The dense reference for ``Polymatroid.from_support``: the round trip
    of a support -> projection dimensions -> validated polymatroid ->
    support; the polymatroid when the support comes back unchanged, else
    ``None``."""
    support = tuple(sorted(support))
    if not support:
        return None
    try:
        polymatroid = Polymatroid(sig, projections_from_support(sig, support))
    except PreconditionError:
        return None
    return polymatroid if polymatroid.support() == support else None


def scanned_betas(polymatroid: Polymatroid, criterion: str) -> tuple:
    """The reference for ``Polymatroid.betas``: the profiles of the box
    ``0 <= beta <= n`` with ``|beta| = r + 1``, in lexicographic order, each
    kept when its ``tight_set`` is nonempty (``"hypersurface"``) or every
    factor (``"determining"``)."""
    sig = polymatroid.sig
    least = {"hypersurface": 1, "determining": sig.k}[criterion]
    return tuple(
        beta for beta in profiles(sig.n, sig.r + 1) if len(polymatroid.tight_set(beta)) >= least
    )


def enumerate_rank_functions(n):
    """All valid bounded rank functions for factor dimensions n, layer by
    layer: each new value is constrained below by monotonicity against its
    maximal proper subsets and above by the local submodular inequalities,
    which together are equivalent to the full axioms."""
    k = len(n)
    masks = sorted(range(1 << k), key=lambda m: bin(m).count("1"))
    values = [0] * (1 << k)

    def fill(pos):
        if pos == len(masks):
            yield RankFunction(k, tuple(values))
            return
        mask = masks[pos]
        if mask == 0:
            yield from fill(pos + 1)
            return
        members = [i for i in range(k) if mask >> i & 1]
        lo = max(values[mask ^ (1 << i)] for i in members)
        hi = sum(n[i] for i in members)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                bi, bj = 1 << members[a], 1 << members[b]
                hi = min(hi, values[mask ^ bi] + values[mask ^ bj] - values[mask ^ bi ^ bj])
        for v in range(lo, hi + 1):
            values[mask] = v
            yield from fill(pos + 1)

    yield from fill(0)


def rank_of(delta: RankFunction, indices) -> int:
    """delta on the subset of 1-based ``indices``."""
    return delta.values[mask_of(indices, delta.k)]


def sum_over(beta, mask: int) -> int:
    """|beta_I| for the subset I encoded by ``mask``."""
    return sum(b for i, b in enumerate(beta) if mask >> i & 1)


def multiview_delta(k: int) -> RankFunction:
    """Projection dimensions of the image closure of P^3 in (P^2)^k:
    2 on singletons, 3 on everything larger."""
    return RankFunction(k, tuple(bench_exact.multiview_delta(k)))


def multiview_sig(k: int) -> SpaceSignature:
    return SpaceSignature((2,) * k, 3)


def frobenius_multidegree(p: int = 2) -> Multidegree:
    """Graph of the squaring-type endomorphism of P^2: degree data only."""
    sig = SpaceSignature((2, 2), 2)
    return Multidegree(sig, {(2, 0): p * p, (1, 1): p, (0, 2): 1})


def product_of_curves_multidegree(d1: int = 2, d2: int = 3) -> Multidegree:
    """Product of plane curves of degrees d1, d2 inside P^2 x P^2."""
    sig = SpaceSignature((2, 2), 2)
    return Multidegree(sig, {(1, 1): d1 * d2})


IDENTITY_CAMERA = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def translated_camera(t):
    return (
        (1, 0, 0, t[0]),
        (0, 1, 0, t[1]),
        (0, 0, 1, t[2]),
    )


# Denominators by row pattern and column: a camera's three rows get
# different lcms (2, 21 and 5 in some order), so scaling rows separately and
# scaling the camera as a whole give different integer rows.
ROW_DENOMINATORS = ((1, 2, 1, 2), (3, 1, 7, 3), (5, 5, 1, 1))


def rational_cameras(k: int, seed: int) -> CameraConfiguration:
    """The seeded integer cameras with each entry divided by a denominator
    that depends on its camera, row and column."""
    cams = random_cameras(k, seed).cameras
    return CameraConfiguration(
        tuple(
            tuple(
                tuple(x / ROW_DENOMINATORS[(i + r) % 3][c] for c, x in enumerate(row))
                for r, row in enumerate(cam)
            )
            for i, cam in enumerate(cams)
        )
    )


def fraction_pullback_rows(config: CameraConfiguration, factors):
    """Rows l^T P_i in ``Fraction`` arithmetic, factor order then form order."""
    return [
        linalg.mat_vec(tuple(zip(*cam)), form)
        for cam, factor in zip(config.cameras, factors)
        for form in factor
    ]


def reference_tensor(config: CameraConfiguration, beta) -> MultifocalTensor:
    """The multifocal tensor by one ``Fraction`` determinant per entry.

    Entry T[a_1,...,a_k] is the determinant of the rows of P_i without row
    a_i (sign (-1)^(a_i+1)) where beta_i = 2, and row a_i where beta_i = 1.
    """
    entries = {}
    for index in product((1, 2, 3), repeat=config.k):
        rows = []
        sign = 1
        for cam, b, a in zip(config.cameras, beta, index):
            if b == 2:
                rows.extend(cam[j] for j in range(3) if j != a - 1)
                sign *= (-1) ** (a + 1)
            else:
                rows.append(cam[a - 1])
        entries[index] = sign * linalg.det(rows)
    return MultifocalTensor(tuple(beta), entries)


def reference_contract(tensor: MultifocalTensor, coordinates) -> Fraction:
    """The reference for ``tensor_contract``: ``sum T[a] * prod_i x_i[a_i]``
    over the stored entries, in ``Fraction`` arithmetic."""
    coordinates = [[Fraction(x) for x in vec] for vec in coordinates]
    total = Fraction(0)
    for index, value in tensor.entries.items():
        for vec, a in zip(coordinates, index):
            value *= vec[a - 1]
        total += value
    return total


def reference_sz_membership(config, tensor: MultifocalTensor, candidate, trials: int, seed: int):
    """The reference for ``sz_membership``: per trial, the tensor contracted
    with the candidate's coordinates on codimension-2 slots and a random line
    through the coordinate on codimension-1 slots, the same line
    ``sz_membership`` draws."""
    candidate, _ = integer_rows(candidate, 3)
    if len(candidate) != config.k or tensor.k != config.k:
        raise PreconditionError(f"candidate and tensor must have {config.k} slots")
    if not all(map(any, candidate)):
        raise PreconditionError("candidate coordinates must be nonzero")
    for rng in _trial_rngs(seed, trials):
        coords = [
            x if b == 2 else forms_through(rng, x, 1)[0] for x, b in zip(candidate, tensor.beta)
        ]
        if reference_contract(tensor, coords) != 0:
            return False
    return True



def count_table_builds(monkeypatch, calls: list) -> None:
    """Append to ``calls`` the argument of every packed subset table that
    ``polymatroid`` builds, from subset sums or from values."""
    for name in ("sums", "pack"):
        build = getattr(_Packed, name)

        def counted(table, entries, build=build):
            calls.append(entries)
            return build(table, entries)

        monkeypatch.setattr(_Packed, name, counted)


def dense_validate_rank_function(sig: SpaceSignature, delta: RankFunction) -> ValidationReport:
    """The reference for ``validate_rank_function``: one Python-level pass
    over every subset and every pair of elements outside it."""
    if delta.k != sig.k:
        raise PreconditionError(f"rank function on k={delta.k} does not match signature k={sig.k}")
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
                violations.append(Violation("monotone", indices_of(mask), indices_of(with_i)))
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


def dense_support_from_projections(sig: SpaceSignature, delta: RankFunction) -> tuple:
    """The reference for ``support_from_projections``: each candidate's
    ``2**k`` subset sums compared with ``delta`` one by one."""
    report = dense_validate_rank_function(sig, delta)
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


def dense_projections_from_support(sig: SpaceSignature, support) -> RankFunction:
    """The reference for ``projections_from_support``: the maximum of the
    ``2**k`` subset sums of ``n - gamma`` taken subset by subset."""
    support = [sig.check_profile(gamma, sig.codim()) for gamma in support]
    if not support:
        raise PreconditionError("rank function undefined for empty support")
    values = [0] * (1 << sig.k)
    for gamma in support:
        drops = subset_sums(n - g for n, g in zip(sig.n, gamma))
        values = [max(v, d) for v, d in zip(values, drops)]
    return RankFunction(sig.k, tuple(values))


def reference_multidegree_from_json(obj) -> Multidegree:
    """The reference for ``Multidegree.from_json``: the tag checked, the
    entries read one by one and each exponent and coefficient checked in
    turn, before the multidegree is built."""
    sig = SpaceSignature(field(obj, "n", ints), field(obj, "r", integer))
    coeffs = {}
    for entry in field(obj, "coefficients", array):
        gamma = field(entry, "gamma", ints)
        if gamma in coeffs:
            raise PreconditionError(f"gamma {gamma} appears more than once")
        coeffs[gamma] = field(entry, "a", integer)
    tag = obj.get("tag", "variety")
    if tag not in ("variety", "cycle"):
        raise PreconditionError(f"unknown tag {tag!r}")
    clean = {}
    for gamma, a in zip(coeffs, exact_ints(coeffs.values(), "coefficients")):
        gamma = sig.check_profile(gamma, sig.codim())
        if a <= 0:
            raise PreconditionError(f"coefficient at {gamma} must be positive, got {a}")
        clean[gamma] = a
    return Multidegree(sig, clean, tag)


def reference_rank_function_from_json(obj) -> RankFunction:
    """The reference for ``RankFunction.from_json``: the entries read one by
    one, each subset and value checked in turn."""
    k = field(obj, "k", integer)
    if not 1 <= k <= pm.MAX_K:
        raise PreconditionError(f"k must be in 1..{pm.MAX_K}")
    values: list = [None] * (1 << k)
    for entry in field(obj, "values", array):
        mask = field(entry, "subset", lambda subset: mask_of(ints(subset), k))
        if values[mask] is not None:
            raise PreconditionError(f"subset {list(indices_of(mask))} appears more than once")
        values[mask] = field(entry, "delta", integer)
    missing = [mask for mask, v in enumerate(values) if v is None]
    if missing:
        raise PreconditionError(f"subset {list(indices_of(missing[0]))} missing from rank function")
    return RankFunction(k, tuple(values))


# ---------------------------------------------------------------------------
# the exchange test on exponent tuples, as references for the coded helpers
# of ``Polymatroid.from_support``


def swapped(x: tuple, a: int, b: int) -> tuple:
    """``x`` with entries ``a < b`` exchanged."""
    return x[:a] + (x[b],) + x[a + 1:b] + (x[a],) + x[b + 1:]


def reference_factor_classes(sig: SpaceSignature, points: frozenset) -> list[list[int]]:
    """The reference for ``_factor_classes``: each transposition of
    consecutive members of a group of equal ``n_i`` tested tuple by tuple."""
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(sig.n):
        groups.setdefault(n, []).append(i)
    classes = []
    for members in groups.values():
        run = [members[0]]
        for a, b in zip(members, members[1:]):
            if all(x[a] == x[b] or swapped(x, a, b) in points for x in points):
                run.append(b)
            else:
                classes.append(run)
                run = [b]
        classes.append(run)
    return [run for run in classes if len(run) > 1]


def reference_orbit_representatives(points: frozenset, classes) -> set:
    """The reference for the codes ``_orbits`` keeps, one per orbit: each
    point with its entries on a class sorted in decreasing order."""
    representatives = set()
    for x in points:
        rep = list(x)
        for members in classes:
            for i, v in zip(members, sorted([x[i] for i in members], reverse=True)):
                rep[i] = v
        representatives.add(tuple(rep))
    return representatives


def step(x: tuple, i: int, j: int) -> tuple:
    """``x - e_i + e_j``."""
    y = list(x)
    y[i] -= 1
    y[j] += 1
    return tuple(y)


def reference_exchange_holds(points: frozenset, representatives) -> bool:
    """The reference for ``_exchange_holds``: the weak exchange axiom for x
    among ``representatives``, on tuples."""
    k = len(next(iter(points)))
    for x in representatives:
        moves = [(i, j) for i in range(k) if x[i] for j in range(k) if step(x, i, j) in points]
        for y in points:
            if y != x and not any(
                x[i] > y[i] and x[j] < y[j] and step(y, j, i) in points for i, j in moves
            ):
                return False
    return True


def coded_support(sig: SpaceSignature, support) -> dict:
    """A checked support as ``from_support`` codes it: code -> exponent, in
    code order."""
    return dict(sorted(zip(sig.encode(support), support)))


def coded_matches_reference(sig: SpaceSignature, support) -> bool:
    """Whether the coded classes, orbits and verdicts, over all points and
    over the orbits, equal the tuple references and the verdicts agree;
    ``False`` on any difference."""
    points, coded = frozenset(support), coded_support(sig, support)
    classes = reference_factor_classes(sig, points)
    orbits = reference_orbit_representatives(points, classes)
    verdict = reference_exchange_holds(points, points)
    return (
        pm._factor_classes(sig, coded) == classes
        and set(pm._orbits(sig, coded, classes)[1].values()) == set(sig.encode(orbits))
        and reference_exchange_holds(points, orbits) == verdict
        and pm._exchange_holds(sig, coded, coded) == verdict
        and pm._exchange_holds(sig, coded, sig.encode(orbits)) == verdict
    )


# ---------------------------------------------------------------------------
# the oracle trials in Fraction arithmetic with elimination, as references for
# the integer kernels of ``multiview``


def reference_random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def reference_random_form(rng: random.Random):
    """The reference for ``random_form``: a ``Fraction`` vector."""
    return _sample(
        rng,
        lambda r: tuple(reference_random_rational(r) for _ in range(3)),
        lambda v: not linalg.is_zero_vector(v),
        "linear form",
    )


def reference_independent_forms(rng, draw, count: int, what: str):
    """Forms drawn until each raises the rank of the earlier ones."""
    forms = []
    for _ in range(count):
        forms.append(
            _sample(rng, draw, lambda f: linalg.rank(forms + [f]) == len(forms) + 1, what)
        )
    return tuple(forms)


def reference_random_independent_forms(rng: random.Random, count: int):
    return reference_independent_forms(rng, reference_random_form, count, "independent form")


def reference_forms_through(rng: random.Random, point, count: int):
    """The reference for ``forms_through``: the forms through ``point`` over
    the ``nullspace`` basis of the point."""
    basis = linalg.nullspace([list(point)], 3)
    if len(basis) != 2:
        raise DegenerateInputError("candidate coordinate is the zero vector")

    def draw(r):
        u, v = r.randint(-10, 10), r.randint(-10, 10)
        return tuple(u * a + v * b for a, b in zip(basis[0], basis[1]))

    return reference_independent_forms(rng, draw, count, "form through a point")


def reference_fiber_size(config: CameraConfiguration, rows):
    """The reference for ``_fiber_size``: the ``nullspace`` of the rows."""
    solutions = linalg.nullspace(rows, 4)
    if len(solutions) != 1:
        return None if solutions else 0
    (point,), _ = integer_rows(solutions, 4)
    return 0 if any(not any(_image(cam, point)) for cam in config._rows) else 1


def reference_has_world_point_preimage(config: CameraConfiguration, candidate) -> bool:
    candidate = [vector(vec, 3) for vec in candidate]
    if len(candidate) != config.k:
        raise PreconditionError(f"candidate needs {config.k} coordinates")
    forms = [linalg.nullspace([list(x)], 3) for x in candidate]
    return reference_fiber_size(config, _pullback_rows(config, forms)) != 0


def reference_intersection_count_oracle(config: CameraConfiguration, gamma, trials, rng_seed):
    sig = _signature(config.k)
    gamma = sig.check_profile(gamma, sig.codim())
    results = []
    for rng in _trial_rngs(rng_seed, trials):
        forms = [reference_random_independent_forms(rng, 2 - g) for g in gamma]
        results.append(reference_fiber_size(config, _pullback_rows(config, forms)))
    return results


def reference_epsilon_oracle(config: CameraConfiguration, beta, trials, rng_seed):
    """The reference for ``epsilon_oracle``: ``Fraction`` world points, and
    images compared with the other centers' images by ``proportional``."""
    sig = _signature(config.k)
    beta = sig.check_profile(beta, sig.r + 1)
    center_images = [
        [_image(cam, c) for j, c in enumerate(config._int_centers) if j != i]
        for i, cam in enumerate(config._rows)
    ]

    def draw(r):
        (point,), _ = integer_rows([[reference_random_rational(r) for _ in range(4)]], 4)
        return [_image(cam, point) for cam in config._rows]

    def good(images) -> bool:
        return all(
            any(img) and not any(linalg.proportional(img, c) for c in others)
            for img, others in zip(images, center_images)
        )

    results = []
    for rng in _trial_rngs(rng_seed, trials):
        images = _sample(rng, draw, good, "world point")
        forms = [
            reference_forms_through(rng, image, b) if b else ()
            for image, b in zip(images, beta)
        ]
        results.append(reference_fiber_size(config, _pullback_rows(config, forms)))
    return results


# ---------------------------------------------------------------------------
# number strings


#: ``fractions.Fraction``'s string grammar on Python 3.11, which
#: ``errors.text_number`` keeps on every version.
_FRACTION_311 = re.compile(
    r"""\A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:(?:/(?P<denom>\d+(_\d+)*))?
    |(?:\.(?P<decimal>d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)\s*\Z""",
    re.VERBOSE | re.IGNORECASE,
)


def reference_text_number(text: str) -> Fraction:
    """The reference for ``errors.text_number``: ``Fraction(text)`` as Python
    3.11 reads it, by its regex and arithmetic, with the package's refusal
    of an exponent past the integer-string digit limit."""
    m = _FRACTION_311.match(text)
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    numerator, denominator = int(m["num"] or "0"), int(m["denom"] or "1")
    if m["decimal"]:
        scale = 10 ** len(m["decimal"].replace("_", ""))
        numerator, denominator = numerator * scale + int(m["decimal"]), scale
    if m["exp"]:
        exp = int(m["exp"])
        if abs(exp) > sys.get_int_max_str_digits() > 0:
            raise ValueError(f"exponent {exp} exceeds the digit limit")
        if exp >= 0:
            numerator *= 10**exp
        else:
            denominator *= 10**-exp
    return Fraction(-numerator if m["sign"] == "-" else numerator, denominator)


# ---------------------------------------------------------------------------
# argv


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise PreconditionError(message)


def reference_argv_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``cli.read_argv`` stands in for, built from
    the same ``cli.COMMON`` and ``cli.SUBCOMMANDS`` tables; it refuses with
    ``PreconditionError``."""
    parser = _ReferenceParser(prog="multichow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli.SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag, keywords in (*cli.COMMON, *command.arguments):
            p.add_argument(flag, **keywords)
    return parser


def argv_outcome(read, argv) -> tuple:
    """``read(argv)`` as its values, a refusal, or help with its exit code;
    what it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return "values", vars(read(argv))
        except PreconditionError:
            return "refused", None
        except SystemExit as exc:
            return "help", exc.code


def argv_vocabulary() -> dict:
    """Tokens for argv sequences, by kind: every subcommand name and two
    that are not; every option flag, each unique prefix of it, ``=`` forms
    and the help spellings; values that start with ``-``, that ``int``
    reads with whitespace, a sign or ``_``, and that no option accepts."""
    options = dict(cli.COMMON)
    for sub in cli.SUBCOMMANDS.values():
        options.update(sub.arguments)
    prefixes = [
        flag[:n]
        for flag in options
        for n in range(3, len(flag) + 1)
        if sum(f.startswith(flag[:n]) for f in (*options, "--help")) == 1
    ]
    choices = [c for keywords in options.values() for c in keywords.get("choices", ())]
    equals = [f"{flag}={value}" for flag in options for value in ("7", "-1", "", choices[0])]
    equals += [
        f"{flag[:3]}={value}"
        for flag, keywords in options.items()
        for value in keywords.get("choices", ("7",))
    ]
    return {
        "names": [*cli.SUBCOMMANDS, "frobnicate", ""],
        "options": prefixes + equals + ["-h", "-h=x", "--help", "--he"],
        "values": ["-1", "-.5", "-5x", "-", " 7", "+7", "1_0", "7", "x", "yaml", "sideways", "--x"]
        + choices,
    }


def argv_samples(count: int, seed: int):
    """Every argv of at most two vocabulary tokens, then ``count`` seeded
    random ones of three to six, most led by a subcommand name and built
    mostly of option-value pairs, half of them with options of the lead."""
    kinds = argv_vocabulary()
    vocabulary = [token for tokens in kinds.values() for token in tokens]
    yield []
    for first in vocabulary:
        yield [first]
        for second in vocabulary:
            yield [first, second]
    rng = random.Random(seed)
    for _ in range(count):
        length = rng.randint(3, 6)
        lead = rng.choice(list(cli.SUBCOMMANDS)) if rng.random() < 0.75 else None
        options = kinds["options"]
        if lead and rng.random() < 0.5:
            flags = [flag for flag, _ in (*cli.COMMON, *cli.SUBCOMMANDS[lead].arguments)]
            options = [t for t in options if any(f.startswith(t.partition("=")[0]) for f in flags)]
        argv = [lead] if lead else []
        while len(argv) < length:
            if rng.random() < 0.85:
                argv += [rng.choice(options), rng.choice(kinds["values"])]
            else:
                argv.append(rng.choice(vocabulary))
        yield argv[:length]
