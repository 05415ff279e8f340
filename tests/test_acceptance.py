"""Acceptance suite: one printed PASS/FAIL line per criterion.

Each test prints its verdict (and wall time where a budget applies) even
under pytest's capture, so the run log doubles as the acceptance report.
"""

import random
import time
from itertools import product

import pytest

from multichow import (
    Multidegree,
    chow_form_multidegree,
    criterion_form,
    determines_variety,
    enumerate_beta,
    is_hypersurface,
    is_one_deficient,
    multifocal_tensor,
    multiview_multidegree,
    sz_membership,
    tensor_contract,
)
from multichow import linalg
from multichow import polymatroid as pm
from multichow.multiview import (
    CameraConfiguration,
    LinearSpaceTuple,
    chow_residual,
    contraction_coordinates,
    epsilon_oracle,
    forms_through,
    has_world_point_preimage,
    intersection_count_oracle,
    majority_count,
    project_point,
    random_cameras,
    random_independent_forms,
)
from multichow.errors import PreconditionError
from multichow.polymatroid import (
    Polymatroid,
    SpaceSignature,
    projections_from_support,
    support_from_projections,
)

from helpers import (
    coded_matches_reference,
    consistent_polymatroid,
    enumerate_rank_functions,
    frobenius_multidegree,
    multiview_delta,
    multiview_sig,
    planted_symmetric_polymatroid,
    product_of_curves_multidegree,
    random_polymatroid,
    reference_exchange_holds,
    scanned_betas,
    sum_over,
)


@pytest.fixture
def report(capsys):
    def _report(name, ok, started=None, budget=None):
        note = ""
        if started is not None:
            elapsed = time.perf_counter() - started
            note = f" [{elapsed:.2f}s < {budget:.0f}s]"
            ok = ok and elapsed < budget
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'}: {name}{note}")
        assert ok, name
    return _report


_RANDOM_SWEEP = []


def random_sweep():
    """1000 seeded random submodular functions, k up to 5 (cached)."""
    if not _RANDOM_SWEEP:
        rng = random.Random(2026)
        for _ in range(1000):
            _RANDOM_SWEEP.append(random_polymatroid(rng, rng.randint(1, 5)))
    return _RANDOM_SWEEP


def test_multiview_beta_tables(report):
    started = time.perf_counter()
    tables = {
        2: [(2, 2)],
        3: [(1, 1, 2), (1, 2, 1), (2, 1, 1)],
        4: [(1, 1, 1, 1)],
        5: [],
    }
    ok = True
    for k, expected in tables.items():
        got = enumerate_beta(multiview_sig(k), multiview_delta(k), "determining")
        ok = ok and list(got) == expected
    report("multiview determining-beta tables (k=2..5)", ok, started, 1.0)


def test_multiview_chow_degrees_all_ones(report):
    ok = True
    for k in (2, 3, 4):
        md = multiview_multidegree(k)
        for beta in enumerate_beta(md.sig, md.rank_function(), "determining"):
            degrees = chow_form_multidegree(md, beta)
            ok = ok and degrees == (1,) * k
    report("multiview chow degrees are all-ones (k=2,3,4)", ok)


def test_frobenius_chow_degrees(report):
    p = 2
    md = frobenius_multidegree(p)
    first = chow_form_multidegree(md, (2, 1))
    second = chow_form_multidegree(md, (1, 2))
    ok = first == (p, 1)
    # The (1,2) profile carries the extra multiplicity: its chow degree is
    # exactly p times the reduced-form degree (p, 1).
    ok = ok and second == (p * p, p) and second == tuple(p * d for d in first)
    report("frobenius fixture: degrees (2,1) and (4,2) = p*(p,1)", ok)


def frobenius_lengths(p, modulus):
    """``(a_(2,0), fiber length)`` of the graph ``{(x, x^p)}`` of the p-th
    power map in ``P^2 x P^2``, computed with sympy over ``GF(modulus)`` (or
    over Q for ``None``).

    ``a_(2,0)`` is the length of the fiber over ``y = (1 : 2 : 3)``: the
    number of standard monomials of a Groebner basis of
    ``(x1^p - 2, x2^p - 3)``.  The fiber length is that of the ``beta =
    (1, 2)`` incidence locus over a point ``(line, y)`` of it: on the line
    ``x0 + t*w`` with ``y = x0^p``, the multiplicity of the root ``t = 0``
    of the gcd of the 2x2 minors of ``(x^p, y)``.  Over GF(p) the map is
    Frobenius, ``(x0 + t*w)^p = x0^p + t^p w^p``, and every minor is
    ``t^p`` times a constant; over Q the root is simple.
    """
    sympy = pytest.importorskip("sympy")
    x1, x2, t = sympy.symbols("x1 x2 t")
    domain = {} if modulus is None else {"modulus": modulus}
    basis = sympy.groebner([x1**p - 2, x2**p - 3], x1, x2, order="grevlex", **domain)
    leads = [g.monoms(order="grevlex")[0] for g in basis.polys]
    box = [max(m[i] for m in leads if m[i] == sum(m)) for i in range(2)]
    a20 = sum(
        1
        for e in product(*map(range, box))
        if not any(all(a >= b for a, b in zip(e, m)) for m in leads)
    )
    # Not proportional modulo 2, 3 and 5, nor over Q.
    x0, w = (1, 2, 3), (1, 3, 7)
    x = [c + t * d for c, d in zip(x0, w)]
    y = [c**p for c in x0]
    minors = [
        sympy.Poly(x[i] ** p * y[j] - x[j] ** p * y[i], t, **domain)
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    g = minors[0]
    for m in minors[1:]:
        g = g.gcd(m)
    return a20, min(e for (e,) in g.monoms())


def test_frobenius_multiplicity_in_characteristic_p(report):
    """The extra multiplicity of the Frobenius fixture, computed from the
    variety: ``a_(2,0) = p^2`` in every characteristic, and the ``beta =
    (1, 2)`` fiber has length p over GF(p) but 1 over Q, so the factor p in
    the chow degree ``(p^2, p) = p * (p, 1)`` is a characteristic-p effect."""
    ok = True
    for p in (2, 3, 5):
        md = frobenius_multidegree(p)
        first = chow_form_multidegree(md, (2, 1))
        second = chow_form_multidegree(md, (1, 2))
        over_gf = frobenius_lengths(p, p)
        ok = ok and over_gf == (p * p, p) == (md.coefficient((2, 0)), p)
        ok = ok and second == tuple(over_gf[1] * d for d in first)
        ok = ok and frobenius_lengths(p, None) == (p * p, 1)
    report("frobenius: a_(2,0) = p^2, fiber length p over GF(p) and 1 over Q, p = 2, 3, 5", ok)


def test_product_of_curves(report):
    md = product_of_curves_multidegree(2, 3)
    ok = is_hypersurface(md, (1, 2))
    ok = ok and not determines_variety(md, (1, 2))
    ok = ok and chow_form_multidegree(md, (1, 2)) == (0, 6)
    report("product-of-curves: hypersurface, non-determining, degree (0,6)", ok)


def test_round_trip_rank_functions(report):
    started = time.perf_counter()
    ok = True
    checked = 0
    # Exhaustive over k <= 3, n_i <= 3.  Permuting the factors permutes both
    # the rank functions and the supports, so sorted dimension vectors
    # cover every case.
    dims = [
        n
        for k in (1, 2, 3)
        for n in product(range(4), repeat=k)
        if list(n) == sorted(n)
    ]
    for n in dims:
        for delta in enumerate_rank_functions(n):
            sig = SpaceSignature(n, delta.values[-1])
            support = support_from_projections(sig, delta)
            ok = ok and support and projections_from_support(sig, support) == delta
            checked += 1
    for sig, delta in random_sweep():
        support = support_from_projections(sig, delta)
        ok = ok and support and projections_from_support(sig, support) == delta
        checked += 1
    report(
        f"support/projections round trip ({checked} rank functions)",
        bool(ok),
        started,
        30.0,
    )


def test_criterion_equivalence(report):
    started = time.perf_counter()
    ok = True
    fixtures = [
        frobenius_multidegree(2),
        product_of_curves_multidegree(2, 3),
        multiview_multidegree(2),
        multiview_multidegree(3),
        multiview_multidegree(4),
    ]
    for sig, delta in random_sweep():
        support = support_from_projections(sig, delta)
        fixtures.append(Multidegree(sig, {g: 1 for g in support}))
    pairs = 0
    for md in fixtures:
        sig = md.sig
        delta = md.rank_function()
        proper = range(1, (1 << sig.k) - 1)
        for beta in product(*(range(n + 1) for n in sig.n)):
            if sum(beta) != sig.r + 1:
                continue
            ok = ok and is_hypersurface(md, beta) == is_one_deficient(sig, delta, beta)
            loose = all(sum_over(beta, m) <= delta.values[m] + 1 for m in range(1 << sig.k))
            ok = ok and is_hypersurface(md, beta) == loose
            strict = all(sum_over(beta, m) <= delta.values[m] for m in proper)
            ok = ok and determines_variety(md, beta) == strict
            pairs += 1
    report(f"criterion equivalence ({pairs} (multidegree, beta) pairs)", ok, started, 30.0)


def test_exchange_axiom_matches_round_trip(report, monkeypatch):
    """The exchange test over all pairs and over the detected orbits agrees
    with the dense round trip on every nonempty subset of the exponents of
    each box with k <= 3, n_i <= 3 and at most 14 exponents, and its coded
    form finds the classes, orbits and verdicts of the tuple references
    (``helpers.coded_matches_reference``) there.  So does
    ``Polymatroid.from_support`` on the supports of the random sweep, with
    and without their first point, and on the multiview supports for
    k <= 8, taking each side of its selection on some of them."""
    started = time.perf_counter()
    ok = True
    subsets = consistent = 0
    for k in (1, 2, 3):
        for n in product(range(4), repeat=k):
            if list(n) != sorted(n):
                continue
            for codim in range(sum(n) + 1):
                box = list(pm.profiles(n, codim))
                if len(box) > 14:
                    continue
                sig = SpaceSignature(n, sum(n) - codim)
                for mask in range(1, 1 << len(box)):
                    support = [g for i, g in enumerate(box) if mask >> i & 1]
                    expected = consistent_polymatroid(sig, support) is not None
                    points = frozenset(support)
                    ok = ok and reference_exchange_holds(points, points) == expected
                    ok = ok and coded_matches_reference(sig, support)
                    subsets += 1
                    consistent += expected

    dense = []
    projections = pm.projections_from_support

    def counted(sig, support):
        dense.append(sig.k)
        return projections(sig, support)

    cases = []
    for sig, delta in random_sweep():
        support = support_from_projections(sig, delta)
        cases += [(sig, support), (sig, support[1:])] if len(support) > 1 else [(sig, support)]
    cases += [(multiview_sig(k), multiview_multidegree(k).support()) for k in range(2, 9)]
    # helpers.consistent_polymatroid holds its own binding of the function.
    monkeypatch.setattr(pm, "projections_from_support", counted)
    for sig, support in cases:
        expected = consistent_polymatroid(sig, support) is not None
        try:
            built = Polymatroid.from_support(sig, support) is not None
        except PreconditionError:
            built = False
        ok = ok and built == expected
    exchange = len(cases) - len(dense)
    # Pins how many supports take each side of the selection rule.
    ok = ok and (len(cases), exchange) == (1505, 955)
    report(
        f"exchange axiom = support round trip ({subsets} box subsets, {consistent} "
        f"consistent; {len(cases)} supports, {exchange} by the exchange test)",
        ok,
        started,
        30.0,
    )


def test_betas_match_the_profile_scan(report):
    """``Polymatroid.betas``, read off the support, against the scan of the
    profile box (``helpers.scanned_betas``), for both criteria: on the
    random sweep, on planted-symmetric draws, on every rank function of a
    few small boxes and on the multiview polymatroids for k = 2..12."""
    started = time.perf_counter()
    polymatroids = [Polymatroid(sig, delta) for sig, delta in random_sweep()]
    rng = random.Random(83)
    for _ in range(150):
        sig, delta, _ = planted_symmetric_polymatroid(rng, rng.randint(2, 7))
        polymatroids.append(Polymatroid(sig, delta))
    for n in ((2, 2, 2), (1, 1, 1, 1), (3, 2, 1)):
        polymatroids += [
            Polymatroid(SpaceSignature(n, delta.values[-1]), delta)
            for delta in enumerate_rank_functions(n)
        ]
    polymatroids += [multiview_multidegree(k).polymatroid() for k in range(2, 13)]
    ok = True
    found = {"hypersurface": 0, "determining": 0}
    for polymatroid in polymatroids:
        for criterion in found:
            betas = polymatroid.betas(criterion)
            ok = ok and betas == scanned_betas(polymatroid, criterion)
            found[criterion] += len(betas)
    ok = ok and all(found.values())
    report(
        f"betas = profile scan ({len(polymatroids)} polymatroids, "
        f"{found['hypersurface']} hypersurface and {found['determining']} determining betas)",
        ok,
        started,
        30.0,
    )


def test_tensor_determinant_identity(report):
    started = time.perf_counter()
    ok = True
    profiles = {2: (2, 2), 3: (2, 1, 1), 4: (1, 1, 1, 1)}
    for k, beta in profiles.items():
        config = random_cameras(k, 100 + k)
        tensor = multifocal_tensor(config, beta)
        ok = ok and bool(tensor.entries)
        rng = random.Random(f"acceptance-identity:{k}")
        for _ in range(100):
            spaces = LinearSpaceTuple(
                tuple(random_independent_forms(rng, b) for b in beta)
            )
            lhs = tensor_contract(tensor, contraction_coordinates(spaces))
            ok = ok and lhs == chow_residual(config, spaces)
    config = random_cameras(3, 104)
    rng = random.Random("acceptance-incidence")
    zeros = 0
    while zeros < 100:
        world = tuple(rng.randint(-10, 10) for _ in range(4))
        if linalg.is_zero_vector(world) or any(
            linalg.is_zero_vector(linalg.mat_vec(cam, world))
            for cam in config.cameras
        ):
            continue
        images = [project_point(cam, world) for cam in config.cameras]
        spaces = LinearSpaceTuple(
            tuple(forms_through(rng, img, b) for img, b in zip(images, (2, 1, 1)))
        )
        ok = ok and chow_residual(config, spaces) == 0
        zeros += 1
    report("tensor/determinant identity (300 tuples) and incidence zeros (100)", ok, started, 10.0)


def test_oracle_agreement(report):
    started = time.perf_counter()
    ok = True
    for k in (2, 3, 4):
        config = random_cameras(k, 200 + k)
        md = multiview_multidegree(k)
        for gamma in md.support():
            counts = intersection_count_oracle(config, gamma, 20, 300 + k)
            ok = ok and majority_count(counts) == md.coefficient(gamma)
    for k in (2, 3, 4):
        config = random_cameras(k, 200 + k)
        betas = enumerate_beta(multiview_sig(k), multiview_delta(k), "determining")
        for beta in betas:
            counts = epsilon_oracle(config, beta, 20, 400 + k)
            ok = ok and counts == [1] * 20
    report("oracle agreement: multidegree counts and epsilon=1", ok, started, 60.0)


def test_trifocal_extra_components(report):
    started = time.perf_counter()
    config = random_cameras(3, 500)
    beta = (2, 1, 1)
    centers = [config.center(i) for i in (1, 2, 3)]

    def epipole(cam_index, center_index):
        return project_point(config.cameras[cam_index - 1], centers[center_index - 1])

    # Points on the line through two camera centers project to the epipoles
    # in those two cameras and sweep a line in the third, so the tensor
    # vanishes on every space tuple through these candidates.
    first = [epipole(1, 2), epipole(2, 1), (3, 1, 4)]
    second = [epipole(1, 3), (2, 7, 1), epipole(3, 1)]
    ok = True
    for candidate in (first, second):
        ok = ok and not has_world_point_preimage(config, candidate)
        ok = ok and sz_membership(config, beta, candidate, 10, 0)
    rng = random.Random("acceptance-sz")
    rejected = 0
    for _ in range(100):
        candidate = [
            tuple(rng.randint(-10, 10) for _ in range(3)) for _ in range(3)
        ]
        if any(linalg.is_zero_vector(x) for x in candidate):
            candidate = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
        if not sz_membership(config, beta, candidate, 4, 1):
            rejected += 1
    ok = ok and rejected == 100
    report("trifocal always-incident locus: extra components and rejections", ok, started, 30.0)
