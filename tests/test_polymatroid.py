"""Rank-function validation, support conversion and beta classification."""

import random
from itertools import combinations, product

import pytest

from multichow import (
    RankFunction,
    SpaceSignature,
    enumerate_beta,
    is_circuit,
    is_one_deficient,
    minimal_tight_set,
    projections_from_support,
    support_from_projections,
    validate_rank_function,
)
from multichow import polymatroid as pm
from multichow.errors import PreconditionError
from multichow.multiview import multiview_multidegree
from multichow.polymatroid import Polymatroid, indices_of, mask_of, tight_sets

from helpers import (
    coded_matches_reference,
    coded_support,
    consistent_polymatroid,
    count_table_builds,
    enumerate_rank_functions,
    multiview_delta,
    multiview_sig,
    planted_symmetric_polymatroid,
    random_polymatroid,
    rank_of,
    reference_exchange_holds,
    split_group_polymatroid,
    sum_over,
    swapped,
)


def rf(k, table):
    """A rank function from a table keyed by every subset's sorted indices."""
    return RankFunction(k, tuple(table[indices_of(mask)] for mask in range(1 << k)))


TWO_CAMERA = rf(2, {(): 0, (1,): 2, (2,): 2, (1, 2): 3})
FROBENIUS_DELTA = rf(2, {(): 0, (1,): 2, (2,): 2, (1, 2): 2})
CURVES_DELTA = rf(2, {(): 0, (1,): 1, (2,): 1, (1, 2): 2})


class TestValidate:
    def test_two_camera_dims_ok(self):
        assert validate_rank_function(SpaceSignature((2, 2), 3), TWO_CAMERA).ok

    def test_zero_function_ok(self):
        zero = rf(2, {(): 0, (1,): 0, (2,): 0, (1, 2): 0})
        assert validate_rank_function(SpaceSignature((2, 2), 0), zero).ok

    def test_monotonicity_violation_with_witness(self):
        delta = rf(2, {(): 0, (1,): 1, (2,): 0, (1, 2): 0})
        report = validate_rank_function(SpaceSignature((2, 2), 0), delta)
        assert not report.ok
        witnesses = {(v.axiom, v.subset_i, v.subset_j) for v in report.violations}
        assert ("monotone", (1,), (1, 2)) in witnesses

    def test_bounded_violation(self):
        delta = rf(1, {(): 0, (1,): 3})
        report = validate_rank_function(SpaceSignature((2,), 2), delta)
        assert [v.axiom for v in report.violations] == ["bounded", "rank"]

    def test_size_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            validate_rank_function(SpaceSignature((2, 2, 2), 3), TWO_CAMERA)

    def test_report_json_shape(self):
        report = validate_rank_function(SpaceSignature((2, 2), 3), TWO_CAMERA)
        assert report.to_json() == {"ok": True, "violations": []}
        violation = pm.Violation("rank", (1,))
        assert violation.subset_j is None
        assert pm.ValidationReport(False, (violation,)).to_json() == {
            "ok": False,
            "violations": [{"axiom": "rank", "I": [1], "J": None}],
        }


class TestSupportFromProjections:
    def test_two_camera(self):
        sig = SpaceSignature((2, 2), 3)
        assert support_from_projections(sig, TWO_CAMERA) == ((0, 1), (1, 0))

    def test_frobenius_dims(self):
        sig = SpaceSignature((2, 2), 2)
        got = support_from_projections(sig, FROBENIUS_DELTA)
        assert got == ((0, 2), (1, 1), (2, 0))

    def test_point_in_p1(self):
        sig = SpaceSignature((1,), 0)
        delta = rf(1, {(): 0, (1,): 0})
        assert support_from_projections(sig, delta) == ((1,),)

    def test_invalid_delta_rejected(self):
        sig = SpaceSignature((2, 2), 3)
        bad = rf(2, {(): 0, (1,): 2, (2,): 2, (1, 2): 1})
        with pytest.raises(PreconditionError):
            support_from_projections(sig, bad)

    def test_gamma_inequalities_hold_independently(self):
        rng = random.Random(7)
        for _ in range(40):
            sig, delta = random_polymatroid(rng, rng.randint(1, 4))
            for gamma in support_from_projections(sig, delta):
                drops = [n - g for n, g in zip(sig.n, gamma)]
                assert sum(drops) == sig.r
                assert all(0 <= g <= n for g, n in zip(gamma, sig.n))
                for mask in range(1, 1 << sig.k):
                    total = sum(drops[i] for i in range(sig.k) if mask >> i & 1)
                    assert total <= delta.values[mask]


class TestProjectionsFromSupport:
    def test_two_camera_support(self):
        sig = SpaceSignature((2, 2), 3)
        delta = projections_from_support(sig, [(1, 0), (0, 1)])
        assert (rank_of(delta, [1]), rank_of(delta, [2]), rank_of(delta, [1, 2])) == (2, 2, 3)

    def test_product_of_curves_support(self):
        sig = SpaceSignature((2, 2), 2)
        delta = projections_from_support(sig, [(1, 1)])
        assert (rank_of(delta, [1]), rank_of(delta, [2]), rank_of(delta, [1, 2])) == (1, 1, 2)

    def test_surface_in_p3(self):
        delta = projections_from_support(SpaceSignature((3,), 2), [(1,)])
        assert rank_of(delta, [1]) == 2

    def test_empty_support_rejected(self):
        with pytest.raises(PreconditionError):
            projections_from_support(SpaceSignature((2, 2), 3), [])

    def test_round_trip_on_random_functions(self):
        rng = random.Random(11)
        for _ in range(60):
            sig, delta = random_polymatroid(rng, rng.randint(1, 4))
            support = support_from_projections(sig, delta)
            assert projections_from_support(sig, support) == delta


class TestOneDeficient:
    def test_multiview_211(self):
        assert is_one_deficient(multiview_sig(3), multiview_delta(3), (2, 1, 1))

    def test_multiview_220_hypersurface_but_degenerate(self):
        assert is_one_deficient(multiview_sig(3), multiview_delta(3), (2, 2, 0))

    def test_wrong_total_rejected(self):
        with pytest.raises(PreconditionError):
            is_one_deficient(SpaceSignature((2, 2), 2), CURVES_DELTA, (2, 2))

    def test_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            is_one_deficient(SpaceSignature((2, 2), 2), CURVES_DELTA, (3, 0))


class TestMinimalTightSet:
    def test_multiview_211_full_set(self):
        got = minimal_tight_set(multiview_sig(3), multiview_delta(3), (2, 1, 1))
        assert got == (1, 2, 3)

    def test_multiview_220(self):
        got = minimal_tight_set(multiview_sig(3), multiview_delta(3), (2, 2, 0))
        assert got == (1, 2)

    def test_classical_single_factor(self):
        sig = SpaceSignature((5,), 2)
        delta = rf(1, {(): 0, (1,): 2})
        assert minimal_tight_set(sig, delta, (3,)) == (1,)

    def test_not_one_deficient_rejected(self):
        sig = SpaceSignature((2, 2), 2)
        with pytest.raises(PreconditionError):
            minimal_tight_set(sig, CURVES_DELTA, (0, 3))

    @pytest.mark.parametrize(
        "sig, delta, beta, tight",
        [
            (multiview_sig(4), multiview_delta(4), (2, 1, 1, 0), (1, 2, 3)),
            (multiview_sig(4), multiview_delta(4), (2, 2, 0, 0), (1, 2)),
            # A point times a line in P^2 x P^2: |beta_1| = 2 > delta({1}) + 1.
            (SpaceSignature((2, 2), 1), rf(2, {(): 0, (1,): 0, (2,): 1, (1, 2): 1}), (2, 0), None),
        ],
        ids=["multiview-2110", "multiview-2200", "not-one-deficient"],
    )
    def test_no_subset_scan_after_construction(self, sig, delta, beta, tight, monkeypatch):
        """The tight set is read off the support kept at construction: no
        subset sums, no packed subset tables and no rank-function values."""
        polymatroid = Polymatroid(sig, delta)
        assert not hasattr(polymatroid, "projections")
        calls = []
        sums = pm.subset_sums

        def counted(vec):
            calls.append(vec)
            return sums(vec)

        def refused(*args):
            raise AssertionError("tight_set called tight_sets")

        monkeypatch.setattr(pm, "subset_sums", counted)
        count_table_builds(monkeypatch, calls)
        monkeypatch.setattr(pm, "tight_sets", refused)
        assert polymatroid.tight_set(beta) == (tight or ())
        assert len(calls) == 0
        if tight is None:
            with pytest.raises(PreconditionError, match="not 1-deficient"):
                minimal_tight_set(sig, delta, beta)

    def test_minimal_element_of_tight_family(self):
        # Brute-force oracle: the result is itself tight, nonempty, and
        # contained in every tight subset.  (Supersets of the minimal tight
        # set need not all be tight for a general rank function; the tight
        # family is only a lattice.)
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            sig, delta = random_polymatroid(rng, rng.randint(1, 5))
            betas = enumerate_beta(sig, delta, "hypersurface")
            if not betas:
                continue
            beta = rng.choice(betas)
            j_mask = mask_of(minimal_tight_set(sig, delta, beta), sig.k)
            assert j_mask != 0
            assert sum_over(beta, j_mask) == delta.values[j_mask] + 1
            for mask in range(1 << sig.k):
                if sum_over(beta, mask) == delta.values[mask] + 1:
                    assert mask & j_mask == j_mask
            checked += 1

    def test_tight_set_closure_under_intersection(self):
        # For 1-deficient beta the tight sets are closed under intersection;
        # exhaustive over subsets for up to six factors.
        rng = random.Random(29)
        checked = 0
        while checked < 25:
            sig, delta = random_polymatroid(rng, rng.randint(2, 6), max_n=2)
            betas = enumerate_beta(sig, delta, "hypersurface")
            if not betas:
                continue
            beta = rng.choice(betas)
            tight = tight_sets(sig, delta, beta)
            for a, b in combinations(tight, 2):
                assert a & b in tight
            checked += 1


class TestCircuit:
    def test_multiview_211(self):
        assert is_circuit(multiview_sig(3), multiview_delta(3), (2, 1, 1))

    def test_zero_entry_is_not_a_circuit(self):
        assert not is_circuit(multiview_sig(3), multiview_delta(3), (2, 2, 0))

    def test_five_cameras_never(self):
        sig, delta = multiview_sig(5), multiview_delta(5)
        for raw in product(range(3), repeat=5):
            if sum(raw) == 4:
                assert not is_circuit(sig, delta, raw)

    def test_matches_direct_inequality_scan(self):
        rng = random.Random(31)
        for _ in range(30):
            sig, delta = random_polymatroid(rng, rng.randint(1, 4))
            for beta in product(*(range(n + 1) for n in sig.n)):
                if sum(beta) != sig.r + 1:
                    continue
                direct = all(b > 0 for b in beta) and all(
                    sum_over(beta, mask) <= delta.values[mask]
                    for mask in range(1, (1 << sig.k) - 1)
                )
                assert is_circuit(sig, delta, beta) == direct


class TestEnumerateBeta:
    def test_multiview_k3_determining(self):
        betas = enumerate_beta(multiview_sig(3), multiview_delta(3), "determining")
        assert list(betas) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_multiview_k4_determining(self):
        betas = enumerate_beta(multiview_sig(4), multiview_delta(4), "determining")
        assert list(betas) == [(1, 1, 1, 1)]

    def test_multiview_k5_determining_empty(self):
        assert enumerate_beta(multiview_sig(5), multiview_delta(5), "determining") == ()

    def test_unknown_criterion_rejected(self):
        with pytest.raises(PreconditionError):
            enumerate_beta(multiview_sig(2), multiview_delta(2), "strict")

    def test_determining_subset_of_hypersurface(self):
        rng = random.Random(37)
        for _ in range(30):
            sig, delta = random_polymatroid(rng, rng.randint(1, 4))
            det = set(enumerate_beta(sig, delta, "determining"))
            hyp = set(enumerate_beta(sig, delta, "hypersurface"))
            assert det <= hyp

    def test_determining_empty_when_more_factors_than_r_plus_one(self):
        rng = random.Random(41)
        found = 0
        while found < 20:
            sig, delta = random_polymatroid(rng, rng.randint(2, 5), max_n=2)
            if sig.k <= sig.r + 1:
                continue
            assert enumerate_beta(sig, delta, "determining") == ()
            found += 1


@pytest.mark.parametrize(
    "n, functions, checked",
    [
        ((2, 2, 2), 115, 588),
        ((2, 1, 1, 1), 134, 685),
        ((1, 1, 1, 1, 1), 406, 2911),
        ((3, 3, 2), 304, 2330),
    ],
    ids=["222", "2111", "11111", "332"],
)
def test_criteria_match_direct_scans_on_every_rank_function(n, functions, checked):
    """Every bounded rank function on n, representable or not, and every
    profile: the criteria, read off the support, agree with scans of the
    subset sums against delta."""
    full = (1 << len(n)) - 1
    profiles_seen = 0
    rank_functions = list(enumerate_rank_functions(n))
    for delta in rank_functions:
        sig = SpaceSignature(n, delta.values[-1])
        polymatroid = Polymatroid(sig, delta)
        table = {"hypersurface": [], "determining": []}
        for beta in pm.profiles(n, sig.r + 1):
            sums = [sum_over(beta, mask) for mask in range(full + 1)]
            one_deficient = all(s <= d + 1 for s, d in zip(sums, delta.values))
            circuit = all(b > 0 for b in beta) and all(
                sums[mask] <= delta.values[mask] for mask in range(1, full)
            )
            found = polymatroid.tight_set(beta)
            assert bool(found) == one_deficient
            if one_deficient:
                tight = full
                for mask, (s, d) in enumerate(zip(sums, delta.values)):
                    if s == d + 1:
                        tight &= mask
                assert found == indices_of(tight)
            else:
                assert found == ()
            assert (len(found) == sig.k) == circuit
            if one_deficient:
                table["hypersurface"].append(beta)
            if circuit:
                table["determining"].append(beta)
            profiles_seen += 1
        for criterion, betas in table.items():
            assert polymatroid.betas(criterion) == tuple(betas)
    assert (len(rank_functions), profiles_seen) == (functions, checked)


def detected_orbits(sig, points):
    """The factor classes ``from_support`` detects and one code per orbit."""
    coded = coded_support(sig, points)
    classes = pm._factor_classes(sig, coded)
    return classes, pm._orbit_representatives(sig, coded, classes, len(points))


def agrees_with_round_trip(sig, support) -> bool:
    """Checks the exchange test over all pairs and over orbit
    representatives, coded and on tuples, and ``Polymatroid.from_support``,
    against the dense round trip; returns its verdict."""
    points = frozenset(support)
    reference = consistent_polymatroid(sig, support)
    consistent = reference is not None
    assert reference_exchange_holds(points, points) == consistent
    assert coded_matches_reference(sig, points)
    try:
        built = Polymatroid.from_support(sig, support)
    except PreconditionError:
        built = None
    assert (built is not None) == consistent
    if consistent:
        assert built.support() == reference.support() == tuple(sorted(support))
    return consistent


class TestExchangeAxiom:
    """The support-first consistency check against the dense round trip
    (``helpers.consistent_polymatroid``); every subset of the small boxes is
    in ``test_acceptance.py``."""

    def test_random_supports_with_a_point_removed_or_added(self):
        rng = random.Random(61)
        verdicts = []
        for _ in range(150):
            sig, delta = random_polymatroid(rng, rng.randint(1, 5))
            support = Polymatroid(sig, delta).support()
            assert agrees_with_round_trip(sig, support)
            if len(support) > 1:
                removed = rng.choice(support)
                verdicts.append(
                    agrees_with_round_trip(sig, [g for g in support if g != removed])
                )
            outside = [g for g in pm.profiles(sig.n, sig.codim()) if g not in support]
            if outside:
                verdicts.append(agrees_with_round_trip(sig, [*support, rng.choice(outside)]))
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize(
        "n, pairs, consistent",
        [((1, 1, 1, 1), 840, 693), ((2, 2, 1), 384, 320), ((2, 2, 2), 1674, 1212)],
        ids=["1111", "221", "222"],
    )
    def test_unions_of_two_supports(self, n, pairs, consistent):
        """The union of every two distinct supports of equal r on n."""
        supports = {}
        for delta in enumerate_rank_functions(n):
            sig = SpaceSignature(n, delta.values[-1])
            supports.setdefault(sig, set()).add(Polymatroid(sig, delta).support())
        verdicts = [
            agrees_with_round_trip(sig, {*first, *second})
            for sig, found in supports.items()
            for first, second in combinations(sorted(found), 2)
        ]
        assert (len(verdicts), sum(verdicts)) == (pairs, consistent)

    def test_planted_symmetric_supports(self):
        """Supports fixed by every permutation within each planted class,
        M-convex or with one orbit removed or added: the detected classes
        hold the planted ones and are symmetries, and the exchange test over
        their orbits agrees with the round trip."""
        rng = random.Random(71)
        verdicts = []
        for _ in range(80):
            sig, delta, planted = planted_symmetric_polymatroid(rng, rng.randint(2, 7))
            support = set(Polymatroid(sig, delta).support())
            box = list(pm.profiles(sig.n, sig.codim()))

            def orbit(gamma):
                return {
                    g for g in box
                    if all(sorted(g[i] for i in c) == sorted(gamma[i] for i in c) for c in planted)
                }

            variants = [support, support - orbit(rng.choice(sorted(support)))]
            outside = [g for g in box if g not in support]
            if outside:
                variants.append(support | orbit(rng.choice(outside)))
            for points in map(frozenset, variants):
                if not points:
                    continue
                classes, _ = detected_orbits(sig, points)
                for c in planted:
                    assert any(set(c) <= set(d) for d in classes) or len(c) == 1
                for d in classes:
                    for a, b in combinations(d, 2):
                        assert all(swapped(x, a, b) in points for x in points)
                verdicts.append(agrees_with_round_trip(sig, points))
        assert True in verdicts and False in verdicts

    def test_multiview_support_is_two_orbits(self):
        for k in range(3, 13):
            sig, points = multiview_sig(k), multiview_multidegree(k).support()
            classes, representatives = detected_orbits(sig, points)
            assert classes == [list(range(k))]
            assert len(representatives) == 2
            assert pm._exchange_holds(sig, coded_support(sig, points), representatives)

    def test_both_sides_of_the_selection(self, monkeypatch):
        """The exchange test runs when ``2 * |orbits| * k <= 2**k``, else the
        dense round trip; both agree with the reference."""
        supports = {k: multiview_multidegree(k).support() for k in range(2, 9)}
        dense = []
        projections = pm.projections_from_support

        def counted(sig, support):
            dense.append(sig.k)
            return projections(sig, support)

        monkeypatch.setattr(pm, "projections_from_support", counted)
        for k, support in supports.items():
            assert Polymatroid.from_support(multiview_sig(k), support)
        assert dense == [3]
        rng = random.Random(73)
        sides = {True: 0, False: 0}
        for _ in range(60):
            sig, delta = random_polymatroid(rng, rng.randint(4, 7), max_n=2)
            support = Polymatroid(sig, delta).support()
            _, representatives = detected_orbits(sig, frozenset(support))
            exchange = 2 * len(representatives) * sig.k <= 1 << sig.k
            dense.clear()
            Polymatroid.from_support(sig, support)
            assert len(dense) == (0 if exchange else 1)
            assert agrees_with_round_trip(sig, support)
            sides[exchange] += 1
        assert sides[True] and sides[False]

    def test_selection_side_per_multiview_k(self, monkeypatch):
        """Pins the side of the selection each multiview support takes: the
        dense round trip at k = 3, the exchange test at every other k.  The
        k = 3 side keeps an assertion outside tier-1 true:
        ``perfbench/test_smoke.py`` asserts ``set(calls["polymatroid"]) ==
        {"oracle-multidegree"}``, so geometry's ``oracle-multidegree``, which
        builds the multiview multidegree for k = 2..5, must reach the traced
        polymatroid functions, and only the k = 3 build does."""
        sides = []
        projections, exchange = pm.projections_from_support, pm._exchange_holds

        def dense(sig, support):
            sides.append((sig.k, "dense"))
            return projections(sig, support)

        def exchanged(sig, *args):
            sides.append((sig.k, "exchange"))
            return exchange(sig, *args)

        monkeypatch.setattr(pm, "projections_from_support", dense)
        monkeypatch.setattr(pm, "_exchange_holds", exchanged)
        for k in range(2, 9):
            multiview_multidegree(k)
        assert sides == [(k, "dense" if k == 3 else "exchange") for k in range(2, 9)]

    def test_multiview_classes_need_no_scan(self, monkeypatch):
        """The multiview support is symmetric under every permutation of the
        factors, so its orbit sizes add up and the transposition scan never
        runs."""

        def refused(*args):
            raise AssertionError("_factor_classes called")

        monkeypatch.setattr(pm, "_factor_classes", refused)
        for k in range(2, 13):
            assert Polymatroid.from_support(multiview_sig(k), multiview_multidegree(k).support())

    def test_certified_classes_against_the_round_trip(self, monkeypatch):
        """On planted symmetric supports, on them less one orbit of their
        classes, and on supports symmetric under only part of a group of
        equal ``n_i``, ``from_support`` agrees with the dense round trip, its
        orbits are those of the scanned classes, and it runs the scan
        (``_factor_classes``) exactly where the orbit sizes under the groups
        do not add up, that is where a permutation within a group moves the
        support."""
        factor_classes, scans = pm._factor_classes, []

        def counted(sig, coded):
            scans.append(sig)
            return factor_classes(sig, coded)

        monkeypatch.setattr(pm, "_factor_classes", counted)
        rng = random.Random(79)
        seen = set()
        for index in range(160):
            make = split_group_polymatroid if index % 2 else planted_symmetric_polymatroid
            sig, delta, planted = make(rng, rng.randint(2, 7))
            support = set(Polymatroid(sig, delta).support())
            gamma = rng.choice(sorted(support))
            key = [sorted(gamma[i] for i in c) for c in planted]
            orbit = {g for g in support if [sorted(g[i] for i in c) for c in planted] == key}
            for points in map(frozenset, (support, support - orbit)):
                if not points:
                    continue
                groups = [[i for i in range(sig.k) if sig.n[i] == n] for n in set(sig.n)]
                symmetric = all(
                    swapped(x, a, b) in points
                    for members in groups
                    for a, b in combinations(members, 2)
                    for x in points
                )
                scans.clear()
                try:
                    built = Polymatroid.from_support(sig, points) is not None
                except PreconditionError:
                    built = False
                assert built == (consistent_polymatroid(sig, points) is not None)
                assert len(scans) == (0 if symmetric else 1)
                coded = coded_support(sig, points)
                orbits = pm._orbits(sig, coded, factor_classes(sig, coded))
                assert pm._symmetric_orbits(sig, coded) == orbits
                seen.add((index % 2, symmetric, built))
        assert {(1, False, True), (1, False, False), (0, True, True), (0, True, False)} <= seen


class TestJson:
    def test_round_trip(self):
        assert RankFunction.from_json(TWO_CAMERA.to_json()) == TWO_CAMERA

    def test_duplicate_subset_rejected(self):
        obj = TWO_CAMERA.to_json()
        obj["values"].append({"subset": [1], "delta": 2})
        with pytest.raises(PreconditionError):
            RankFunction.from_json(obj)

    def test_missing_subset_rejected(self):
        obj = TWO_CAMERA.to_json()
        obj["values"] = obj["values"][:-1]
        with pytest.raises(PreconditionError):
            RankFunction.from_json(obj)

    def test_out_of_range_subset_rejected(self):
        obj = TWO_CAMERA.to_json()
        obj["values"][1]["subset"] = [3]
        with pytest.raises(PreconditionError):
            RankFunction.from_json(obj)
