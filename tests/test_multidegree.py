"""Multidegree construction, criteria, chow degrees, slicing and addition."""

import random
import re
from itertools import product

import pytest

from multichow import (
    Multidegree,
    SpaceSignature,
    chow_form_multidegree,
    criterion_form,
    determines_variety,
    is_hypersurface,
    is_one_deficient,
    multidegree_add,
    slice_multidegree,
)
from multichow import multidegree as mdg
from multichow import polymatroid as pm
from multichow.errors import CycleInputError, InapplicableError, PreconditionError
from multichow.multidegree import CYCLE, VARIETY
from multichow.multiview import multiview_multidegree
from multichow.polymatroid import support_from_projections

from helpers import (
    frobenius_multidegree,
    product_of_curves_multidegree,
    random_polymatroid,
    rank_of,
    sum_over,
)

SIG22 = SpaceSignature((2, 2), 2)


class TestConstruction:
    def test_equality_reads_signature_coefficients_and_tag(self):
        md = multiview_multidegree(4)
        assert md == multiview_multidegree(4)
        assert md != Multidegree(md.sig, md.coeffs, tag=CYCLE)
        with pytest.raises(TypeError):
            hash(md)

    def test_wrong_total_degree_rejected(self):
        with pytest.raises(PreconditionError):
            Multidegree(SIG22, {(1, 0): 1})

    def test_out_of_range_gamma_rejected(self):
        with pytest.raises(PreconditionError):
            Multidegree(SIG22, {(3, -1): 1})

    def test_non_integer_gamma_rejected(self):
        # Truncating (1.2, 1) to (1, 1) used to let its coefficient 3 be
        # overwritten by the 2 at (1, 1).
        with pytest.raises(PreconditionError):
            Multidegree(SIG22, {(1.2, 1): 3, (1, 1): 2}, CYCLE)

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(PreconditionError):
            Multidegree(SIG22, {(1, 1): 0, (2, 0): 1})

    def test_inconsistent_support_needs_cycle_tag(self):
        # {(2,0),(0,2)} implies delta({i})=2 on both factors, whose full
        # lattice-point set also contains (1,1).
        with pytest.raises(PreconditionError):
            Multidegree(SIG22, {(2, 0): 1, (0, 2): 1})
        md = Multidegree(SIG22, {(2, 0): 1, (0, 2): 1}, tag=CYCLE)
        assert md.tag == CYCLE

    def test_symmetric_support_failing_the_exchange_axiom_needs_cycle_tag(self, monkeypatch):
        """The multiview k=8 exponents of type ``alpha = (2, 1, 0, ...)``
        alone form one orbit, so the exchange test decides: x = 2e_1 + e_2
        and y = e_7 + 2e_8 have no exchange, since ``x - e_1 + e_j`` has type
        (1, 1, 1)."""
        sig = SpaceSignature((2,) * 8, 3)
        support = [g for g in multiview_multidegree(8).support() if 0 in g]

        def refused(*args):
            raise AssertionError("projections_from_support called")

        def refused_table(*args):
            raise AssertionError("packed subset table built")

        monkeypatch.setattr(pm, "projections_from_support", refused)
        monkeypatch.setattr(mdg, "projections_from_support", refused)
        monkeypatch.setattr(pm._Packed, "sums", refused_table)
        monkeypatch.setattr(pm._Packed, "pack", refused_table)
        with pytest.raises(PreconditionError, match="fails the polymatroid consistency check"):
            Multidegree(sig, {g: 1 for g in support})
        assert Multidegree(sig, {g: 1 for g in support}, tag=CYCLE).tag == CYCLE

    def test_rank_function_readout(self):
        delta = frobenius_multidegree().rank_function()
        assert (rank_of(delta, [1]), rank_of(delta, [2]), rank_of(delta, [1, 2])) == (2, 2, 2)

    def test_homogeneous_support(self):
        for md in (frobenius_multidegree(), multiview_multidegree(4)):
            for gamma in md.support():
                assert sum(gamma) == md.sig.codim()


class TestCriterionForm:
    def test_frobenius(self):
        assert criterion_form(frobenius_multidegree(2), (2, 1)) == (2, 1)

    def test_product_of_curves(self):
        assert criterion_form(product_of_curves_multidegree(2, 3), (1, 2)) == (0, 6)

    def test_absent_coefficients_give_zero(self):
        md = Multidegree(SIG22, {(2, 0): 1}, tag=CYCLE)
        assert criterion_form(md, (2, 1)) == (0, 0)

    def test_malformed_beta_rejected(self):
        with pytest.raises(PreconditionError):
            criterion_form(frobenius_multidegree(), (1, 1))


class TestCriteria:
    def test_frobenius_is_hypersurface(self):
        assert is_hypersurface(frobenius_multidegree(2), (1, 2))

    def test_product_of_curves_is_hypersurface(self):
        assert is_hypersurface(product_of_curves_multidegree(), (1, 2))

    def test_beta_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            is_hypersurface(product_of_curves_multidegree(), (3, 0))

    def test_frobenius_determines(self):
        assert determines_variety(frobenius_multidegree(2), (2, 1))

    def test_product_of_curves_does_not_determine(self):
        assert not determines_variety(product_of_curves_multidegree(), (1, 2))

    def test_multiview_k3_determines(self):
        assert determines_variety(multiview_multidegree(3), (2, 1, 1))

    def test_cycle_tagged_inputs_refused(self):
        md = Multidegree(SIG22, {(2, 0): 1, (0, 2): 1}, tag=CYCLE)
        with pytest.raises(CycleInputError):
            is_hypersurface(md, (2, 1))
        with pytest.raises(CycleInputError):
            determines_variety(md, (2, 1))

    def test_determining_implies_hypersurface(self):
        md = multiview_multidegree(3)
        for raw in product(range(3), repeat=3):
            if sum(raw) != 4:
                continue
            if determines_variety(md, raw):
                assert is_hypersurface(md, raw)

    def test_equivalence_with_inequality_form(self):
        # The coefficient-based criteria must match the projection-dimension
        # inequalities on every fixture and in-range beta.
        fixtures = [
            frobenius_multidegree(2),
            product_of_curves_multidegree(2, 3),
            multiview_multidegree(2),
            multiview_multidegree(3),
        ]
        for md in fixtures:
            sig = md.sig
            delta = md.rank_function()
            for beta in product(*(range(n + 1) for n in sig.n)):
                if sum(beta) != sig.r + 1:
                    continue
                assert is_hypersurface(md, beta) == is_one_deficient(sig, delta, beta)
                strict = all(
                    sum_over(beta, mask) <= delta.values[mask]
                    for mask in range(1, (1 << sig.k) - 1)
                )
                assert determines_variety(md, beta) == strict


class TestChowFormMultidegree:
    def test_frobenius_both_profiles(self):
        md = frobenius_multidegree(2)
        assert chow_form_multidegree(md, (2, 1)) == (2, 1)
        assert chow_form_multidegree(md, (1, 2)) == (4, 2)

    def test_multiview_tensors_are_multilinear(self):
        assert chow_form_multidegree(multiview_multidegree(2), (2, 2)) == (1, 1)
        assert chow_form_multidegree(
            multiview_multidegree(4), (1, 1, 1, 1)
        ) == (1, 1, 1, 1)

    def test_inapplicable_when_not_a_hypersurface(self):
        md = Multidegree(SIG22, {(2, 0): 1}, tag=CYCLE)
        with pytest.raises(InapplicableError):
            chow_form_multidegree(md, (2, 1))

    def test_entries_are_stored_coefficients_or_zero(self):
        md = frobenius_multidegree(3)
        stored = set(md.coeffs.values()) | {0}
        for raw in product(range(3), repeat=2):
            if sum(raw) != 3:
                continue
            for entry in criterion_form(md, raw):
                assert entry in stored


class TestSlice:
    def test_multiview_k3_slice_first_factor(self):
        md = multiview_multidegree(3)
        sliced = slice_multidegree(md, [1], (2, 1, 1))
        assert sliced.sig == SpaceSignature((2, 2), 1)
        assert dict(sliced.coeffs) == {(1, 2): 1, (2, 1): 1}
        assert sliced.tag == CYCLE

    def test_frobenius_slice_second_factor(self):
        sliced = slice_multidegree(frobenius_multidegree(2), [2], (2, 1))
        assert sliced.sig == SpaceSignature((2,), 1)
        assert dict(sliced.coeffs) == {(1,): 2}

    def test_empty_subset_rejected(self):
        with pytest.raises(PreconditionError):
            slice_multidegree(frobenius_multidegree(), [], (2, 1))

    def test_full_subset_rejected(self):
        with pytest.raises(PreconditionError):
            slice_multidegree(frobenius_multidegree(), [1, 2], (2, 1))

    def test_over_slicing_rejected(self):
        with pytest.raises(PreconditionError):
            slice_multidegree(multiview_multidegree(3), [1, 2], (2, 2, 0))

    def test_slice_chow_compatibility(self):
        # Slicing away the factors of I and reading the chow degree of the
        # rest must match the corresponding entries of the full chow degree.
        for k, beta in ((3, (2, 1, 1)), (3, (1, 2, 1)), (4, (1, 1, 1, 1))):
            md = multiview_multidegree(k)
            full = chow_form_multidegree(md, beta)
            for mask in range(1, (1 << k) - 1):
                subset = [i + 1 for i in range(k) if mask >> i & 1]
                kept = [i for i in range(k) if not mask >> i & 1]
                sliced = slice_multidegree(md, subset, beta)
                rest = chow_form_multidegree(
                    sliced, tuple(beta[i] for i in kept)
                )
                assert rest == tuple(full[i] for i in kept)


class TestAdd:
    def test_sparse_union(self):
        sig = SpaceSignature((1, 1), 1)
        a = Multidegree(sig, {(1, 0): 1})
        b = Multidegree(sig, {(0, 1): 2})
        total = multidegree_add(a, b)
        assert dict(total.coeffs) == {(1, 0): 1, (0, 1): 2}
        assert total.tag == CYCLE

    def test_zero_cycle_is_identity(self):
        md = frobenius_multidegree(2)
        zero = Multidegree(SIG22, {}, tag=CYCLE)
        assert dict(multidegree_add(md, zero).coeffs) == dict(md.coeffs)

    def test_doubling_doubles_chow_degree(self):
        md = multiview_multidegree(2)
        doubled = multidegree_add(md, md)
        assert all(a == 2 for a in doubled.coeffs.values())
        assert chow_form_multidegree(doubled, (2, 2)) == (2, 2)

    def test_signature_mismatch_rejected(self):
        message = "signature mismatch: SpaceSignature(n=(2, 2), r=2) vs SpaceSignature(n=(2, 2), r=3)"
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            multidegree_add(frobenius_multidegree(), multiview_multidegree(2))


class TestJson:
    def test_round_trip(self):
        md = frobenius_multidegree(5)
        assert Multidegree.from_json(md.to_json()) == md

    def test_big_coefficients_as_decimal_strings(self):
        md = Multidegree(SIG22, {(1, 1): 10**30}, tag=CYCLE)
        obj = md.to_json()
        assert obj["coefficients"][0]["a"] == str(10**30)
        assert Multidegree.from_json(obj).coefficient((1, 1)) == 10**30

    def test_duplicate_gamma_rejected(self):
        obj = frobenius_multidegree().to_json()
        obj["coefficients"].append({"gamma": [1, 1], "a": "7"})
        with pytest.raises(PreconditionError):
            Multidegree.from_json(obj)

    def test_missing_fields_rejected(self):
        with pytest.raises(PreconditionError):
            Multidegree.from_json({"n": [2, 2], "coefficients": []})

    def test_default_tag_is_variety(self):
        obj = frobenius_multidegree().to_json()
        del obj["tag"]
        assert Multidegree.from_json(obj).tag == VARIETY

    def test_random_variety_multidegrees_round_trip(self):
        rng = random.Random(53)
        built = 0
        while built < 20:
            sig, delta = random_polymatroid(rng, rng.randint(1, 4))
            support = support_from_projections(sig, delta)
            if not support:
                continue
            md = Multidegree(
                sig, {g: rng.randint(1, 9) for g in support}, tag=VARIETY
            )
            assert Multidegree.from_json(md.to_json()) == md
            built += 1


def variety_fixtures(source):
    """The multiview multidegree at k = ``source``, Frobenius, the product of
    curves, or 40 random variety multidegrees on random-polymatroid supports."""
    if source == "frobenius":
        return [frobenius_multidegree(2)]
    if source == "product-of-curves":
        return [product_of_curves_multidegree(2, 3)]
    if source != "random":
        return [multiview_multidegree(source)]
    rng, mds = random.Random(83), []
    for _ in range(40):
        sig, delta = random_polymatroid(rng, rng.randint(1, 6))
        support = support_from_projections(sig, delta)
        mds.append(Multidegree(sig, {g: rng.randint(1, 9) for g in support}))
    return mds


VARIETY_SOURCES = [*range(2, 9), "frobenius", "product-of-curves", "random"]


@pytest.mark.parametrize("source", VARIETY_SOURCES)
def test_criterion_forms_match_criterion_form(source):
    """``criterion_forms``, read by code lookups, gives ``criterion_form`` at
    every in-range beta with ``|beta| = r + 1``, in lexicographic order, on
    every variety fixture."""
    for md in variety_fixtures(source):
        forms = mdg.criterion_forms(md)
        betas = list(pm.profiles(md.sig.n, md.sig.r + 1))
        assert [beta for beta, _ in forms] == betas
        assert all(form == criterion_form(md, beta) for beta, form in forms)


@pytest.mark.parametrize("source", VARIETY_SOURCES)
def test_tight_set_is_where_the_criterion_form_is_nonzero(source):
    """The gather side (``Polymatroid.tight_set``, k lookups of one beta's
    criterion exponents) and the scatter side (``criterion_forms``, one code
    lookup per beta and factor) agree on every variety fixture: the tight set
    is the 1-based nonzero positions of the form, and ``betas`` keeps the
    profiles whose form is nonzero or has no zero entry."""
    for md in variety_fixtures(source):
        polymatroid, forms = md.polymatroid(), mdg.criterion_forms(md)
        for beta, form in forms:
            assert polymatroid.tight_set(beta) == tuple(j for j, c in enumerate(form, 1) if c)
        assert polymatroid.betas("hypersurface") == tuple(b for b, form in forms if any(form))
        assert polymatroid.betas("determining") == tuple(b for b, form in forms if all(form))
