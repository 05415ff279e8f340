"""Every entry point that takes a profile (a codimension profile beta or an
exponent gamma) refuses one of the wrong length, with an entry out of range
or with the wrong total, through ``SpaceSignature.check_profile``."""

import pytest

from multichow import (
    Multidegree,
    Polymatroid,
    chow_form_multidegree,
    criterion_form,
    determines_variety,
    epsilon_oracle,
    intersection_count_oracle,
    is_circuit,
    is_hypersurface,
    is_one_deficient,
    minimal_tight_set,
    multifocal_tensor,
    multiview_multidegree,
    projections_from_support,
    slice_multidegree,
)
from multichow.errors import PreconditionError
from multichow.multidegree import CYCLE
from multichow.multiview import random_cameras
from multichow.polymatroid import SpaceSignature, tight_sets

from helpers import multiview_delta, multiview_sig

# On (P^2)^4 with r = 3: beta sums to r + 1 = 4 and gamma to codim = 5.
SIG, DELTA = multiview_sig(4), multiview_delta(4)
MD = multiview_multidegree(4)
POLYMATROID = Polymatroid(SIG, DELTA)
CAMERAS = random_cameras(4, 0)

VALID = {"beta": (1, 1, 1, 1), "gamma": (2, 1, 1, 1)}
FAULTS = {
    "beta": {
        "wrong-length": (1, 1, 1, 1, 0),
        "above-range": (3, 1, 0, 0),
        "negative": (-1, 1, 2, 2),
        "wrong-total": (1, 1, 1, 0),
    },
    "gamma": {
        "wrong-length": (2, 1, 1, 1, 0),
        "above-range": (3, 1, 1, 0),
        "negative": (-1, 2, 2, 2),
        "wrong-total": (1, 1, 1, 1),
    },
}

ENTRY_POINTS = {
    "Multidegree": ("gamma", lambda g: Multidegree(SIG, {g: 1}, CYCLE)),
    "projections_from_support": ("gamma", lambda g: projections_from_support(SIG, [g])),
    "intersection_count_oracle": (
        "gamma", lambda g: intersection_count_oracle(CAMERAS, g, 1, 0)
    ),
    "criterion_form": ("beta", lambda b: criterion_form(MD, b)),
    "is_hypersurface": ("beta", lambda b: is_hypersurface(MD, b)),
    "determines_variety": ("beta", lambda b: determines_variety(MD, b)),
    "chow_form_multidegree": ("beta", lambda b: chow_form_multidegree(MD, b)),
    "slice_multidegree": ("beta", lambda b: slice_multidegree(MD, [1], b)),
    "Polymatroid.is_one_deficient": ("beta", POLYMATROID.is_one_deficient),
    "Polymatroid.minimal_tight_set": ("beta", POLYMATROID.minimal_tight_set),
    "Polymatroid.is_circuit": ("beta", POLYMATROID.is_circuit),
    "is_one_deficient": ("beta", lambda b: is_one_deficient(SIG, DELTA, b)),
    "minimal_tight_set": ("beta", lambda b: minimal_tight_set(SIG, DELTA, b)),
    "is_circuit": ("beta", lambda b: is_circuit(SIG, DELTA, b)),
    "tight_sets": ("beta", lambda b: tight_sets(SIG, DELTA, b)),
    "multifocal_tensor": ("beta", lambda b: multifocal_tensor(CAMERAS, b)),
    "epsilon_oracle": ("beta", lambda b: epsilon_oracle(CAMERAS, b, 1, 0)),
}


@pytest.mark.parametrize("fault", sorted(FAULTS["beta"]))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_faulty_profile_rejected(entry, fault):
    kind, call = ENTRY_POINTS[entry]
    with pytest.raises(PreconditionError):
        call(FAULTS[kind][fault])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_valid_profile_accepted(entry):
    kind, call = ENTRY_POINTS[entry]
    call(VALID[kind])


def test_check_profile():
    sig = SpaceSignature((2, 1, 3), 3)
    assert sig.check_profile([1, 0, 2.0], 3) == (1, 0, 2)
    for vec in ((1, 2), (1, 2, 0), (-1, 1, 3), (1, 1, 2), (1.5, 0, 2.5), ("1", 0, "2")):
        with pytest.raises(PreconditionError):
            sig.check_profile(vec, 3)


def test_tight_sets_rejects_a_short_beta():
    # zip used to cut (2, 2) to the first two factors and report {1, 2, 3}.
    with pytest.raises(PreconditionError):
        tight_sets(multiview_sig(3), multiview_delta(3), (2, 2))
