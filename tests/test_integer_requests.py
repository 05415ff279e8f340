"""Geometry requests on integers from input to answer.

Every number the library reads goes through one reader, so a float is read
from its decimal text as on the command line; JSON cameras, tensors and
candidates are read once into integer forms; ``tensor_contract`` contracts
a tensor's integer numerators slot by slot; and ``sz_membership`` evaluates
one determinant per trial.  Each is checked against a ``Fraction``
reference: the ``Fraction`` constructor, ``exact_ints`` with the range
check, the brute-force contraction and the tensor contraction per trial.
"""

import io
import json
import random
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multichow import (
    CameraConfiguration,
    LinearSpaceTuple,
    MultifocalTensor,
    chow_residual,
    cli,
    multifocal_tensor,
    project_point,
    sz_membership,
    tensor_contract,
)
from multichow import errors, linalg
from multichow.errors import PreconditionError, exact, exact_ints
from multichow.multiview import _image, forms_through, random_cameras, trial_rng

from helpers import (
    rational_cameras,
    reference_contract,
    reference_sz_membership,
    reference_tensor,
    reference_text_number,
)

PROFILES = {
    k: [beta for beta in product((1, 2), repeat=k) if sum(beta) == 4] for k in (2, 3, 4)
}


def outcome(fn, *args):
    """``fn(*args)``, or the message of the ``PreconditionError`` it raises."""
    try:
        return "ok", fn(*args)
    except PreconditionError as exc:
        return "refused", str(exc)


def json_round_trip(obj):
    return json.loads(json.dumps(obj))


# ---------------------------------------------------------------------------
# the one number reader


def test_library_reads_a_float_from_its_decimal_text():
    spaces = LinearSpaceTuple((((0.1, 0, 1),),))
    assert spaces.forms == (((Fraction(1, 10), 0, 1),),)
    assert (spaces._forms, spaces._scales) == ((((1, 0, 10),),), (10,))
    tensor = MultifocalTensor((2, 2), {(1, 1): 0.1, (2, 3): -2.5})
    assert tensor.entries == {(1, 1): Fraction(1, 10), (2, 3): Fraction(-5, 2)}
    ints = random_cameras(2, 5).cameras
    floats = tuple(tuple(tuple(int(x) / 10 for x in row) for row in cam) for cam in ints)
    tenths = tuple(tuple(tuple(Fraction(int(x), 10) for x in row) for row in cam) for cam in ints)
    config = CameraConfiguration(floats)
    assert config == CameraConfiguration(tenths)
    assert (config._rows, config._scales) == (CameraConfiguration(tenths)._rows, (10, 10))
    assert project_point(floats[0], (0.1, 0.2, 0, 1)) == project_point(
        tenths[0], (Fraction(1, 10), Fraction(1, 5), 0, 1)
    )


def test_library_and_cli_read_floats_alike(monkeypatch, capsys):
    cameras = [[[int(x) / 10 for x in row] for row in cam] for cam in random_cameras(4, 6).cameras]
    spaces = [[[0.1, 0.3, 1]], [[1, 0.2, 0]], [[0.7, 1, 1]], [[0, 1, 0.9]]]
    obj = {"cameras": cameras, "spaces": spaces}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
    assert cli.main(["residual"]) == 0
    residual = chow_residual(CameraConfiguration(cameras), LinearSpaceTuple(spaces))
    assert json.loads(capsys.readouterr().out) == {"residual": str(residual)}
    assert residual != 0


def test_library_refuses_a_boolean_as_the_cli_does():
    with pytest.raises(TypeError, match="got bool"):
        LinearSpaceTuple((((True, 0, 1),),))


#: The public readers outside the value classes, each applied to an input in
#: which ``x`` is the one entry that is not an ``int``.
PUBLIC_READERS = {
    "forms_through": lambda x: forms_through(trial_rng(0, 0), (x, 2, 1), 1),
    "integer_rows": lambda x: errors.integer_rows([[x, 1], [1, 10]], 2),
    "cross": lambda x: linalg.cross((x, 1, 2), (3, 4, 5)),
    "proportional": lambda x: linalg.proportional((x, 1, 0), (1, 10, 0)),
    "det": lambda x: linalg.det([[x, 1], [1, 10]]),
    "rref": lambda x: linalg.rref([[x, 1], [1, 10]]),
    "frac_rows": lambda x: linalg.frac_rows([[x, 1]]),
    "mat_vec": lambda x: linalg.mat_vec([[x, 1]], (10, -1)),
    "is_zero_vector": lambda x: linalg.is_zero_vector((x, 0)),
}


@pytest.mark.parametrize("name", list(PUBLIC_READERS))
def test_every_public_reader_reads_a_float_from_its_decimal_text(name):
    read = PUBLIC_READERS[name]
    assert read(0.1) == read(Fraction(1, 10))
    with pytest.raises(TypeError, match="got bool"):
        read(True)


def test_a_float_tenth_gives_the_exact_answers():
    assert forms_through(trial_rng(0, 0), (0.1, 0.2, 1), 1) == ((-96, 8, 8),)
    assert linalg.proportional((0.1, 1, 0), (1, 10, 0))
    assert linalg.det([[0.1, 1], [1, 10]]) == 0


def read_outcome(read, text):
    """``read(text)`` with its type, or the type and message of the refusal."""
    try:
        value = read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return "refused", type(exc), str(exc)
    return "ok", value, type(value)


# Strings at the edges of what ``int`` and ``Fraction`` read, each with the
# outcome ``exact`` must give on every Python version: a value, or None for
# a refusal with the message ``Invalid literal for Fraction: 'text'`` unless
# REFUSALS gives another.
READER_STRINGS = {
    "7": 7, " 7 ": 7, "\t-7\n": -7, "\u00a07\u2003": 7, "+7": 7, "-0": 0, "007": 7,
    "1_000": 1000, "٣": 3, "١٢": 12, "3/4": Fraction(3, 4), " -3/4 ": Fraction(-3, 4),
    "٣/٤": Fraction(3, 4), "1.0": 1, ".5": Fraction(1, 2),
    "1e3": 1000, "1E-2": Fraction(1, 100), "7" * 4300: int("7" * 4300),
    "": None, " ": None, "+": None, "-": None, "+-1": None, "- 1": None, "1 2": None,
    "1__000": None, "_1": None, "1_": None, "0x10": None, "0b1": None, "1/0": None,
    "3 / 4": None, "x": None, "inf": None, "7" * 4301: None, "1/" + "7" * 4301: None,
    "1 /2": None, "1/ 2": None, "1/+2": None, "1/-2": None, "1_0/2": 5, "--1/2": None,
    "1.5/2": None, "x1/2": None, "1 2/3": None, "1/2.5": None,
}
#: The refusals of READER_STRINGS with another message, as a pattern: the
#: integer-string digit limit reads "(4300)" on 3.10, "(4300 digits)" later.
REFUSALS = {
    "1/0": r"Fraction\(1, 0\)\Z",
    "7" * 4301: r"Exceeds the limit \(4300( digits)?\) for integer string conversion",
    "1/" + "7" * 4301: r"Exceeds the limit \(4300( digits)?\) for integer string conversion",
}


@pytest.mark.parametrize("text", list(READER_STRINGS), ids=lambda t: repr(t)[:24])
def test_exact_reads_each_listed_string(text):
    """The outcome and refusal type of ``Fraction``'s 3.11 grammar, rebuilt in
    the test helpers, and the pinned value or refusal message."""
    got, expected = read_outcome(exact, text), read_outcome(reference_text_number, text)
    assert got[:2] == expected[:2]
    if got[0] == "ok":
        assert got[1] == READER_STRINGS[text]
        assert got[2] is (int if read_outcome(int, text)[0] == "ok" else Fraction)
    else:
        assert READER_STRINGS[text] is None
        message = REFUSALS.get(text, re.escape(f"Invalid literal for Fraction: {text!r}") + r"\Z")
        assert re.match(message, got[2]), got[2]


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(
    st.one_of(
        st.text(alphabet=" \t+-_/.eEx0123456789٣", max_size=8),
        st.from_regex(r"\s*[+-]?[0-9٣]+(_[0-9]+)*\s*(/\s*[1-9][0-9]*)?\s*", fullmatch=True),
    )
)
def test_exact_agrees_with_the_3_11_grammar_on_random_strings(text):
    """Against ``Fraction``'s 3.11 grammar, rebuilt in the test helpers, so
    the same on every Python version."""
    got, expected = read_outcome(exact, text), read_outcome(reference_text_number, text)
    assert got[:2] == expected[:2]
    if got[0] == "ok":
        assert got[2] is (int if read_outcome(int, text)[0] == "ok" else Fraction)


def exponent_requests(text):
    """A request per place a number is read from JSON, with ``text`` there."""
    tensor = {"beta": [2, 2], "entries": [{"index": [1, 1], "value": "1"}]}
    cameras = [[[text, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]]
    return {
        "camera entry": ("tensor", {"cameras": cameras, "beta": [2, 2]}),
        "contract coordinate": ("contract", {"tensor": tensor, "coordinates": [[text, 0, 0], [1, 0, 0]]}),
        "tensor value": (
            "contract",
            {
                "tensor": {**tensor, "entries": [{"index": [1, 1], "value": text}]},
                "coordinates": [[1, 0, 0], [1, 0, 0]],
            },
        ),
    }


def run_request(monkeypatch, capsys, command, obj):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
    status = cli.main([command])
    return status, capsys.readouterr()


@pytest.mark.parametrize("where", ["camera entry", "contract coordinate", "tensor value"])
@pytest.mark.parametrize("text", ["1e100000000", "-1.5E-100000000"])
def test_a_huge_exponent_exits_2_at_once(text, where, monkeypatch, capsys):
    """``Fraction`` would build a number with that many digits first."""
    start = time.perf_counter()
    status, out = run_request(monkeypatch, capsys, *exponent_requests(text)[where])
    assert time.perf_counter() - start < 1
    assert status == 2
    assert "exceeds the digit limit" in json.loads(out.err)["error"]["message"]


@pytest.mark.parametrize("where", ["camera entry", "contract coordinate", "tensor value"])
@pytest.mark.parametrize("text, value", [("1e3", "1000"), ("1E-2", "1/100"), ("1e4000", "1" + "0" * 4000)])
def test_an_exponent_within_the_digit_limit_still_reads(text, value, where, monkeypatch, capsys):
    given, spelled = (
        run_request(monkeypatch, capsys, *exponent_requests(entry)[where]) for entry in (text, value)
    )
    assert given[0] == spelled[0] == 0
    assert given[1].out == spelled[1].out


def test_the_exponent_guard_follows_the_digit_limit():
    """Underscores and Unicode digits count as ``Fraction`` counts them, and a
    limit of 0 is no limit, as for ``int``."""
    limit = sys.get_int_max_str_digits()
    try:
        for text in ("1e1_000_000_000", "1E+" + "\u0669" * 9, " 2.5e-99999999 "):
            with pytest.raises(ValueError, match="exceeds the digit limit"):
                exact(text)
        sys.set_int_max_str_digits(640)
        assert exact("1e640") == 10**640
        with pytest.raises(ValueError, match="exceeds the digit limit 640"):
            exact("-1e-641")
        sys.set_int_max_str_digits(0)
        assert exact("1e5000") == 10**5000
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# cameras


def camera_readings(cams):
    """The same cameras as ``Fraction`` rows, and as JSON through every
    reading that applies: ints and decimal strings for integer entries,
    floats and decimal strings with a point for terminating decimals, and
    always ``"p/q"`` strings, alone and mixed with ints."""
    fractions = tuple(tuple(tuple(map(Fraction, row)) for row in cam) for cam in cams)
    entries = [x for cam in fractions for row in cam for x in row]

    def each(write):
        return json_round_trip([[[write(x) for x in row] for row in cam] for cam in fractions])

    readings = [
        each(lambda x: f"{x.numerator}/{x.denominator}"),
        each(lambda x: int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"),
    ]
    if all(x.denominator == 1 for x in entries):
        readings += [each(int), each(lambda x: str(int(x)))]
    if all(10**6 % x.denominator == 0 for x in entries):
        decimal = [each(lambda x: str(Decimal(x.numerator) / x.denominator))]
        readings += decimal + [each(lambda x: float(Decimal(x.numerator) / x.denominator))]
    return fractions, readings


def private_state(config):
    return config.cameras, config._rows, config._scales, config._int_centers


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("family", ["ints", "quarters", "rational"])
def test_camera_json_readings_match_the_fraction_constructor(k, family):
    ints = random_cameras(k, 30 + k).cameras
    cams = {
        "ints": ints,
        "quarters": tuple(
            tuple(tuple(Fraction(x, (4, 5, 8)[(i + c) % 3]) for c, x in enumerate(row))
                  for row in cam)
            for i, cam in enumerate(ints)
        ),
        "rational": rational_cameras(k, 30 + k).cameras,
    }[family]
    fractions, readings = camera_readings(cams)
    assert len(readings) == {"ints": 6, "quarters": 4, "rational": 2}[family]
    expected = private_state(CameraConfiguration(fractions))
    for reading in readings:
        config = CameraConfiguration.from_json({"cameras": reading})
        assert private_state(config) == expected
        assert all(type(x) is Fraction for cam in config.cameras for row in cam for x in row)
        assert all(type(x) is int for cam in config._rows for row in cam for x in row)
        assert all(type(x) is int for center in config._int_centers for x in center)
    if family == "ints":
        config = CameraConfiguration.from_json({"cameras": readings[2]})
        assert config._scales == (1,) * k
        assert config._rows == tuple(tuple(tuple(row) for row in cam) for cam in readings[2])


def test_camera_checks_keep_their_order():
    good = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    flat = [[1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0]]
    cases = [
        ([flat, [[1, 0, 0, 0], [0, 1, 0, 0]]], "a camera must be a 3x4 matrix"),
        ([[[1, 0, 0, 0], [0, 1, 0, 0]], [["x", 0, 0, 0]] * 3], "malformed 'cameras'"),
        ([[[1, 0, 0], good[1], good[2]], [["x", 0, 0, 0]] * 3], "expected a vector of length 4"),
        ([good, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]], "expected a vector of length 4"),
        ([good, flat], "camera 2 does not have rank 3"),
        ([], "need at least one camera"),
    ]
    for cameras, message in cases:
        with pytest.raises(PreconditionError, match=message):
            CameraConfiguration.from_json({"cameras": cameras})
        if not message.startswith("malformed"):
            # The constructor names a shape fault as the CLI's reader does.
            read = outcome(CameraConfiguration.from_json, {"cameras": cameras})
            assert outcome(CameraConfiguration, cameras) == read


# ---------------------------------------------------------------------------
# tensor indices and numerators


def reference_index(index, k):
    """The check the index table replaces: ``exact_ints``, then the range."""
    index = exact_ints(index, "tensor index")
    if len(index) != k or min(index) < 1 or max(index) > 3:
        raise PreconditionError(f"bad tensor index {index}")
    return index


INDEX_KEYS = [
    (1, 2), (1.0, 2), (True, 2), (Fraction(3), 1), (Decimal(2), 3), (3.0, 3.0), (1.5, 2),
    ("2", 1), ("x", 1), (None, 1), (4, 1), (0, 1), (-1, 2), (1,), (1, 2, 3), (), 5, "12",
    (2, 2, 2, 2), (Fraction(5, 2), 1),
]


@pytest.mark.parametrize("key", INDEX_KEYS, ids=repr)
@pytest.mark.parametrize("beta", [(2, 2), (2, 1, 1), (1, 1, 1, 1)])
def test_index_lookup_accepts_what_exact_ints_accepts(key, beta):
    indices = list(product((1, 2, 3), repeat=len(beta)))
    tensor = MultifocalTensor(beta, {index: n for n, index in enumerate(indices, 1)})

    def lookup(index):
        (found,) = MultifocalTensor(beta, {index: 7}).entries
        assert all(type(a) is int for a in found)
        return found

    def getitem(index):
        """The index whose entry ``tensor[index]`` reads."""
        value = tensor[index]
        assert value.denominator == 1
        return indices[int(value) - 1]

    expected = outcome(reference_index, key, len(beta))
    assert outcome(lookup, key) == expected
    assert outcome(getitem, key) == expected
    if isinstance(key, tuple):
        assert outcome(getitem, list(key)) == expected


def test_index_refusals_keep_their_messages():
    assert MultifocalTensor((2, 2), {(1.0, 2): 1}).entries == {(1, 2): 1}
    for key, message in (
        (("2", 1), "tensor index ['2', 1] must be integers"),
        ((4, 1), "bad tensor index (4, 1)"),
        ((1,), "bad tensor index (1,)"),
        ((1, 2, 3), "bad tensor index (1, 2, 3)"),
    ):
        assert outcome(MultifocalTensor, (2, 2), {key: 1}) == ("refused", message)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_numerators_hold_every_entry_in_index_order(k):
    for config in (random_cameras(k, 40), rational_cameras(k, 41)):
        for beta in PROFILES[k]:
            tensor = multifocal_tensor(config, beta)
            from_json = MultifocalTensor.from_json(tensor.to_json())
            for built in (tensor, from_json, reference_tensor(config, beta)):
                assert built == tensor
                assert len(built._numerators) == 3**k
                for index, numerator in zip(product((1, 2, 3), repeat=k), built._numerators):
                    assert type(numerator) is int
                    assert Fraction(numerator, built._denominator) == built[index]


# ---------------------------------------------------------------------------
# contraction


def random_number(rng):
    """0, an int, a ``Fraction`` or a ``"p/q"`` string."""
    n, d = rng.randint(-9, 9), rng.randint(1, 9)
    return rng.choice([0, n, Fraction(n, d), f"{n}/{d}"])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_contract_equals_brute_force_sum(k):
    rng = random.Random(f"contract:{k}")
    configs = (random_cameras(k, 42), rational_cameras(k, 43))
    tensors = [multifocal_tensor(config, beta) for config in configs for beta in PROFILES[k]]
    for beta in PROFILES[k]:
        for density in (0.1, 0.5, 1.0):
            indices = [index for index in product((1, 2, 3), repeat=k) if rng.random() < density]
            tensors.append(MultifocalTensor(beta, {index: random_number(rng) for index in indices}))
    tensors.append(MultifocalTensor(PROFILES[k][0], {}))
    for tensor in tensors:
        for _ in range(10):
            coords = [[random_number(rng) for _ in range(3)] for _ in range(k)]
            assert tensor_contract(tensor, coords) == reference_contract(tensor, coords)


# ---------------------------------------------------------------------------
# sz-test: one determinant per trial against the tensor contraction


def repeated_cameras(k, seed):
    """k cameras whose first two are the same camera."""
    cams = random_cameras(k, seed).cameras
    return CameraConfiguration((cams[0],) + cams[: k - 1])


def sz_candidates(config, rng):
    """Members (images of world points, as ints, ``Fraction``s and "p/q"
    strings), random and small-entry tuples, and tuples of images of other
    cameras' centers, which the always-incident locus can hold without a
    preimage."""
    k = config.k
    candidates = []
    for _ in range(4):
        world = [rng.randint(-6, 6) for _ in range(4)]
        images = [_image(cam, world) for cam in config._rows]
        if all(map(any, images)):
            candidates.append(images)
            candidates.append([[f"{a}/{i + 3}" for a in x] for i, x in enumerate(images)])
    world = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(4))
    if all(any(_image(cam, world)) for cam in config._rows):
        candidates.append([project_point(cam, world) for cam in config.cameras])
    for width in (10, 1):
        for _ in range(4):
            candidate = [[rng.randint(-width, width) for _ in range(3)] for _ in range(k)]
            if all(map(any, candidate)):
                candidates.append(candidate)
    centers = config._int_centers
    for shift in range(1, k):
        images = [_image(cam, centers[(i + shift) % k]) for i, cam in enumerate(config._rows)]
        if all(map(any, images)):
            candidates.append(images)
            mixed = list(images)
            mixed[0] = [rng.randint(-4, 4) for _ in range(2)] + [1]
            candidates.append(mixed)
    return candidates


@pytest.mark.parametrize("k", [2, 3, 4])
def test_determinant_membership_matches_the_contraction(k):
    rng = random.Random(f"sz:{k}")
    configs = [random_cameras(k, 50 + k), rational_cameras(k, 51), repeated_cameras(k, 52)]
    verdicts = {True: 0, False: 0}
    mismatches = []
    for config in configs:
        for beta in PROFILES[k]:
            tensor = reference_tensor(config, beta)
            for seed, candidate in enumerate(sz_candidates(config, rng)):
                for trials in (1, 3):
                    got = sz_membership(config, beta, candidate, trials, seed)
                    if got != reference_sz_membership(config, tensor, candidate, trials, seed):
                        mismatches.append((config, beta, candidate, trials, seed))
                    verdicts[got] += 1
    assert mismatches == []
    assert verdicts[True] > 20 and verdicts[False] > 20, verdicts


def test_members_pass_every_trial():
    for k in (2, 3, 4):
        config = random_cameras(k, 60 + k)
        for beta in PROFILES[k]:
            for world in ((1, -2, 3, 5), (0, 0, 1, 1), (7, 1, -1, 2)):
                images = [_image(cam, world) for cam in config._rows]
                assert sz_membership(config, beta, images, 8, k)


def test_membership_checks_keep_their_order():
    config = random_cameras(3, 70)
    tensor = reference_tensor(config, (2, 1, 1))
    for beta, candidate, trials in (
        ((2, 1, 1), [(1, 0, 0), (0, 1, 0)], 1),
        ((2, 1, 1), [(0, 0, 0), (1, 1, 1), (1, 1, 1)], 1),
        ((2, 1, 1), [(1, 0, 0), (1, 1, 1), (1, 1, 1)], 0),
        ((2, 1, 1), [(1, 0), (1, 1, 1), (1, 1, 1)], 0),
    ):
        assert outcome(sz_membership, config, beta, candidate, trials, 0) == outcome(
            reference_sz_membership, config, tensor, candidate, trials, 0
        )
    for beta in ((2, 2, 0), (2, 1), (1, 1, 1)):
        refused = outcome(sz_membership, config, beta, [(0, 0, 0)], 0, 0)
        assert refused == outcome(multifocal_tensor, config, beta)
        assert refused[0] == "refused"


def test_sz_test_reads_each_number_once(monkeypatch, capsys):
    """JSON integer cameras never reach the string reader
    ``errors.text_number``, and each candidate string is read once."""
    config = random_cameras(3, 71)
    candidate = [[f"{a}/3" for a in _image(cam, (1, 2, 3, 4))] for cam in config._rows]
    cameras = [[[int(x) for x in row] for row in cam] for cam in config.cameras]
    obj = {"cameras": cameras, "beta": [2, 1, 1], "candidate": candidate}
    read = []
    text_number = errors.text_number

    def counted(text):
        read.append(text)
        return text_number(text)

    monkeypatch.setattr(errors, "text_number", counted)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
    assert cli.main(["sz-test", "--trials", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True}
    assert sorted(read) == sorted(x for vec in candidate for x in vec)
