"""CLI fuzzing: one field of a golden input replaced by a malformed value.

Whatever the value, a request ends in a documented exit code: 0 with JSON
on stdout, or 2, 3 or 4 with ``{"error": {"status", "message"}}`` on
stderr, where the status names the exit code.  Never a traceback.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multichow import cli

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


def _object_inputs():
    for case in GOLDEN["cases"]:
        try:
            obj = json.loads(case["stdin"])
        except ValueError:
            continue
        if isinstance(obj, dict) and obj:
            yield case["argv"], obj


INPUTS = list(_object_inputs())

# Integers stay small so that enumerations over the mutated inputs stay
# small; the large ones below are rejected or used without enumeration.
WEIRD = st.one_of(
    st.sampled_from([None, "x", "1/0", "12", [], {}, 0.5, -2.5, 1e300, 10**30, -(10**30)]),
    st.integers(-3, 30),
)


def paths(value, prefix=()):
    """Every position in a JSON value: the keys and indices leading to it."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from paths(item, prefix + (key,))


def replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


@st.composite
def mutated_requests(draw):
    argv, obj = draw(st.sampled_from(INPUTS))
    path = draw(st.sampled_from(list(paths(obj))))
    return argv, replaced(obj, path, draw(WEIRD))


@pytest.mark.filterwarnings("ignore:camera configuration is not generic")
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(mutated_requests())
def test_mutated_input_ends_in_a_documented_exit(request):
    argv, obj = request
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(obj))):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())["error"]
        assert sorted(error) == ["message", "status"]
        assert cli.EXIT_CODES[error["status"]] == code
