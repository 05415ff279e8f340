"""Exception hierarchy shared across the package, plus the one reader of
input fields, the readers of JSON and library numbers, of number arrays and
integer rows, the one integer rule of the value constructors and the one writer of
decimal strings, which report malformed data as :class:`PreconditionError`.
Each class's ``status`` names the CLI status (see ``cli.EXIT_CODES``) it ends in."""

import re
import sys
from fractions import Fraction
from math import lcm

_EXACT = (int, Fraction)


class MultichowError(Exception):
    """Base class for all errors raised by this package."""

    status = "precondition-failed"


class PreconditionError(MultichowError):
    """Malformed or out-of-range input (bad shapes, invalid rank functions,
    beta vectors with the wrong total, ...)."""


class CycleInputError(PreconditionError):
    """A cycle-tagged multidegree has no polymatroid, so the criteria, whose
    meaning requires an irreducible variety, refuse it."""


class DegenerateInputError(MultichowError):
    """Randomized sampling exhausted its retry budget without finding a
    non-degenerate configuration, or a geometric degeneracy makes the
    requested value undefined (e.g. projecting a camera center)."""

    status = "degenerate-input"


class InapplicableError(MultichowError):
    """The requested construction does not apply to the given input (e.g.
    asking for the degree of an incidence form that is identically zero)."""

    status = "inapplicable"


def field(obj, key, parse):
    """``parse(obj[key])``; a missing key or a value that ``parse`` rejects
    (``"x"``, ``"1/0"``, a string where an array belongs, ...) becomes a
    :class:`PreconditionError` naming the key."""
    try:
        value = obj[key]
    except (KeyError, TypeError):
        raise PreconditionError(f"input needs '{key}'")
    try:
        return parse(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise PreconditionError(f"malformed '{key}': {exc}")


def array(value) -> list:
    """The items of an array: a list, a tuple or any other iterable but a
    string, which would be read character by character, or a dict, which
    would be read by its keys; those and a non-iterable are rejected."""
    if not isinstance(value, (list, tuple)):
        if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
            raise TypeError(f"expected an array, got {type(value).__name__}")
    return list(value)


def integer(value) -> int:
    """A JSON integer or a decimal string; a float or a boolean is refused
    rather than truncated."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        return int(value)
    raise TypeError(f"expected an integer, got {type(value).__name__}")


def ints(value) -> tuple[int, ...]:
    """A JSON array of integers, each read by :func:`integer`."""
    return tuple(map(integer, array(value)))


def exact_ints(values, what: str) -> tuple[int, ...]:
    """The :func:`array` ``values`` as a tuple of ints.  An entry that ``int``
    would change (1.5, ``"2"``) is refused, not truncated, and so is one it
    cannot read (``"x"``, ``None``) or ``values`` not an array; 2.0 reads as 2.
    A refusal names an input whose repr holds an address by its entries or type."""
    entries = None
    try:
        entries = tuple(array(values))
        exact = tuple(map(int, entries))
    except (TypeError, ValueError, OverflowError):
        if re.fullmatch(r"<.* at 0x[0-9a-fA-F]+>", repr(values), re.S):
            values = type(values).__name__ if entries is None else list(entries)
        raise PreconditionError(f"{what} {values} must be integers") from None
    if exact != entries:
        raise PreconditionError(f"{what} {list(entries)} must be integers")
    return exact


def text_number(text: str) -> int | Fraction:
    """A number string, read alike on every Python version: an integer and
    each side of ``"p/q"`` by ``int``, with no space or sign around ``/``; a
    decimal or an exponent, with ``_`` only between digits, by ``Fraction``,
    if the exponent is within the integer-string digit limit."""
    num, slash, den = text.partition("/")
    if slash:
        if num[-1:].isdecimal() and den[:1].isdecimal():
            # strip, not int, drops the whitespace \x1c-\x1f that Fraction allows
            try:
                return Fraction(int(num.lstrip()), int(den.rstrip()))
            except ValueError as exc:
                if "invalid literal" not in str(exc):
                    raise  # a side past the integer-string digit limit
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    try:
        return int(text)
    except ValueError:
        pass
    if limit := sys.get_int_max_str_digits():
        # The exponent as Fraction finds it: e or E, a sign, digits that _ may group.
        found = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
        if found and abs(int(found[1])) > limit:
            raise ValueError(f"exponent {found[1]} exceeds the digit limit {limit}")
    if re.search(r"(?<!\d)_|_(?!\d)", text):  # 3.10's Fraction reads no _ at all
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    return Fraction(text.replace("_", ""))


def exact(x) -> int | Fraction:
    """The one reader of a library number: an ``int`` or a ``Fraction`` as
    it is; a string, or a float by its decimal text (``0.1`` is 1/10), by
    :func:`text_number`; a boolean refused; anything else by ``Fraction``."""
    if type(x) in _EXACT:
        return x
    if isinstance(x, bool):
        raise TypeError("expected a number, got bool")
    if isinstance(x, (str, float)):
        return text_number(str(x))
    return Fraction(x)


def vector(entries, width: int) -> tuple[int | Fraction, ...]:
    """A JSON array of ``width`` numbers, each read by :func:`exact` (an
    ``int`` or a ``Fraction`` kept without the call, so a second read is cheap)."""
    vec = tuple([x if type(x) in _EXACT else exact(x) for x in array(entries)])
    if len(vec) != width:
        raise PreconditionError(f"expected a vector of length {width}")
    return vec


def integer_rows(m, width: int) -> tuple[list[tuple[int, ...]], int]:
    """``(rows, scale)``: each row of the :func:`array` m read by :func:`vector`
    and times ``scale``, the lcm of all denominators, as integers; ints stay as read."""
    rows = [vector(row, width) for row in array(m)]
    if all(type(x) is int for row in rows for x in row):
        return rows, 1
    scale = lcm(*{x.denominator for row in rows for x in row})
    return [tuple([x.numerator * (scale // x.denominator) for x in row]) for row in rows], scale


def decimal(number) -> str:
    """``str(number)`` for output, refusing numbers past Python's
    integer-string digit limit, which stays in force as a guard against
    quadratic-time conversions."""
    try:
        return str(number)
    except ValueError as exc:
        raise PreconditionError(f"result too large to write: {exc}")
