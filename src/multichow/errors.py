"""Exception hierarchy shared across the package, plus the one reader of
input fields, the two readers of JSON numbers and the one writer of decimal
strings, which report malformed data as :class:`PreconditionError`.  Each
class's ``status`` names the CLI status (see ``cli.EXIT_CODES``) it ends in."""

from fractions import Fraction


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
    """The items of a JSON array; anything else (a string in particular,
    which would otherwise be read character by character) is rejected."""
    if not isinstance(value, (list, tuple)):
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


def rational(value) -> Fraction:
    """An exact rational from a JSON number or a string such as ``"-2/3"``;
    a float is read from its decimal text (``0.1`` is 1/10) and a boolean is
    refused."""
    if isinstance(value, bool):
        raise TypeError("expected a number, got bool")
    return Fraction(str(value) if isinstance(value, float) else value)


def decimal(number) -> str:
    """``str(number)`` for output, refusing numbers past Python's
    integer-string digit limit, which stays in force as a guard against
    quadratic-time conversions."""
    try:
        return str(number)
    except ValueError as exc:
        raise PreconditionError(f"result too large to write: {exc}")
