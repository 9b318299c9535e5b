"""Exception taxonomy shared by every scenefuse module, and the checks most parameters share.

A class exists here only if it sets the exit code the command line returns,
or if code in scenefuse catches it by name.  The three families are
:class:`InputError` (3) for a file that cannot be read, written or decoded,
:class:`UsageError` (1) for bad flags, parameters or data, and
:class:`MissingClassifier` (2) for a bundle without the needed part; the
message of each refusal says which check made it.  All derive from
:class:`SceneFuseError`.  Every refusal scenefuse makes is one of these
classes; any other exception escaping it, a builtin ``ValueError`` included,
is a bug.  Counts, seeds, sizes and rates go through :func:`check_int`,
scales, windows and durations through :func:`check_positive`, and any
other bounded number, such as a confidence, gain or time, through
:func:`check_range`.  A count that sizes an array also goes through
:func:`check_array_size` before the array is made, and an array handed in
goes through :func:`check_array`, which tests its class, dtype and rank and
that no axis is empty; finiteness is each caller's own test.

Numbers, text and arrays are checked wherever they cross a public
boundary.  An argument typed as one of scenefuse's own classes is trusted:
each of those classes checks its fields when it is built, so an object of
another class in its place, such as ``None``, may raise a builtin error.
"""

import sys

import numpy as np


class SceneFuseError(Exception):
    """Base class for all scenefuse domain errors."""

    exit_code: int


class InputError(SceneFuseError):
    """An input or output file could not be read, written or decoded."""

    exit_code = 3


class UsageError(SceneFuseError):
    """Flags, parameters or training data the operation cannot accept."""

    exit_code = 1


class MissingClassifier(SceneFuseError):
    """Bundle lacks the classifier or net the command needs."""

    exit_code = 2


_MAX = sys.float_info.max  # the default bounds of a range, so it holds every finite number


def _shown(value) -> str:
    """`repr(value)`, or a stand-in if it holds an int too long for Python to write in decimal."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits(), maybe inside a list
        return f"<{type(value).__name__} too long to write out>"


def check_int(value, low: int, name: str) -> None:
    """Refuse, with UsageError, anything but an int of at least `low`; bools and NumPy ints too."""
    if not (type(value) is int and value >= low):
        raise UsageError(f"{name} must be an int of at least {low}, got {_shown(value)}")


def check_positive(value, name: str) -> None:
    """Refuse, with UsageError, anything but a finite int or float above 0; bools too."""
    if not (type(value) in (int, float) and 0 < value <= _MAX):
        raise UsageError(f"{name} must be a finite number above 0, got {_shown(value)}")


def check_range(value, name: str, low: float = -_MAX, high: float = _MAX) -> None:
    """Refuse, with UsageError, anything but a float or float-sized int in [low, high]; NaN too."""
    sized_int = type(value) is int and abs(value) <= _MAX  # not a bool, and no float overflows
    if not ((type(value) is float or sized_int) and low <= value <= high):
        span = ", ".join({-_MAX: "-max", _MAX: "max"}.get(end, repr(end)) for end in (low, high))
        raise UsageError(f"{name} must be a number in [{span}], got {_shown(value)}")


def check_array_size(count: int, item_bytes: int, name: str) -> None:
    """Refuse, with UsageError, a count of `item_bytes`-byte entries beyond NumPy's size limit."""
    if count * item_bytes > sys.maxsize:  # the most bytes one NumPy array may span
        raise UsageError(f"{name} must fit an array in {sys.maxsize} bytes, got {_shown(count)}")


def check_array(value, name: str, dtype, ndim: int) -> None:
    """Refuse, with UsageError, anything but an `ndim`-D `dtype` NumPy array with no axis empty."""
    shaped = isinstance(value, np.ndarray) and value.dtype == dtype and value.ndim == ndim
    if not (shaped and value.size):
        kind = f"{ndim}-D {np.dtype(dtype)} NumPy array"
        raise UsageError(f"{name} must be a {kind} with no empty axis")
