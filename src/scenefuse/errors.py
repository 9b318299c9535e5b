"""Exception taxonomy shared by every scenefuse module, and the checks most parameters share.

A class exists here only if it sets the exit code the command line returns,
or if code in scenefuse catches it by name.  The three families are
:class:`InputError` (3) for a file that cannot be read, written or decoded,
:class:`UsageError` (1) for bad flags, parameters or data, and
:class:`MissingClassifier` (2) for a bundle without the needed part; the
message of each refusal says which check made it.  All derive from
:class:`SceneFuseError`.  Every refusal scenefuse makes is one of these
classes; any other exception escaping it, a builtin ``ValueError`` included,
is a bug.  Counts, seeds, sizes and rates go through :func:`check_int`, and
scales, windows and durations through :func:`check_positive`.
"""

import sys


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


def check_int(value, low: int, name: str) -> None:
    """Refuse, with UsageError, anything but an int of at least `low`; bools and NumPy ints too."""
    if not (type(value) is int and value >= low):
        raise UsageError(f"{name} must be an int of at least {low}, got {value!r}")


def check_positive(value, name: str) -> None:
    """Refuse, with UsageError, anything but a finite int or float above 0; bools too."""
    if not (type(value) in (int, float) and 0 < value <= sys.float_info.max):
        raise UsageError(f"{name} must be a finite number above 0, got {value!r}")
