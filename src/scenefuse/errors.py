"""Exception taxonomy shared by every scenefuse module.

A class exists here only if it sets the exit code the command line returns,
or if code in scenefuse catches it by name.  The three families are
:class:`InputError` (3) for a file that cannot be read, written or decoded,
:class:`UsageError` (1) for bad flags, parameters or data, and
:class:`MissingClassifier` (2) for a bundle without the needed part; the
message of each refusal says which check made it.  All derive from
:class:`SceneFuseError`.  Every refusal scenefuse makes is one of these
classes; any other exception escaping it, a builtin ``ValueError`` included,
is a bug.
"""


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


class UnknownLabel(UsageError):
    """Scene label absent from the trained vocabulary; `action_repl` catches it to re-prompt."""
