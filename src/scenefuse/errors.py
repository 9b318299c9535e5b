"""Exception taxonomy shared by every scenefuse module.

Each condition a caller can reasonably branch on gets its own class; all of
them derive from :class:`SceneFuseError` so blanket handling stays easy.
Every class also belongs to one family whose ``exit_code`` the command line
returns: :class:`InputError` (3) for a file that cannot be read, written or
decoded, :class:`UsageError` (1) for bad flags, parameters or data, and
:class:`MissingClassifier` (2) for a bundle without the needed part.
Every refusal scenefuse makes is one of these classes; any other exception
escaping it, a builtin ``ValueError`` included, is a bug.
"""


class SceneFuseError(Exception):
    """Base class for all scenefuse domain errors."""

    exit_code: int


class InputError(SceneFuseError):
    """An input or output file could not be read, written or decoded."""

    exit_code = 3


class UsageError(SceneFuseError, ValueError):
    """Flags, parameters or training data the operation cannot accept.

    Also a ``ValueError``, so code that catches bad values the builtin way
    catches these refusals too.
    """

    exit_code = 1


# --- audio ingestion -------------------------------------------------------

class MalformedRiff(InputError):
    """RIFF/WAVE container is structurally broken (magic, chunk sizes)."""


class UnsupportedFormat(InputError):
    """WAV is intact but not 16-bit integer PCM with 1-2 channels."""


class EmptyData(InputError):
    """WAV data chunk holds zero samples."""


class ClipTooShort(InputError):
    """Clip is shorter than the requested analysis window."""


class BadProfile(UsageError):
    """Synthesis envelope is empty or has an invalid band/gain."""


# --- clustering ------------------------------------------------------------

class ZeroK(UsageError):
    """Requested cluster count is below one."""


class TooFewPoints(UsageError):
    """Fewer training points than clusters."""


class DimensionMismatch(UsageError):
    """Vectors of different lengths were mixed together."""


# --- image ingestion -------------------------------------------------------

class BadMagic(InputError):
    """Image bytes do not start with the P6 magic."""


class BadHeader(InputError):
    """PPM header fields are unparseable or out of range."""


class UnsupportedMaxval(InputError):
    """PPM maxval other than 255."""


class TruncatedPixelData(InputError):
    """Pixel payload length disagrees with the header dimensions."""


class DegenerateImage(InputError):
    """Image has fewer distinct colors than the palette asks for."""


class BadSpec(UsageError):
    """Synthetic image spec has bad colors or fractions not summing to 1."""


# --- scene model -----------------------------------------------------------

class EmptyTrainingSet(UsageError):
    """No labeled examples for `train_classifier` or `train_actions`."""


class ModalityMismatch(UsageError):
    """Acoustic data handed to a visual consumer or vice versa."""


# --- fusion ----------------------------------------------------------------

class ClockSkew(UsageError):
    """An event timestamp is not finite, or precedes one already observed."""


# --- action learning -------------------------------------------------------

class ConflictingExamples(UsageError):
    """The same scene label maps to two different action codes."""


class UnknownLabel(UsageError):
    """Scene label absent from the trained vocabulary."""


# --- persistence / CLI -----------------------------------------------------

class IoError(InputError):
    """A bundle, script, input or output file could not be read or written.

    Distinct from the builtin ``IOError`` alias.  Raised by ``read_bytes``,
    ``save_bundle`` and the CLI's writes, it wraps the underlying ``OSError``,
    or the ``ValueError`` of a path holding a NUL byte.
    """


class BadVersion(InputError):
    """Bundle format_version is not one this build understands."""


class SchemaError(InputError):
    """Bundle or event script parsed but does not match the schema."""


class MissingClassifier(SceneFuseError):
    """Bundle lacks the classifier or net the command needs."""

    exit_code = 2
