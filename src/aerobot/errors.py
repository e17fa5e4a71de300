"""One class per kind of refusal, all under AerobotError, and `shown` for their messages.

AerobotError is a ValueError; the CLI maps this family, and nothing else, to exit 1.
"""


def shown(value) -> str:
    """value as an f-string prints it, or an int too long for str() as its bit count."""
    try:
        return format(value)
    except ValueError:  # an int past sys.get_int_max_str_digits() digits
        return "-" * (value < 0) + f"<{value.bit_length()}-bit int>"


class AerobotError(ValueError):
    """Base class for all domain errors raised by this package."""


class OutOfRange(AerobotError):
    """A number or size is non-finite or outside its stated bounds, or a result overflows."""


class FileAccess(AerobotError):
    """The CLI cannot read or write a named file (missing, a directory, no permission)."""


class ParseError(AerobotError):
    """A PNM, CSV or JSON input failed to parse; a CSV error carries its row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class DimensionMismatch(AerobotError):
    """An array's length or shape, or an image's channel count, is not the one it must have."""


class ZeroVariance(AerobotError):
    """The input has no spread: identical vectors, or one gray level."""


class EmptyDataset(AerobotError):
    """An input holds no samples: a dataset, histogram, Hopfield pattern list or filter bank."""


class NonBipolarPattern(AerobotError):
    """Pattern entries must all be -1 or +1 (a recall probe may also hold 0)."""


class NonConvergent(AerobotError):
    """Recall found no zero-free fixed point within the sweep budget."""


class NoStripFound(AerobotError):
    """No horizontal band produced a wavelet response above the floor."""


class NoRuleFired(AerobotError):
    """Aggregated output membership is identically zero for an output."""


class ConfigInvalid(AerobotError):
    """A simulation, inspection, activation or Gabor setting, a rulebase or its query is invalid."""
