"""Exception hierarchy shared by all aerobot modules.

Every refusal in the package is an AerobotError, a ValueError since each one refuses an
input value. The CLI maps this family, and nothing else, to exit 1. There is one class
per kind of refusal: a number or size outside the bounds its function states is
`OutOfRange`, and its message names the bound that broke.
"""


class AerobotError(ValueError):
    """Base class for all domain errors raised by this package."""


class OutOfRange(AerobotError):
    """A number or size is non-finite or outside its stated bounds, or a result overflows."""


class FileAccess(AerobotError):
    """The CLI cannot read or write a named file (missing, a directory, no permission)."""


# raster -----------------------------------------------------------------

class BadMagic(AerobotError):
    """Input does not start with a supported PNM magic number."""


class TruncatedData(AerobotError):
    """PNM header or raster ends before the declared sample count."""


class NotGrayscale(AerobotError):
    """Operation requires a single-channel image."""


class NotRGB(AerobotError):
    """Operation requires a three-channel image."""


# vision -----------------------------------------------------------------

class DegenerateHistogram(AerobotError):
    """All histogram mass sits in one bin; no two-class split exists."""


class ZeroVariance(AerobotError):
    """All input vectors are identical; covariance is identically zero."""


# neural -----------------------------------------------------------------

class DimensionMismatch(AerobotError):
    """An array's length or shape does not match the size it must have or is paired with."""


class NonBipolarPattern(AerobotError):
    """Pattern entries must all be -1 or +1 (a recall probe may also hold 0)."""


class NonConvergent(AerobotError):
    """Recall found no zero-free fixed point within the sweep budget."""


class EmptyDataset(AerobotError):
    """An input holds no samples: a dataset, histogram, Hopfield pattern list or filter bank."""


# sidewalk ---------------------------------------------------------------

class NoStripFound(AerobotError):
    """No horizontal band produced a wavelet response above the floor."""


# fuzzy ------------------------------------------------------------------

class NoRuleFired(AerobotError):
    """Aggregated output membership is identically zero for an output."""


# flight -----------------------------------------------------------------

class ConfigInvalid(AerobotError):
    """A simulation, inspection, activation or Gabor setting, a rulebase or its query is invalid."""


class ParseError(AerobotError):
    """A CSV/JSON input failed to parse; carries the offending row."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row
