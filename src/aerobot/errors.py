"""Exception hierarchy shared by all aerobot modules.

Every domain failure derives from AerobotError so the CLI can map the
whole family to a single exit code.
"""


class AerobotError(Exception):
    """Base class for all domain errors raised by this package."""


# raster -----------------------------------------------------------------

class BadMagic(AerobotError):
    """Input does not start with a supported PNM magic number."""


class TruncatedData(AerobotError):
    """PNM header or raster ends before the declared sample count."""


class MaxvalUnsupported(AerobotError):
    """PNM maxval outside 1..255."""


class NonPositiveDimensions(AerobotError):
    """PNM header declares a zero or negative width/height."""


class NotGrayscale(AerobotError):
    """Operation requires a single-channel image."""


class NotRGB(AerobotError):
    """Operation requires a three-channel image."""


# vision -----------------------------------------------------------------

class DegenerateHistogram(AerobotError):
    """All histogram mass sits in one bin; no two-class split exists.

    The bin's gray level is carried in ``value``.
    """

    def __init__(self, value: int):
        super().__init__(f"all mass in bin {value}; between-class variance is 0 everywhere")
        self.value = value


class NonPositiveSigma(AerobotError):
    """Kernel scale must be positive and finite."""


class BadRadiusRange(AerobotError):
    """Circle search requires 0 < r_min <= r_max."""


class EmptyBank(AerobotError):
    """Filter bank needs at least one parameter set."""


class ZeroVariance(AerobotError):
    """All input vectors are identical; covariance is identically zero."""


class NegativeRadiance(AerobotError):
    """Emitted power density cannot be negative."""


# neural -----------------------------------------------------------------

class BadTopology(AerobotError):
    """Network needs >= 3 layers, every layer size >= 1."""


class DimensionMismatch(AerobotError):
    """Vector length does not match the expected layer size."""


class NonBipolarPattern(AerobotError):
    """Pattern entries must all be -1 or +1."""


class LengthMismatch(AerobotError):
    """Pattern length does not match the network size."""


class NonConvergent(AerobotError):
    """Recall found no zero-free fixed point within the sweep budget."""


class EmptyDataset(AerobotError):
    """Diagnostics need at least one input vector."""


# sidewalk ---------------------------------------------------------------

class NoStripFound(AerobotError):
    """No horizontal band produced a wavelet response above the floor."""


class BadThresholds(AerobotError):
    """Ternary encoding requires 0 <= dark_max < bright_min <= 1."""


# fuzzy ------------------------------------------------------------------

class NoRuleFired(AerobotError):
    """Aggregated output membership is identically zero for an output."""


# flight -----------------------------------------------------------------

class BadRotorCount(AerobotError):
    """Rotor count must be 4, 6, or 8."""


class SubUnitySafetyFactor(AerobotError):
    """Safety factor below 1 would size thrust under hover weight."""


class ConfigInvalid(AerobotError):
    """A configuration (simulation or inspection) fails validation."""


class ParseError(AerobotError):
    """A CSV/JSON input failed to parse; carries the offending row."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row
