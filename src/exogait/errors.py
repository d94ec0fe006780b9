"""Exception types raised across the toolkit.

Every error that a caller is expected to catch subclasses ExogaitError, so
``except ExogaitError`` at a CLI boundary distinguishes bad data from bugs.
"""


class ExogaitError(Exception):
    """Base class for all toolkit errors."""


# --- file ingestion ---------------------------------------------------------

class MalformedHeader(ExogaitError):
    """Binary header fails its structural checks (magic byte, pointers)."""


class UnsupportedProcessor(ExogaitError):
    """File declares a processor format this reader does not handle."""


class TruncatedData(ExogaitError):
    """File ends before the declared parameter or data section does."""


class MissingRequiredParameter(ExogaitError):
    """A parameter needed to interpret the data section is absent."""


class TooManyMarkers(ExogaitError):
    """Marker count exceeds what the container format can represent."""


class EmptyTrial(ExogaitError):
    """Trial contains neither point nor analog data."""


class MalformedCsv(ExogaitError):
    """CSV text the csv module cannot tokenize, such as an oversized field."""


class BadHeaderRow(ExogaitError):
    """CSV header row does not match the documented column grammar."""


class RaggedRows(ExogaitError):
    """CSV data row has a different cell count than the header."""


class NonNumericCell(ExogaitError):
    """CSV cell that must be numeric cannot be parsed as a number."""


class UnknownEventLabel(ExogaitError):
    """Event context or label is outside the documented vocabulary."""


# --- preprocessing ----------------------------------------------------------

class TooFewValidFrames(ExogaitError):
    """Not enough valid samples to anchor gap interpolation."""


class SeriesTooShort(ExogaitError):
    """Series is shorter than the smoothing penalty's support."""


# --- gait cycles ------------------------------------------------------------

class StrideOutsideSeries(ExogaitError):
    """Stride window falls outside the sampled time range."""


class MissingFootOff(ExogaitError):
    """No foot-off event between a stride's bounding foot strikes."""


# --- statistics -------------------------------------------------------------

class SingularDesign(ExogaitError):
    """Fixed-effect design matrix is rank deficient (a condition is empty)."""


class DidNotConverge(ExogaitError):
    """Iterative fit exhausted its budget without meeting tolerance."""


# --- simulation -------------------------------------------------------------

class NonFiniteState(ExogaitError):
    """Plant or controller state left the finite-float domain."""


class InvalidProfile(ExogaitError):
    """Assistance profile parameters violate their ordering constraints."""


# --- aggregation ------------------------------------------------------------

class EmptyResult(ExogaitError):
    """An aggregation was asked for zero items."""


class AllWeightsZero(ExogaitError):
    """Weighted aggregation received only zero weights."""
