"""Exception hierarchy shared by every cmcrank module.

All library errors derive from :class:`CmcRankError` so callers can catch one
base class; the concrete subclasses mirror the failure modes of each
subsystem (shape checks, file formats, sampling preconditions, ...).
"""


class CmcRankError(Exception):
    """Base class for all cmcrank errors."""


class InvalidShape(CmcRankError):
    """Array shapes or lengths are inconsistent with the operation."""


class NumericError(CmcRankError):
    """Non-finite values where finite ones are required."""


class InvalidConfig(CmcRankError):
    """A configuration value is out of range or internally inconsistent."""


class StateError(CmcRankError):
    """An operation was called in an invalid order (e.g. backward twice)."""


class FormatError(CmcRankError):
    """A persisted file is corrupt, truncated, or of the wrong format."""


class DuplicateId(CmcRankError):
    """An id appeared more than once where ids must be unique."""


class MissingCandidate(CmcRankError):
    """A candidate id could not be resolved to an embedding."""


class PoolTooSmall(CmcRankError):
    """The negative-sampling pool has fewer entries than required."""


class InvalidIndex(CmcRankError):
    """A positional index (e.g. the gold position) is out of range."""


class InvalidInput(CmcRankError):
    """Input data is empty or otherwise unusable."""


class UndefinedMetric(CmcRankError):
    """A metric's denominator is empty for the given evaluation set."""
