"""Exception types shared across the package.

The CLI maps these onto stable exit codes, so new error conditions should
reuse one of the classes below rather than raising bare exceptions.
"""


class MpxlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(MpxlabError, ValueError):
    """A constructor or operation received an argument outside its domain."""


class TagOverflowError(MpxlabError, ValueError):
    """A tag field does not fit the configured bit layout."""


class DoubleReadyError(MpxlabError, RuntimeError):
    """A partition was marked ready twice in one iteration."""


class InvalidTransitionError(MpxlabError, RuntimeError):
    """A pready op names a receive request or runs outside a partitioned run."""


class DomainError(MpxlabError, ValueError):
    """A closed-form formula was evaluated outside its validity domain."""


class MappingError(MpxlabError, ValueError):
    """A channel-mapping policy cannot be applied to the given operation."""


class OracleBoundError(MpxlabError, ValueError):
    """The brute-force oracle was asked to enumerate too large a universe."""


class IncompleteAssignmentError(MpxlabError, ValueError):
    """An assignment does not cover every operation of its pattern."""


class UnsupportedPatternError(MpxlabError, ValueError):
    """A mechanism cannot express the given communication pattern."""


class SpecFileError(MpxlabError, ValueError):
    """A scenario spec file is malformed or carries unknown keys."""


class InvalidAssignmentError(MpxlabError, ValueError):
    """The simulator refused to run because the assignment fails validation."""
