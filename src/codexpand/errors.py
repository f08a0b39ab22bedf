"""Exception types shared across the package."""


class CodexpandError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CodexpandError, ValueError):
    """An argument lies outside the domain a quantity is defined on."""


class SizeExceedsCap(CodexpandError):
    """The codebook is too large to enumerate; sample instead."""


class StateSpaceTooLarge(CodexpandError):
    """The observation state space exceeds the configured cap."""


class EnumerationTooLarge(CodexpandError):
    """Exhaustive enumeration of codeword assignments exceeds the cap."""


class InputParseError(CodexpandError):
    """An input document (JSON scenario or spec file) could not be parsed."""
