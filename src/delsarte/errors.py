"""Exception types shared across the package."""


class DelsarteError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpec(DelsarteError):
    """Malformed group specification (non-positive cyclic order, bad measure)."""


class GroupMismatch(DelsarteError):
    """Operands live on different groups, or on the wrong group entirely."""


class EmptySetError(DelsarteError):
    """An operation that needs a nonempty set received an empty one."""


class InvalidInstance(DelsarteError):
    """Problem instance violates a structural requirement."""


class OriginNotInW(InvalidInstance):
    """The window must contain the identity: f(0) = 1 puts 0 in supp f_+."""


class AsymmetricBump(DelsarteError):
    """Bump base set must be conjugation-closed and contain the unit character."""


class EmptyEffectiveSupport(DelsarteError):
    """No conjugation-closed part of Q remains, so no real function fits."""


class OracleTooLarge(DelsarteError):
    """An independent oracle would exceed its size limits: the vertex
    enumeration's orbit and row counts, or the Gram oracle's group order."""


class SnfOverflow(DelsarteError):
    """An intermediate Smith-normal-form entry reached the 2**31 guard."""


class NetPreconditionError(DelsarteError):
    """Function handed to the net machinery fails its entry conditions."""


class NotOptimal(DelsarteError):
    """The operation requires an optimal solution and got something else."""


class ParseError(DelsarteError):
    """An instance or result file could not be parsed."""
