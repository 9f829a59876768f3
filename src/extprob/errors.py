"""Exception types shared across the package."""


class ExtprobError(Exception):
    """Base class for domain errors raised by this package."""


class UnlimitedError(ExtprobError, ArithmeticError):
    """Standard part requested for a number with no closest real."""


class AlgebraMismatchError(ExtprobError, ValueError):
    """Operands built over different sample-space algebras."""


class ZeroConditioningError(ExtprobError, ZeroDivisionError):
    """Conditioning event has probability zero, is empty, or is outside the
    conditioning family."""


class NotAnSlpsError(ExtprobError, ValueError):
    """Operation requires a structured LPS and the input is not one."""


class InvalidPopperSpaceError(ExtprobError, ValueError):
    """Operation requires a space passing the full Popper axioms."""


class NotTreelikeError(ExtprobError, ValueError):
    """Conditioning family cannot be organized as a forest."""


class LengthMismatchError(ExtprobError, ValueError):
    """Sequence lengths do not line up (coefficients, mixing weights)."""


class KindMismatchError(ExtprobError, ValueError):
    """Query kind is not admissible for the supplied model class."""


class SizeLimitError(ExtprobError):
    """Input would need an enumeration larger than the routine's limit."""
