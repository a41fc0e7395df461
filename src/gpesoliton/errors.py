"""Exception hierarchy shared by all gpesoliton modules, and `require`, the one
guard of scalar inputs: a finite number in range, or an integer for a count.
NaN and +-inf are never in range; they raise DomainError like any other value
out of range, with the parameter, the value and the bound named."""

import math
import numbers


class GpeError(Exception):
    """Base class for all toolkit errors."""


class DomainError(GpeError):
    """Invalid physical or numerical input (bad sign, bad range, bad shape)."""


class UnsupportedRegimeError(DomainError):
    """Parameters outside the attractive-condensate regime the toolkit models."""


class GridMismatchError(DomainError):
    """Two fields that must share a grid do not."""


class StepSizeError(GpeError):
    """Time or pseudo-time step too large for stable/accurate integration."""


class BlowupError(GpeError):
    """Non-finite values appeared during propagation or relaxation (collapse in
    supercritical runs)."""


class ParseError(GpeError):
    """Syntax error in a potential expression, with byte offset and expectations."""

    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"at byte {offset}: {message}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ParseError):
    """An identifier was used as a function but is not a known function name."""

    def __init__(self, name, offset, allowed):
        self.name = name
        super().__init__(
            f"unknown function '{name}'; allowed: {', '.join(sorted(allowed))}",
            offset,
        )


class UnboundParameterError(GpeError):
    """A potential expression was evaluated with parameters left unbound."""

    def __init__(self, missing):
        self.missing = tuple(sorted(missing))
        super().__init__("unbound parameters: " + ", ".join(self.missing))


def require(name, value, *, gt=None, ge=None, integer=False):
    """`value` if it is a finite number (an integer, not a bool, when `integer`)
    > gt or >= ge, whichever bound is given; DomainError naming all three otherwise."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool) if integer else
            isinstance(value, numbers.Real) and math.isfinite(value)):
        if (gt is None or value > gt) and (ge is None or value >= ge):
            return value
    bound = f" > {gt}" if gt is not None else "" if ge is None else f" >= {ge}"
    raise DomainError(f"{name} must be {'an integer' if integer else 'a finite number'}"
                      f"{bound}, got {value}")
