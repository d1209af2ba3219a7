"""Exception hierarchy shared across the package.

The CLI maps these onto its stable exit codes: invalid input is 2,
capacity limits are 3, failed re-checks are 4.  Exit code 5, a checked
claim that failed in ``patternex verify``, is a result, not an error.
"""


class PatternexError(Exception):
    """Base class for all package-specific errors."""


class InputError(PatternexError, ValueError):
    """An argument, file, or combination of parameters is invalid."""


class CapacityError(PatternexError, RuntimeError):
    """The requested instance exceeds the configured enumeration limits."""


class PostconditionError(PatternexError, RuntimeError):
    """A mechanically re-checked guarantee of a construction or solver failed."""


class ConsistencyError(PostconditionError):
    """Two independent computations of the same fact disagreed."""


def int_text(n: int) -> str:
    """n as a refusal message writes it: in decimal, or as ~10^k (~-10^k
    when negative) past 13,000 bits, as ``str`` raises ValueError on more
    than 4,300 digits by default, so that a refusal of a huge argument
    still raises the package's error."""
    if n.bit_length() <= 13_000:
        return str(n)
    return f"~{'-' * (n < 0)}10^{n.bit_length() * 30103 // 100000}"
