"""Exception types shared across the package."""

from __future__ import annotations


class NilbchError(Exception):
    """Base class for all package-specific errors."""


class ContextMismatchError(NilbchError, ValueError):
    """Raised when elements from different algebra contexts are combined."""


class GradingError(NilbchError, ValueError):
    """Raised when an element violates a degree constraint (e.g. degree > step)."""


class DivisibilityError(NilbchError, ValueError):
    """Raised when a requested power T violates the divisor ladder of a synthesis.

    Attributes:
        required: the divisor that T must be a multiple of.
        got: the offending T.
        degree: the degree whose clearing imposed the divisor.
    """

    def __init__(self, required: int, got: int, degree: int):
        self.required = required
        self.got = got
        self.degree = degree
        super().__init__(
            f"power {got} does not satisfy the divisibility contract: "
            f"degree {degree} requires a multiple of {required}"
        )


# elements an enumeration may build before it raises SizeCapError (`--cap`)
DEFAULT_SIZE_CAP = 2 * 10**6


def printable_size(size: int) -> int | str:
    """size itself when Python can write it in decimal, else the text "a
    <d>-digit number": past the interpreter's limit on int-to-str conversion
    (4300 digits by default) both str() and json.dumps refuse the int."""
    try:
        str(size)
        return size
    except ValueError:
        # a lower bound on the digit count, as log10(2) > 0.3010, then count up
        digits = (size.bit_length() - 1) * 3010 // 10000 + 1
        while size >= 10**digits:
            digits += 1
        return f"a {digits}-digit number"


class SizeCapError(NilbchError, RuntimeError):
    """Raised when an enumeration would exceed the configured size cap."""

    def __init__(self, what: str, size: int, cap: int):
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(
            f"size cap exceeded while building {what}: {printable_size(size)} > cap {cap}"
        )


class WordSyntaxError(NilbchError, ValueError):
    """Raised on malformed word text; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class UnboundSymbolError(NilbchError, KeyError):
    """Raised when a word references a symbol missing from the environment."""

    def __init__(self, symbol: str):
        self.symbol = symbol
        super().__init__(f"unbound symbol {symbol!r}")


class InternalInvariantError(NilbchError, AssertionError):
    """Raised when an internal exactness invariant fails; never expected."""
