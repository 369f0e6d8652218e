"""Dense univariate polynomials over Fraction.

These stand in for series coefficients during symbolic synthesis runs where a
formal power T is left unevaluated. Only the ring operations the series and
algebra layers actually use are implemented: +, -, *, division by a scalar,
truthiness, equality, and evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .algebra import as_fraction

_ZERO = Fraction(0)


def _trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


class QPoly:
    """Polynomial in one indeterminate T with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        self.coeffs = _trim(tuple(as_fraction(c) for c in coeffs))

    @classmethod
    def _raw(cls, coeffs: tuple[Fraction, ...]) -> "QPoly":
        p = cls.__new__(cls)
        p.coeffs = _trim(coeffs)
        return p

    @classmethod
    def constant(cls, c) -> "QPoly":
        return cls._raw((as_fraction(c),))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == _trim((Fraction(other),))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "QPoly":
        return QPoly._raw(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.constant(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly._raw(tuple(out))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.constant(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return QPoly._raw(())
            return QPoly._raw(tuple(c * f for c in self.coeffs))
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly._raw(())
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if not ci:
                continue
            for j, cj in enumerate(b):
                if cj:
                    out[i + j] += ci * cj
        return QPoly._raw(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __call__(self, t) -> Fraction:
        """Evaluate at t by Horner's rule."""
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else _ZERO

    def denominators(self) -> Iterable[int]:
        return (c.denominator for c in self.coeffs if c)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "QPoly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*T")
            else:
                parts.append(f"{c}*T^{k}")
        return f"QPoly({' + '.join(parts)})"


T = QPoly((0, 1))
