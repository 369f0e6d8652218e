"""JSON forms for the exact types: rationals as strings, never floats.

Lie elements serialize as objects mapping canonical bracket-tree strings to
rational strings, and pattern tables as lists of
{"pattern": [indices], "coefficient": "p/q"}.
Keys are emitted in canonical basis order so output is byte-stable.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraContext, LieElement, as_fraction, tree_str


def rational_str(q) -> str:
    return str(Fraction(q))


def parse_rational(text: str) -> Fraction:
    if isinstance(text, bool):
        # JSON true/false arrive as bools, which Fraction would take as 1/0
        raise ValueError(f"invalid rational {text!r}")
    try:
        return as_fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ValueError(f"invalid rational {text!r}") from e


def lie_to_json(x: LieElement) -> dict:
    symbols = x.ctx.symbols
    return {
        tree_str(t, symbols): rational_str(c)
        for t, c in x.sorted_terms()
    }


def lie_from_json(obj: dict, ctx: AlgebraContext) -> LieElement:
    if not isinstance(obj, dict):
        raise ValueError("a Lie element must be a JSON object")
    return LieElement(ctx, {key: parse_rational(val) for key, val in obj.items()})


def table_to_json(entries) -> list:
    """Pattern table rows from an iterable of (pattern, coefficient)."""
    return [
        {"pattern": list(alpha), "coefficient": rational_str(c)}
        for alpha, c in entries
    ]
