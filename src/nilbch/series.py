"""Truncated series in the free associative algebra.

A series is a dict mapping words (tuples of 0-based letter indices) to nonzero
coefficients; the empty tuple keys the constant term. Every operation
truncates at a fixed total degree. Coefficients are exact rationals: Fractions,
or ints where a series holds integer values.
"""

from __future__ import annotations

from fractions import Fraction

# one kernel only; kept because perfbench records it in each result
BACKEND = "pure"

EMPTY_WORD: tuple[int, ...] = ()

_ONE = Fraction(1)


def mul_trunc(p: dict, q: dict, step: int) -> dict:
    """Concatenation product of two series, dropping words longer than step."""
    out: dict = {}
    get = out.get
    for w1, c1 in p.items():
        room = step - len(w1)
        for w2, c2 in q.items():
            if len(w2) > room:
                continue
            w = w1 + w2
            prev = get(w)
            out[w] = c1 * c2 if prev is None else prev + c1 * c2
    return {w: c for w, c in out.items() if c}


def one() -> dict:
    return {EMPTY_WORD: _ONE}


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for w, c in q.items():
        s = out.get(w)
        if s is None:
            out[w] = c
        else:
            s = s + c
            if s:
                out[w] = s
            else:
                del out[w]
    return out


def sub(p: dict, q: dict) -> dict:
    return add(p, {w: -c for w, c in q.items()})


def scale(p: dict, c) -> dict:
    if not c:
        return {}
    return {w: x * c for w, x in p.items()}


def exp_truncated(p: dict, step: int) -> dict:
    """exp of a series with zero constant term, by a Horner ladder."""
    if EMPTY_WORD in p:
        raise ValueError("exp requires a series with zero constant term")
    e = one()
    for k in range(step, 0, -1):
        e = add(one(), scale(mul_trunc(p, e, step), Fraction(1, k)))
    return e


def log_truncated(u: dict, step: int) -> dict:
    """log of a series with constant term 1, by a Horner ladder."""
    if u.get(EMPTY_WORD) != 1:
        raise ValueError("log requires a series with constant term 1")
    a = {w: c for w, c in u.items() if w}
    s: dict = {EMPTY_WORD: Fraction(1, step)}
    for k in range(step - 1, 0, -1):
        s = add({EMPTY_WORD: Fraction(1, k)}, scale(mul_trunc(a, s, step), -1))
    return mul_trunc(a, s, step)
