"""Truncated series in the free associative algebra.

A series is a dict mapping words (tuples of 0-based letter indices) to nonzero
coefficients; the empty tuple keys the constant term. Every operation
truncates at a fixed total degree. Coefficients are ints: exp and log take
and return numerators over one denominator, so no Fraction is built here.
"""

from __future__ import annotations

from math import factorial, lcm

# one kernel only; kept because perfbench records it in each result
BACKEND = "pure"

EMPTY_WORD: tuple[int, ...] = ()


def cleared(ratios) -> tuple[list[int], int]:
    """(A, L): the rationals p/q, given as int pairs (p, q), as ints A over
    their least common denominator L."""
    lden = lcm(*[q for _, q in ratios])
    return [p * (lden // q) for p, q in ratios], lden


def graded(terms: dict, degree=len) -> list:
    """The items of terms grouped by the degree of their keys, as
    (degree, [(key, value), ...]) pairs in increasing degree."""
    groups: dict = {}
    for key, value in terms.items():
        n = degree(key)
        got = groups.get(n)
        if got is None:
            groups[n] = [(key, value)]
        else:
            got.append((key, value))
    return sorted(groups.items())


def mul_trunc(p: dict, q: dict, step: int) -> dict:
    """Concatenation product of two series, dropping words longer than step.
    The words of q are grouped by length once, so pairs past the step are
    never visited."""
    classes = graded(q)
    out: dict = {}
    get = out.get
    for w1, c1 in p.items():
        room = step - len(w1)
        for n, terms in classes:
            if n > room:
                break
            for w2, c2 in terms:
                w = w1 + w2
                prev = get(w)
                out[w] = c1 * c2 if prev is None else prev + c1 * c2
    return {w: c for w, c in out.items() if c}


def sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for w, c in q.items():
        s = out.get(w, 0) - c
        if s:
            out[w] = s
        else:
            del out[w]
    return out


def _horner(n: dict, den: int, coeffs, step: int) -> tuple[dict, int]:
    """(S, L): the sum of c_k (n / D)^k over 1 <= k <= step as S / L, for n
    with zero constant term, D = den and c_k given as int pairs (p, q). With
    c_k = a_k / A cleared once, L = A D^step and, by Horner's rule,
    S = n (a_1 D^(step-1) + n (a_2 D^(step-2) + ... + n a_step))."""
    a, lcd = cleared(coeffs)
    acc: dict = {}
    for j, ak in enumerate(reversed(a)):
        acc = mul_trunc(n, {**acc, EMPTY_WORD: ak * den**j}, step)
    return acc, lcd * den**step


def exp_truncated(m: dict, den: int, step: int) -> tuple[dict, int]:
    """(E, L): exp(m / den) as E / L, for m with zero constant term."""
    if EMPTY_WORD in m:
        raise ValueError("exp requires a series with zero constant term")
    s, lden = _horner(m, den, [(1, factorial(k)) for k in range(1, step + 1)], step)
    return {EMPTY_WORD: lden, **s}, lden


def log_truncated(u: dict, den: int, step: int) -> tuple[dict, int]:
    """(Z, L): log(u / den) as Z / L, for u with constant term den."""
    if u.get(EMPTY_WORD) != den:
        raise ValueError(f"log requires a series with constant term 1, numerator {den}")
    a = {w: c for w, c in u.items() if w}
    return _horner(a, den, [((-1) ** (k + 1), k) for k in range(1, step + 1)], step)
