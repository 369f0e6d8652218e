"""Fraction-free Gauss-Jordan in ints (after Bareiss, Math. Comp. 22, 1968):
the one elimination, behind right-normed decomposition and Vandermonde inverses."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import InternalInvariantError


def _clear(x: dict, y: dict, lead: int) -> dict:
    """x - (x[lead] / y[lead]) * y, scaled to ints and divided by its gcd."""
    a, b = y[lead], x[lead]
    z = {k: a * c for k, c in x.items()}
    for k, c in y.items():
        z[k] = z.get(k, 0) - b * c
    g = gcd(*z.values())
    return {k: c // g for k, c in z.items() if c}


def spanning_inverse(columns: Iterable[Mapping[int, int]], dim: int) -> tuple:
    """(chosen, den, rows): keeps each sparse integer column over rows
    0..dim-1 that is independent of those kept before it, until dim are;
    chosen lists their positions, and rows / den inverts the kept block.
    The k-th kept column gets a 1 at row dim + k, and kept vectors are
    cleared at each other's leads: the one with lead r ends as d times unit
    vector r, and from row dim on as d times column r of the inverse."""
    chosen, kept = [], {}
    for j, col in enumerate(columns):
        v = {r: c for r, c in col.items() if c}
        v[dim + len(chosen)] = 1
        for lead in [r for r in v if r in kept]:
            v = _clear(v, kept[lead], lead)
        lead = min(v)
        if lead >= dim:
            continue
        for r, u in kept.items():
            if lead in u:
                kept[r] = _clear(u, v, lead)
        kept[lead] = v
        chosen.append(j)
        if len(chosen) == dim:
            break
    if len(chosen) < dim:
        raise InternalInvariantError(f"the columns fail to span dimension {dim}")
    den = lcm(*[v[r] for r, v in kept.items()])
    rows = [[0] * dim for _ in range(dim)]
    for r, v in kept.items():
        scale = den // v.pop(r)
        for k, c in v.items():
            rows[k - dim][r] = c * scale
    return tuple(chosen), den, tuple(map(tuple, rows))


def apply_inverse(den: int, rows: Sequence[Sequence[int]], vec: Sequence) -> list[Fraction]:
    """rows / den times a vector of ints and Fractions: the vector is scaled
    to ints once, and each entry of the product is one Fraction."""
    scale = lcm(*[x.denominator for x in vec])
    ints = [(r, x.numerator * (scale // x.denominator)) for r, x in enumerate(vec) if x]
    return [Fraction(sum([row[r] * x for r, x in ints]), den * scale) for row in rows]
