"""Exact Gauss-Jordan elimination over Fraction for the small dense systems
that show up in basis-change and Vandermonde computations."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InternalInvariantError


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square matrix; raises if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    if any(len(row) != 2 * n for row in aug):
        raise ValueError("matrix is not square")
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise InternalInvariantError("singular matrix in exact elimination")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_vec(rows: Sequence[Sequence[Fraction]], vec: Sequence) -> list:
    """Matrix-vector product over Q; the vector entries are ints or Fractions."""
    out = []
    for row in rows:
        acc = None
        for a, v in zip(row, vec):
            if not a:
                continue
            term = a * v
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else Fraction(0))
    return out
