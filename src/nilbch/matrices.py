"""Unipotent and strictly upper-triangular matrices over Q.

These realize the truncated algebra and group concretely: matrix exp and log
are finite sums, and substituting strictly upper-triangular d x d matrices
for the generators of a step-(d-1) algebra is exact because products of d or
more such matrices vanish. The substitution homomorphism doubles as an
independent check on every symbolic identity in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .algebra import AlgebraContext, LieElement, as_fraction, tree_degree
from .errors import GradingError

Rows = tuple[tuple[Fraction, ...], ...]


def _as_rows(rows) -> Rows:
    out = tuple(tuple(as_fraction(x) for x in row) for row in rows)
    d = len(out)
    if any(len(row) != d for row in out):
        raise ValueError("matrix must be square")
    return out


@dataclass(frozen=True)
class NilpotentMatrix:
    """Strictly upper-triangular square matrix."""

    rows: Rows

    def __post_init__(self):
        rows = _as_rows(self.rows)
        object.__setattr__(self, "rows", rows)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if j <= i and x:
                    raise ValueError(f"entry ({i},{j}) must be zero below the diagonal")

    @property
    def dim(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class UnipotentMatrix:
    """Upper-triangular square matrix with unit diagonal."""

    rows: Rows

    def __post_init__(self):
        rows = _as_rows(self.rows)
        object.__setattr__(self, "rows", rows)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if j < i and x:
                    raise ValueError(f"entry ({i},{j}) must be zero below the diagonal")
                if j == i and x != 1:
                    raise ValueError(f"diagonal entry ({i},{i}) must be 1")

    @property
    def dim(self) -> int:
        return len(self.rows)


def _mul_rows(a: Rows, b: Rows) -> Rows:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _add_rows(a: Rows, b: Rows) -> Rows:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def _scale_rows(a: Rows, c) -> Rows:
    return tuple(tuple(x * c for x in row) for row in a)


def _identity_rows(d: int) -> Rows:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(d)) for i in range(d)
    )


def _zero_rows(d: int) -> Rows:
    return tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))


def mat_identity(d: int) -> UnipotentMatrix:
    return UnipotentMatrix(_identity_rows(d))


def mat_mul(a: UnipotentMatrix, b: UnipotentMatrix) -> UnipotentMatrix:
    return UnipotentMatrix(_mul_rows(a.rows, b.rows))


def mat_inverse(a: UnipotentMatrix) -> UnipotentMatrix:
    """Inverse by the finite Neumann series of the nilpotent part."""
    d = a.dim
    n = _add_rows(a.rows, _scale_rows(_identity_rows(d), -1))
    out = _identity_rows(d)
    term = _identity_rows(d)
    for _ in range(1, d):
        term = _scale_rows(_mul_rows(term, n), -1)
        out = _add_rows(out, term)
    return UnipotentMatrix(out)


def mat_power(a: UnipotentMatrix, k: int) -> UnipotentMatrix:
    if k < 0:
        a = mat_inverse(a)
        k = -k
    out = mat_identity(a.dim)
    acc = a
    while k:
        if k & 1:
            out = mat_mul(out, acc)
        k >>= 1
        if k:
            acc = mat_mul(acc, acc)
    return out


def mat_exp(n: NilpotentMatrix) -> UnipotentMatrix:
    """Exponential as the finite sum of powers over factorials."""
    d = n.dim
    out = _identity_rows(d)
    term = _identity_rows(d)
    for k in range(1, d):
        term = _mul_rows(term, n.rows)
        out = _add_rows(out, _scale_rows(term, Fraction(1, factorial(k))))
    return UnipotentMatrix(out)


def mat_log(u: UnipotentMatrix) -> NilpotentMatrix:
    """Logarithm as the finite alternating sum of powers of (u - 1)."""
    d = u.dim
    n = _add_rows(u.rows, _scale_rows(_identity_rows(d), -1))
    out = _zero_rows(d)
    term = _identity_rows(d)
    for k in range(1, d):
        term = _mul_rows(term, n)
        out = _add_rows(out, _scale_rows(term, Fraction((-1) ** (k + 1), k)))
    return NilpotentMatrix(out)


def nil_add(a: NilpotentMatrix, b: NilpotentMatrix) -> NilpotentMatrix:
    return NilpotentMatrix(_add_rows(a.rows, b.rows))


def nil_scale(a: NilpotentMatrix, c) -> NilpotentMatrix:
    return NilpotentMatrix(_scale_rows(a.rows, as_fraction(c)))


def nil_bracket(a: NilpotentMatrix, b: NilpotentMatrix) -> NilpotentMatrix:
    return NilpotentMatrix(
        _add_rows(_mul_rows(a.rows, b.rows), _scale_rows(_mul_rows(b.rows, a.rows), -1))
    )


def nil_zero(d: int) -> NilpotentMatrix:
    return NilpotentMatrix(_zero_rows(d))


def substitute(
    x: LieElement, mats: Sequence[NilpotentMatrix], strict: bool = True
) -> NilpotentMatrix:
    """Evaluate a Lie element by substituting a matrix for each generator.

    Strict mode requires the matrix dimension to be exactly step + 1, the
    unique size at which the matrix algebra kills precisely the brackets the
    truncation kills. Relaxed mode allows smaller matrices (which kill more),
    never larger ones (which would keep terms the truncation dropped).
    """
    ctx = x.ctx
    if len(mats) != ctx.num_generators:
        raise ValueError(f"need {ctx.num_generators} matrices, got {len(mats)}")
    d = mats[0].dim
    if any(m.dim != d for m in mats):
        raise ValueError("matrices must share a dimension")
    if strict and d != ctx.step + 1:
        raise GradingError(
            f"strict substitution needs dimension {ctx.step + 1}, got {d}"
        )
    if d > ctx.step + 1:
        raise GradingError(
            f"dimension {d} keeps brackets beyond step {ctx.step}; truncation would not be exact"
        )

    cache: dict = {}

    def eval_tree(t) -> Rows:
        if isinstance(t, int):
            return mats[t].rows
        got = cache.get(t)
        if got is None:
            a, b = eval_tree(t[0]), eval_tree(t[1])
            got = cache[t] = _add_rows(_mul_rows(a, b), _scale_rows(_mul_rows(b, a), -1))
        return got

    acc = _zero_rows(d)
    for t, c in x.terms.items():
        acc = _add_rows(acc, _scale_rows(eval_tree(t), c))
    return NilpotentMatrix(acc)


def random_nilpotent(d: int, rng, denominators: tuple[int, ...] = (1, 2)) -> NilpotentMatrix:
    """Random strictly upper-triangular matrix with small rational entries."""
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            rows[i][j] = Fraction(rng.randint(-2, 2), rng.choice(denominators))
    return NilpotentMatrix(tuple(tuple(row) for row in rows))


def random_unipotent(d: int, rng, entry_range: int = 2) -> UnipotentMatrix:
    """Random unipotent matrix with small integer entries above the diagonal."""
    out = []
    for i in range(d):
        row = [Fraction(int(i == j)) for j in range(d)]
        for j in range(i + 1, d):
            row[j] = Fraction(rng.randint(-entry_range, entry_range))
        out.append(tuple(row))
    return UnipotentMatrix(tuple(out))


def matrix_group_ops(d: int):
    from .words import GroupOps

    return GroupOps(mat_identity(d), mat_mul, mat_inverse, power=mat_power)
