"""Unipotent and strictly upper-triangular matrices over Q.

These realize the truncated algebra and group concretely: matrix exp and log
are finite sums, and substituting strictly upper-triangular d x d matrices
for the generators of a step-(d-1) algebra is exact because products of d or
more such matrices vanish. The substitution homomorphism doubles as an
independent check on every symbolic identity in the package.

Both types store only the d(d-1)/2 entries above the diagonal, row by row
(the triangle): N for a nilpotent N and for a unipotent I + N. One product
over i < k < j and one truncated power series carry the whole group law;
`.rows` rebuilds the full d x d form. An integral entry is stored as an int
and any other as a Fraction, so UT(d, Z) stays in ints; Fraction(2) == 2 and
both hash alike, so equality, hashing and the `.tri` order ignore the type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from operator import add
from typing import Sequence

from .algebra import LieElement, as_fraction
from .errors import GradingError
from .record import Record

Rows = tuple[tuple[int | Fraction, ...], ...]
Tri = tuple[int | Fraction, ...]


def _entry(x) -> int | Fraction:
    """x as an exact entry: an int when integral, a Fraction otherwise."""
    q = as_fraction(x)
    return q.numerator if q.denominator == 1 else q


def _zeros(d: int) -> Tri:
    return (0,) * (d * (d - 1) // 2)


class _Triangular(Record):
    """A d x d upper-triangular matrix with constant diagonal, stored as its
    triangle. The constructor checks rows given from outside; results
    computed here are built by `_raw` and skip that check."""

    __slots__ = ("dim", "tri")

    def __init__(self, rows):
        rows = tuple(tuple(_entry(x) for x in row) for row in rows)
        d = len(rows)
        if any(len(row) != d for row in rows):
            raise ValueError("matrix must be square")
        tri = tuple(x for i, row in enumerate(rows) for x in row[i + 1 :])
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "tri", tri)
        if self.rows != rows:  # the triangle alone must give back every entry
            raise ValueError(f"diagonal must be {self._DIAGONAL} and entries below it 0")

    @classmethod
    def _raw(cls, dim: int, tri: Tri):
        m = object.__new__(cls)
        object.__setattr__(m, "dim", dim)
        object.__setattr__(m, "tri", tri)
        return m

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self.tri == other.tri

    def __hash__(self) -> int:
        return hash((self.dim, self.tri))

    @property
    def rows(self) -> Rows:
        d, tri = self.dim, self.tri
        out, t = [], 0
        for i in range(d):
            width = d - 1 - i
            out.append((0,) * i + (self._DIAGONAL,) + tri[t : t + width])
            t += width
        return tuple(out)


class NilpotentMatrix(_Triangular):
    """Strictly upper-triangular square matrix."""

    __slots__ = ()
    _DIAGONAL = 0


class UnipotentMatrix(_Triangular):
    """Upper-triangular square matrix with unit diagonal."""

    __slots__ = ()
    _DIAGONAL = 1


@cache
def _pairs(d: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each triangle position (i, j), row by row, the positions of
    (i, k) and (k, j) in the triangle for every i < k < j."""
    index = {}
    for i in range(d):
        for j in range(i + 1, d):
            index[i, j] = len(index)
    return tuple(
        tuple((index[i, k], index[k, j]) for k in range(i + 1, j)) for i, j in index
    )


def _tri_mul(d: int, x: Tri, y: Tri, base: Tri) -> Tri:
    """Triangle of base + x y for strictly upper-triangular x and y: entry
    (i, j) is base_ij plus the sum of x_ik y_kj over i < k < j."""
    return tuple(
        sum([x[p] * y[q] for p, q in ks], base[t]) for t, ks in enumerate(_pairs(d))
    )


def _series(d: int, n: Tri, coeff) -> Tri:
    """Triangle of the sum of coeff(k) N^k over 0 < k < d, the whole series
    since N^d = 0, by Horner's rule: N (c_1 + N (c_2 + ... + N c_(d-1)))."""
    acc = ()
    for k in range(d - 1, 0, -1):
        c = coeff(k)
        term = tuple(v * c for v in n)
        acc = _tri_mul(d, n, acc, term) if acc else term
    return acc


def _dim(kind: type, *ms) -> int:
    """The dimension the arguments share. They must all be of type kind: the
    same triangle is another matrix in the other type or at another size."""
    d = ms[0].dim
    for m in ms:
        if type(m) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {type(m).__name__}")
        if m.dim != d:
            raise ValueError("matrices must share a dimension")
    return d


def mat_identity(d: int) -> UnipotentMatrix:
    return UnipotentMatrix._raw(d, _zeros(d))


def mat_mul(a: UnipotentMatrix, b: UnipotentMatrix) -> UnipotentMatrix:
    """(I + a)(I + b) = I + (a + b + ab) on the triangles."""
    d, x, y = _dim(UnipotentMatrix, a, b), a.tri, b.tri
    return UnipotentMatrix._raw(d, _tri_mul(d, x, y, tuple(map(add, x, y))))


def mat_inverse(a: UnipotentMatrix) -> UnipotentMatrix:
    """Inverse by the finite Neumann series of the nilpotent part."""
    d = _dim(UnipotentMatrix, a)
    return UnipotentMatrix._raw(d, _series(d, a.tri, lambda k: (-1) ** k))


def mat_power(a: UnipotentMatrix, k: int) -> UnipotentMatrix:
    out = mat_identity(_dim(UnipotentMatrix, a))
    if k < 0:
        a, k = mat_inverse(a), -k
    while k:
        if k & 1:
            out = mat_mul(out, a)
        k >>= 1
        if k:
            a = mat_mul(a, a)
    return out


def mat_exp(n: NilpotentMatrix) -> UnipotentMatrix:
    """Exponential as the finite sum of powers over factorials."""
    d = _dim(NilpotentMatrix, n)
    tri = _series(d, n.tri, lambda k: Fraction(1, factorial(k)))
    return UnipotentMatrix._raw(d, tri)


def mat_log(u: UnipotentMatrix) -> NilpotentMatrix:
    """Logarithm as the finite alternating sum of powers of (u - 1)."""
    d = _dim(UnipotentMatrix, u)
    tri = _series(d, u.tri, lambda k: Fraction((-1) ** (k + 1), k))
    return NilpotentMatrix._raw(d, tri)


def nil_add(a: NilpotentMatrix, b: NilpotentMatrix) -> NilpotentMatrix:
    d = _dim(NilpotentMatrix, a, b)
    return NilpotentMatrix._raw(d, tuple(map(add, a.tri, b.tri)))


def nil_scale(a: NilpotentMatrix, c) -> NilpotentMatrix:
    d, c = _dim(NilpotentMatrix, a), as_fraction(c)
    return NilpotentMatrix._raw(d, tuple(v * c for v in a.tri))


def nil_bracket(a: NilpotentMatrix, b: NilpotentMatrix) -> NilpotentMatrix:
    d, x, y = _dim(NilpotentMatrix, a, b), a.tri, b.tri
    minus_yx = tuple(-v for v in _tri_mul(d, y, x, _zeros(d)))
    return NilpotentMatrix._raw(d, _tri_mul(d, x, y, minus_yx))


def nil_zero(d: int) -> NilpotentMatrix:
    return NilpotentMatrix._raw(d, _zeros(d))


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
    d = _dim(NilpotentMatrix, *mats)
    if strict and d != ctx.step + 1:
        raise GradingError(
            f"strict substitution needs dimension {ctx.step + 1}, got {d}"
        )
    if d > ctx.step + 1:
        raise GradingError(
            f"dimension {d} keeps brackets beyond step {ctx.step}; truncation would not be exact"
        )

    cache: dict = {}

    def eval_tree(t) -> NilpotentMatrix:
        if isinstance(t, int):
            return mats[t]
        got = cache.get(t)
        if got is None:
            got = cache[t] = nil_bracket(eval_tree(t[0]), eval_tree(t[1]))
        return got

    acc = nil_zero(d)
    for t, c in x.terms.items():
        acc = nil_add(acc, nil_scale(eval_tree(t), c))
    return acc


def random_nilpotent(d: int, rng, denominators: tuple[int, ...] = (1, 2)) -> NilpotentMatrix:
    """Random strictly upper-triangular matrix with small rational entries."""
    tri = (Fraction(rng.randint(-2, 2), rng.choice(denominators)) for _ in _zeros(d))
    return NilpotentMatrix._raw(d, tuple(tri))


def random_unipotent(d: int, rng, entry_range: int = 2) -> UnipotentMatrix:
    """Random unipotent matrix with small integer entries above the diagonal."""
    tri = (rng.randint(-entry_range, entry_range) for _ in _zeros(d))
    return UnipotentMatrix._raw(d, tuple(tri))


def matrix_group_ops(d: int):
    from .words import GroupOps

    return GroupOps(mat_identity(d), mat_mul, mat_inverse, power=mat_power)
