"""Truncated Baker-Campbell-Hausdorff composition and its degree tables.

The free Lie algebra on two letters maps onto every truncated Lie algebra by
sending its letters to any two elements x, y. So one table per step, the
Lyndon coordinates of bch(x1, x2) - x1 - x2, gives the law in every context:
bch(x, y) is x + y plus each basis tree folded at (x, y) times its
coefficient. The table is built once per step, from the series route, and
kept for the life of the process; only the tail table rewrites it over
right-normed patterns.

The series route composes in the truncated free associative algebra, in ints
over one denominator: embed both Lie elements, multiply their exponentials,
take the logarithm, read the Lyndon coordinates back with the triangular peel
of algebra.extract_lie_coords (which raises on any series that is not the
expansion of a Lie element) and divide each once. It builds the tables and
serves as the oracle for the table route. All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, lcm

from . import series
from .algebra import (
    AlgebraContext,
    LieElement,
    bracket_coords,
    extract_lie_coords,
    rightnormed_decomposition,
    tree_assoc,
    tree_degree,
    tree_fold,
    tree_foliage,
)
from .errors import ContextMismatchError, GradingError


def lie_to_assoc(terms: dict) -> dict:
    """Associative expansion of Lie coordinates; ints stay ints."""
    out: dict = {}
    for t, c in terms.items():
        for w, k in tree_assoc(t).items():
            cur = out.get(w)
            cur = c * k if cur is None else cur + c * k
            if cur:
                out[w] = cur
            else:
                del out[w]
    return out


def _bch_series(x: LieElement, y: LieElement) -> LieElement:
    """log of exp(x) exp(y) through the free associative algebra, in ints;
    the peel is linear, so it reads the numerators over their denominator."""
    if x.ctx != y.ctx:
        raise ContextMismatchError(f"cannot compose elements of {x.ctx} and {y.ctx}")
    step = x.ctx.step
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    sx, xs = _integral(x.terms)
    sy, ys = _integral(y.terms)
    ex, lx = series.exp_truncated(lie_to_assoc(xs), sx, step)
    ey, ly = series.exp_truncated(lie_to_assoc(ys), sy, step)
    z, lz = series.log_truncated(series.mul_trunc(ex, ey, step), lx * ly, step)
    return LieElement._raw(x.ctx, {t: Fraction(c, lz) for t, c in extract_lie_coords(z).items()})


@cache
def _law_table(step: int) -> tuple:
    """(den, entries): the Lyndon coordinates of bch(x1, x2) - x1 - x2 on two
    letters as integer numerators over one common denominator, entries
    (tree, number of x1 leaves, numerator) in basis order. Built by the
    series route, as bch itself reads this table."""
    x, y = AlgebraContext(2, step).generators()
    defect = (_bch_series(x, y) - x - y).sorted_terms()
    den = lcm(*[c.denominator for _, c in defect])
    return den, tuple((t, tree_foliage(t).count(0), int(c * den)) for t, c in defect)


def _integral(terms: dict) -> tuple:
    """(s, s * terms): the rational coefficients as ints over their least
    common denominator s."""
    # a list, not a generator: a tuple grown from a generator is
    # reallocated, and the tuple free list then keeps it when it dies
    s = lcm(*[c.denominator for c in terms.values()])
    return s, {t: c.numerator * (s // c.denominator) for t, c in terms.items()}


def bch(x: LieElement, y: LieElement) -> LieElement:
    """log of exp(x) exp(y), truncated at the context step: x + y plus the
    step's law table evaluated at (x, y).

    The sum, x and y included, is kept in ints, as multiples of 1/scale with
    scale = den * sx**step * sy**step: for x = X/sx and y = Y/sy with
    integral X and Y, a tree with i leaves x and j leaves y is its value
    at (X, Y) over sx**i * sy**j, and i, j <= step. One Fraction per
    coordinate is built at the end."""
    if x.ctx != y.ctx:
        raise ContextMismatchError(f"cannot compose elements of {x.ctx} and {y.ctx}")
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    step = x.ctx.step
    den, table = _law_table(step)
    sx, xs = _integral(x.terms)
    sy, ys = _integral(y.terms)
    # px[i] * py[j] lifts a value over den * sx**i * sy**j to the scale
    px = [sx ** (step - i) for i in range(step + 1)]
    py = [sy ** (step - j) for j in range(step + 1)]
    # the brackets of shared subtrees, evaluated once per call
    op, memo = (lambda a, b: bracket_coords(a, b, step)), {}
    out: dict = {}
    for tree, i, num in ((0, 1, den), (1, 0, den), *table):
        val = tree_fold(tree, (xs, ys), op, memo)
        c = num * px[i] * py[tree_degree(tree) - i]
        for t, v in val.items():
            cur = out.get(t)
            out[t] = v * c if cur is None else cur + v * c
    scale = den * px[0] * py[0]
    return LieElement._raw(x.ctx, {t: Fraction(v, scale) for t, v in out.items() if v})


def multi_bch(elements) -> LieElement:
    """Left fold of bch over a nonempty sequence."""
    elements = list(elements)
    if not elements:
        raise ValueError("multi_bch needs at least one element")
    out = elements[0]
    for e in elements[1:]:
        out = bch(out, e)
    return out


def conjugation_log(a: LieElement, b: LieElement) -> LieElement:
    """log of exp(a) exp(b) exp(-a), as the exponential of ad a applied to b."""
    if a.ctx != b.ctx:
        raise ContextMismatchError(f"cannot combine elements of {a.ctx} and {b.ctx}")
    out = b
    term = b
    for j in range(1, a.ctx.step):
        term = a.bracket(term)
        if term.is_zero:
            break
        out = out + term * Fraction(1, factorial(j))
    return out


def bch_tail_table(ctx: AlgebraContext) -> dict:
    """Tail table over two generators, {pattern: coefficient} ordered by
    degree, then pattern; requires a two-generator context.

    The entries decompose x + y - bch(x, y) over right-normed patterns, so
    adding the table back onto the composition recovers the sum.
    """
    if ctx.num_generators != 2:
        raise GradingError("the tail table is defined over exactly two generators")
    den, table = _law_table(ctx.step)
    tail = LieElement._raw(ctx, {t: Fraction(-num, den) for t, _, num in table})
    return {
        alpha: c
        for j in range(2, ctx.step + 1)
        for alpha, c in sorted(rightnormed_decomposition(tail, j).items())
    }
