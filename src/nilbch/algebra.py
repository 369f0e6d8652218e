"""Free nilpotent Lie algebras over Q in the Lyndon-word basis.

A basis element is a binary bracket tree: a leaf is a 0-based generator index,
an internal node a pair (left, right). The basis trees are the standard
Chen-Fox-Lyndon bracketings of Lyndon words, ordered by degree and then
lexicographically by foliage.

Structure constants are computed by expanding basis trees in the free
associative algebra and reading Lyndon coordinates back off the triangular
change of basis: the expansion of the bracketing of a Lyndon word w is w plus
lexicographically larger rearrangements of w, so coordinates of any Lie
element fall out by repeatedly peeling the smallest word in its support.
Peeling doubles as a validity check, since a nonzero remainder whose smallest
word is not Lyndon can only come from a non-Lie input.

Each process-lifetime table is the function that fills it under
functools.cache, keyed by what it depends on: the tree tables by tree shape
alone (no alphabet size, no step), so contexts share them, and the basis and
the right-normed solvers by generator count and degree. Every caller shares a
cached value, so none may mutate it; concurrent callers may compute an entry
twice, equal both times, so no lock is needed.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import cache
from typing import Iterator, Mapping, Sequence

from . import series
from .errors import ContextMismatchError, GradingError, InternalInvariantError
from .linalg import apply_inverse, spanning_inverse
from .record import Record

# leaf: generator index; node: (left, right)
HallTree = "int | tuple"
# 1-based generator indices, read left to right
BracketPattern = tuple[int, ...]

# a generator symbol, as AlgebraContext accepts it and basis_tree reads it
_SYMBOL_RE = re.compile(r"[a-z][a-z0-9_]*")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    """x as an exact rational. A float is refused: its binary value is almost
    never the rational that was meant (0.1 is 3602879701896397/2**55)."""
    if isinstance(x, float):
        raise ValueError(
            f"float {x!r} in exact arithmetic; use an int, a Fraction or a string"
        )
    return Fraction(x)


class AlgebraContext(Record):
    """Generator count, truncation step, and display symbols for one algebra."""

    __slots__ = ("num_generators", "step", "symbols")

    def __init__(self, num_generators: int, step: int, symbols: tuple[str, ...] = ()):
        if num_generators < 1:
            raise ValueError("need at least one generator")
        if step < 1:
            raise ValueError("step must be at least 1")
        if not symbols:
            symbols = tuple(f"x{i + 1}" for i in range(num_generators))
        if len(symbols) != num_generators:
            raise ValueError("symbol count must match generator count")
        for s in symbols:
            if not _SYMBOL_RE.fullmatch(s):
                raise ValueError(f"invalid symbol {s!r}")
        if len(set(symbols)) != num_generators:
            raise ValueError("symbols must be distinct")
        object.__setattr__(self, "num_generators", num_generators)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "symbols", symbols)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.num_generators == other.num_generators
            and self.step == other.step
            and self.symbols == other.symbols
        )

    def __hash__(self) -> int:
        return hash((self.num_generators, self.step, self.symbols))

    def generator(self, i: int) -> "LieElement":
        """The i-th generator (0-based) as a Lie element."""
        if not 0 <= i < self.num_generators:
            raise ValueError(f"generator index {i} out of range")
        return LieElement._raw(self, {i: _ONE})

    def generators(self) -> tuple["LieElement", ...]:
        return tuple(self.generator(i) for i in range(self.num_generators))

    @property
    def dimension(self) -> int:
        return len(hall_basis(self))


# ---------------------------------------------------------------------------
# trees and Lyndon words

def tree_foliage(t) -> tuple[int, ...]:
    """Leaf indices of a tree, left to right."""
    if isinstance(t, int):
        return (t,)
    return tree_foliage(t[0]) + tree_foliage(t[1])


@cache
def tree_degree(t) -> int:
    """Leaf count of a tree, memoised: the bracket kernel reads it per term."""
    return 1 if isinstance(t, int) else tree_degree(t[0]) + tree_degree(t[1])


def tree_str(t, symbols: Sequence[str]) -> str:
    if isinstance(t, int):
        return symbols[t]
    return f"[{tree_str(t[0], symbols)},{tree_str(t[1], symbols)}]"


def is_lyndon(w: tuple[int, ...]) -> bool:
    """A word is Lyndon when it is strictly smaller than all proper suffixes."""
    if not w:
        return False
    return all(w < w[i:] for i in range(1, len(w)))


@cache
def lyndon_tree(w: tuple[int, ...]):
    """Standard bracketing of a Lyndon word: split before its longest proper
    Lyndon suffix and recurse."""
    if len(w) == 1:
        return w[0]
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return (lyndon_tree(w[:i]), lyndon_tree(w[i:]))
    raise InternalInvariantError(f"{w!r} is not a Lyndon word")


def lyndon_words(num_letters: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """All Lyndon words over 0..num_letters-1 of length <= max_len, in
    lexicographic order (Duval's generation)."""
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == num_letters - 1:
            w.pop()


def basis_tree(name: str, ctx: AlgebraContext):
    """The basis tree printed as name by tree_str, e.g. "[x1,[x1,x2]]". Its
    symbols, read left to right, spell a Lyndon word whose standard bracketing
    is the tree; any other name is refused."""
    index = {s: i for i, s in enumerate(ctx.symbols)}
    word = tuple(index.get(s, -1) for s in _SYMBOL_RE.findall(name))
    if -1 not in word and len(word) <= ctx.step and is_lyndon(word):
        t = lyndon_tree(word)
        if tree_str(t, ctx.symbols) == name:
            return t
    raise GradingError(f"{name} is not a basis tree at step {ctx.step}")


@cache
def _basis(num_generators: int, step: int) -> tuple:
    """Basis trees ordered by (degree, foliage)."""
    words = sorted(lyndon_words(num_generators, step), key=lambda w: (len(w), w))
    return tuple(lyndon_tree(w) for w in words)


def hall_basis(ctx: AlgebraContext) -> tuple:
    """Basis trees ordered by (degree, foliage); cached per (L, step)."""
    return _basis(ctx.num_generators, ctx.step)


@cache
def _basis_index(num_generators: int, step: int) -> dict:
    """Each basis tree's position in the basis; cached apart from the trees,
    which the hall listing reads without an index."""
    return {t: i for i, t in enumerate(_basis(num_generators, step))}


def dimensions_by_degree(ctx: AlgebraContext) -> dict[int, int]:
    """Degree -> number of basis elements of that degree, by Witt's formula
    (1/k) sum_{d | k} mu(d) n^(k/d), without building the basis; degrees
    with no elements are left out. Each squarefree d adds its term to each
    multiple of d, once its proper divisors c have made mu(d) = -sum mu(c)."""
    n, step = ctx.num_generators, ctx.step
    mu, sums = [0, 1] + [0] * step, [0] * (step + 1)
    for d in range(1, step + 1):
        if mu[d]:
            power = 1
            for k in range(d, step + 1, d):
                power *= n
                sums[k] += mu[d] * power
                if k > d:
                    mu[k] -= mu[d]
    return {k: total // k for k, total in enumerate(sums) if k and total}


# ---------------------------------------------------------------------------
# structure constants via associative expansion

@cache
def tree_assoc(t) -> dict:
    """Expansion of a bracket tree in the free associative algebra
    (words mapped to integer coefficients)."""
    if isinstance(t, int):
        return {(t,): 1}
    left, right = tree_assoc(t[0]), tree_assoc(t[1])
    deg = tree_degree(t)
    return series.sub(series.mul_trunc(left, right, deg), series.mul_trunc(right, left, deg))


def extract_lie_coords(p: Mapping) -> dict:
    """Coordinates of a Lie element given by its associative expansion.

    Peels the lexicographically smallest support word per degree; raises if
    the input is not a Lie element (non-Lyndon minimal word, or a nonzero
    remainder that cannot cancel).
    """
    buckets: dict[int, dict] = {}
    for w, c in p.items():
        buckets.setdefault(len(w), {})[w] = c
    coords: dict = {}
    for deg in sorted(buckets):
        if deg == 0:
            raise InternalInvariantError("constant term in a Lie expansion")
        bucket = buckets[deg]
        while bucket:
            w = min(bucket)
            if not is_lyndon(w):
                raise InternalInvariantError(
                    f"minimal support word {w!r} is not Lyndon; input is not a Lie element"
                )
            t = lyndon_tree(w)
            c = bucket[w]
            coords[t] = c
            for w2, c2 in tree_assoc(t).items():
                cur = bucket.get(w2, 0)
                cur = cur - c * c2
                if cur:
                    bucket[w2] = cur
                else:
                    bucket.pop(w2, None)
            if w in bucket:
                raise InternalInvariantError("triangular peel failed to clear its pivot")
    return coords


@cache
def bracket_basis(t1, t2) -> dict:
    """Lyndon coordinates of the bracket of two basis trees (integer values)."""
    if t1 == t2:
        return {}
    a1, a2 = tree_assoc(t1), tree_assoc(t2)
    deg = tree_degree(t1) + tree_degree(t2)
    return extract_lie_coords(
        series.sub(series.mul_trunc(a1, a2, deg), series.mul_trunc(a2, a1, deg))
    )


def bracket_coords(a: Mapping, b: Mapping, step: int) -> dict:
    """Bilinear extension of bracket_basis, truncated at step. The terms of b
    are grouped by degree once, so pairs past the step are never visited."""
    by_degree: dict = {}
    for t2, c2 in b.items():
        d2 = tree_degree(t2)
        got = by_degree.get(d2)
        if got is None:
            by_degree[d2] = [(t2, c2)]
        else:
            got.append((t2, c2))
    classes = sorted(by_degree.items())
    out: dict = {}
    for t1, c1 in a.items():
        room = step - tree_degree(t1)
        for d2, terms in classes:
            if d2 > room:
                break
            for t2, c2 in terms:
                c12 = c1 * c2
                if not c12:
                    continue
                for t, k in bracket_basis(t1, t2).items():
                    cur = out.get(t)
                    cur = c12 * k if cur is None else cur + c12 * k
                    if cur:
                        out[t] = cur
                    else:
                        out.pop(t, None)
    return out


# ---------------------------------------------------------------------------
# elements

class LieElement:
    """A finite Q-linear combination of Lyndon basis brackets.

    Instances are immutable by convention; all operations return new elements.
    Coefficients are Fractions; the constructor and scalar multiplication
    refuse any scalar that is not an exact rational.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: Mapping):
        index = _basis_index(ctx.num_generators, ctx.step)
        basis = hall_basis(ctx)
        clean: dict = {}
        for t, c in terms.items():
            if isinstance(t, str):
                t = basis_tree(t, ctx)
            i = index.get(t)
            if i is None:
                raise GradingError(
                    f"{tree_str(t, ctx.symbols)} is not a basis tree at step {ctx.step}"
                )
            if not isinstance(c, Fraction):
                c = as_fraction(c)
            if c:
                # the basis tree itself, so that a parsed tree is not kept
                # as a second copy and look-ups find it by identity
                clean[basis[i]] = c
        self.ctx = ctx
        self.terms = clean

    @classmethod
    def _raw(cls, ctx: AlgebraContext, terms: dict) -> "LieElement":
        x = cls.__new__(cls)
        x.ctx = ctx
        x.terms = terms
        return x

    @classmethod
    def zero(cls, ctx: AlgebraContext) -> "LieElement":
        return cls._raw(ctx, {})

    def _check_ctx(self, other: "LieElement") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError(
                f"cannot combine elements of {self.ctx} and {other.ctx}"
            )

    def __add__(self, other: "LieElement") -> "LieElement":
        if not isinstance(other, LieElement):
            return NotImplemented
        self._check_ctx(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            cur = out.get(t)
            cur = c if cur is None else cur + c
            if cur:
                out[t] = cur
            else:
                del out[t]
        return LieElement._raw(self.ctx, out)

    def __sub__(self, other: "LieElement") -> "LieElement":
        if not isinstance(other, LieElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LieElement":
        return LieElement._raw(self.ctx, {t: -c for t, c in self.terms.items()})

    def __mul__(self, scalar) -> "LieElement":
        if isinstance(scalar, LieElement):
            raise TypeError("use bracket() for the Lie product")
        if not isinstance(scalar, Fraction):
            scalar = as_fraction(scalar)
        if not scalar:
            return LieElement.zero(self.ctx)
        return LieElement._raw(self.ctx, {t: c * scalar for t, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "LieElement":
        return self * (Fraction(1) / as_fraction(scalar))

    def bracket(self, other: "LieElement") -> "LieElement":
        if not isinstance(other, LieElement):
            raise TypeError("bracket requires another LieElement")
        self._check_ctx(other)
        return LieElement._raw(
            self.ctx, bracket_coords(self.terms, other.terms, self.ctx.step)
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({tree_degree(t) for t in self.terms}))

    def max_degree(self) -> int:
        """Largest support degree, 0 for the zero element."""
        return max((tree_degree(t) for t in self.terms), default=0)

    def min_degree(self) -> int:
        return min((tree_degree(t) for t in self.terms), default=0)

    def degree_component(self, d: int) -> "LieElement":
        return LieElement._raw(
            self.ctx, {t: c for t, c in self.terms.items() if tree_degree(t) == d}
        )

    def is_homogeneous(self, d: int) -> bool:
        return all(tree_degree(t) == d for t in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def sorted_terms(self) -> list:
        """(tree, coefficient) pairs in basis order."""
        index = _basis_index(self.ctx.num_generators, self.ctx.step)
        return sorted(self.terms.items(), key=lambda item: index[item[0]])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for t, c in self.sorted_terms():
            name = tree_str(t, self.ctx.symbols)
            parts.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LieElement({self})"

    def coordinates(self, degree: int | None = None) -> list:
        """Dense coordinate vector over the basis (optionally one degree)."""
        basis = hall_basis(self.ctx)
        if degree is not None:
            basis = tuple(t for t in basis if tree_degree(t) == degree)
        return [self.terms.get(t, _ZERO) for t in basis]


def ad_power(a: LieElement, b: LieElement, k: int) -> LieElement:
    """k-fold iterated bracket of a against b."""
    if k < 0:
        raise ValueError("ad power must be nonnegative")
    out = b
    for _ in range(k):
        out = a.bracket(out)
    return out


# ---------------------------------------------------------------------------
# right-normed bracket patterns

def patterns(num_generators: int, arity: int) -> Iterator[BracketPattern]:
    """All maps {1..arity} -> {1..L} in lexicographic order."""
    return itertools.product(range(1, num_generators + 1), repeat=arity)


def rightnormed_fold(pattern: BracketPattern, args: Sequence, op, memo: dict):
    """op(a_1, op(a_2, ... op(a_(j-1), a_j))) with a_i = args[pattern[i] - 1].
    The value of every suffix of two or more indices is kept in memo, so
    patterns folded through one memo share their common suffixes."""
    val = args[pattern[-1] - 1]
    for k in range(len(pattern) - 2, -1, -1):
        suffix = pattern[k:]
        got = memo.get(suffix)
        if got is None:
            got = memo[suffix] = op(args[pattern[k] - 1], val)
        val = got
    return val


def check_pattern(pattern: BracketPattern, num_args: int) -> None:
    """Refuse an empty pattern or an index outside 1..num_args."""
    if not pattern:
        raise ValueError("pattern must be nonempty")
    for i in pattern:
        if not 1 <= i <= num_args:
            raise ValueError(f"pattern index {i} out of range for {num_args} arguments")


def eval_bracket_pattern(
    pattern: BracketPattern, args: Sequence[LieElement]
) -> LieElement:
    """Right-normed bracket of args selected by a 1-based index pattern."""
    check_pattern(pattern, len(args))
    return rightnormed_fold(pattern, args, LieElement.bracket, {})


@cache
def _rightnormed_solver(num_generators: int, arity: int):
    """Pivot patterns, their coordinate block's inverse as (den, int rows),
    and the degree's basis trees. Columns are the right-normed generator
    brackets h_alpha in lexicographic pattern order; the pivot columns are
    the lexicographically first spanning subset, which fixes a deterministic
    decomposition."""
    basis = tuple(t for t in _basis(num_generators, arity) if tree_degree(t) == arity)
    row_of = {t: r for r, t in enumerate(basis)}
    units = [{i: 1} for i in range(num_generators)]
    op, memo = (lambda u, v: bracket_coords(u, v, arity)), {}  # one memo per degree
    cols = ({row_of[t]: c for t, c in rightnormed_fold(a, units, op, memo).items()}
            for a in patterns(num_generators, arity))
    try:
        chosen, den, rows = spanning_inverse(cols, len(basis))
    except InternalInvariantError as e:
        raise InternalInvariantError(
            f"right-normed brackets fail to span degree {arity} over {num_generators} generators"
        ) from e
    picked = set(chosen)
    pivots = tuple(a for j, a in enumerate(patterns(num_generators, arity)) if j in picked)
    return pivots, den, rows, basis


def rightnormed_decomposition(x: LieElement, degree: int | None = None) -> dict:
    """Write a homogeneous element as a combination of right-normed generator
    brackets, supported on the lexicographically first spanning patterns.

    With an explicit degree the element is first restricted to that degree;
    otherwise it must be homogeneous. Returns a dict mapping patterns to
    coefficients (free patterns omitted).
    """
    if degree is not None:
        x = x.degree_component(degree)
    if x.is_zero:
        return {}
    degs = x.degrees()
    if len(degs) != 1:
        raise GradingError(f"decomposition needs a homogeneous element, got degrees {degs}")
    arity = degs[0]
    pivots, den, rows, basis = _rightnormed_solver(x.ctx.num_generators, arity)
    sol = apply_inverse(den, rows, [x.terms.get(t, 0) for t in basis])
    return {alpha: c for alpha, c in zip(pivots, sol) if c}
