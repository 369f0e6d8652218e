"""Unipotent and strictly upper-triangular matrices over Q.

These realize the truncated algebra and group concretely: matrix exp and log
are finite sums, and substituting strictly upper-triangular d x d matrices
for the generators of a step-(d-1) algebra is exact because products of d or
more such matrices vanish. The substitution homomorphism doubles as an
independent check on every symbolic identity in the package.

Both types store only the d(d-1)/2 entries above the diagonal, row by row
(the triangle): N for a nilpotent N and for a unipotent I + N; `.rows`
rebuilds the full d x d form. All arithmetic on bare triangles lives in one
cached namespace per dimension, `triangles(d)`: each function here checks
its operands, makes one call there and wraps the result, and the growth lab
and word evaluation (`matrix_group_ops`) call it directly. Every kernel
compiled there is straight-line code (power's after one branch on its
operand), none with a division by an entry.
The products over i < k < j, x + y + xy (mul) and xy - yx (bracket), are
each one tuple display built from the triangle's index pairs; the inverse
solves y = -x - xy from the bottom row up; the power (I + x)^k is the
binomial series sum C(k, j) x^j, a polynomial in k, by Horner's rule, so
any k, negative or large, takes a fixed number of steps, graded by x: when
superdiagonal l is the first nonzero one, x^j = 0 once j l >= d, so
(d - 1) // l levels run and no entry below superdiagonal l is read; the
commutator gh(hg)^-1 is one right division, solved row by row from the
left. exp and log are truncated series with no product kernel under them:
the entries' common denominator and the coefficients' denominators are
cleared, Horner's rule runs unrolled in ints with the cleared coefficients
as int literals (`exp_num`, `log_num`), and each entry is divided once at
the end; the growth lab keeps logs as int numerators over D = lcm(1..d-1)
in UT(d, Z) (`log_num`) and bracket level j over D^(j+1).

Entries are ints where integral and Fractions otherwise. The kernels do
arithmetic only, under which int triangles stay ints, so UT(d, Z) never
leaves ints; the constructor, exp, log, nil_scale, `mat_inverse`,
`mat_power` and the leave of `matrix_group_ops` store every integral entry
as an int, once per result. A sum or product of Fraction entries may keep
an integral value as a Fraction; Fraction(2) == 2 and both hash alike, so
equality, hashing and the `.tri` order ignore the type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import factorial, lcm
from operator import add, index as _index
from types import SimpleNamespace
from typing import Sequence

from .algebra import LieElement, as_fraction, tree_fold
from .errors import GradingError
from .record import Record
from .series import cleared

Rows = tuple[tuple[int | Fraction, ...], ...]
Tri = tuple[int | Fraction, ...]
_INT = frozenset({int})


def _entry(x) -> int | Fraction:
    """x as an exact entry: an int when integral, a Fraction otherwise."""
    q = as_fraction(x)
    return q.numerator if q.denominator == 1 else q


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
        super().__init__(d, tuple(x for i, row in enumerate(rows) for x in row[i + 1 :]))
        if self.rows != rows:  # the triangle alone must give back every entry
            raise ValueError(f"diagonal must be {self._DIAGONAL} and entries below it 0")

    @classmethod
    def _raw(cls, dim: int, tri: Tri):
        m = object.__new__(cls)
        _set_dim(m, dim)
        _set_tri(m, tri)
        return m

    # Record's generic equality and hash go through a per-class getter and
    # a method call, slower; the growth lab hashes every matrix it returns
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


# the slots' own setters: the fastest way past Record's refusal to assign
_set_dim, _set_tri = _Triangular.dim.__set__, _Triangular.tri.__set__


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


@cache
def triangles(d: int) -> _Triangles:
    """All arithmetic on the triangles of d x d matrices, one namespace per d.

    zero, add(x, y) and scale(x, c) are the vector space; each other name is
    built on its first read, so a caller compiles only what it reads.
    mul(x, y) = x + y + xy is the product of I + x and I + y, bracket(x, y)
    = xy - yx, inverse(x) gives (I + x)^-1, power(x, k) (I + x)^k for any
    integer k (read through operator.index, so a float or a Fraction is a
    TypeError; graded by the first superdiagonal l holding a nonzero entry
    of x, on which it runs (d - 1) // l Horner levels, and the zero triangle
    returned as it is) and commutator(x, y) gh(hg)^-1 for g = I + x and
    h = I + y, each as its triangle. log(x) reads x as I + x and exp(x) x as
    nilpotent; both are truncated series, undivided in log_num(x, den) and
    exp_num(x, den): x as int numerators over den in, int numerators over
    one denominator out, as (numerators, denominator). The seven compiled
    kernels (all but exp and log) are straight-line code (power's after
    one branch on x), arithmetic only, with no division by an entry: int
    triangles stay ints, and from Fractions an integral entry may stay a
    Fraction until `mat_inverse`, `mat_power` or the leave of
    `matrix_group_ops` makes it an int; exp and log divide each entry of
    exp_num and log_num once.
    """
    if d < 0:
        raise ValueError(f"matrix dimension {d} is negative")
    return _Triangles(dim=d, zero=(0,) * len(_pairs(d)), add=_add, scale=_scale)


class _Triangles(SimpleNamespace):
    """A `triangles(d)` namespace: a name not yet kept is built by `_BUILD`
    and kept. Two threads reading it first may each build it; one is kept."""

    def __getattr__(self, name: str):  # reached only for a name not yet kept
        if name not in _BUILD:
            raise AttributeError(name)
        return vars(self).setdefault(name, _BUILD[name](self))


def _kernel(name: str, space: _Triangles):
    """Kernel `name` of a `triangles(d)` namespace as straight-line code: the
    entries unpacked, plain arithmetic on them, one tuple display returned."""
    d = space.dim
    pairs = _pairs(d)
    n = len(pairs)
    row = [i for i in range(d) for _ in range(i + 1, d)]
    diagonal = [j - i for i in range(d) for j in range(i + 1, d)]  # its superdiagonal

    def xy(t, term="x{p} * y{q}"):  # the terms over i < k < j at position t
        return [term.format(p=p, q=q) for p, q in pairs[t]]

    def horner(levels, l=1, indent="    "):
        # a = c_J x, then a = c_j x + x a for j = J - 1 .. 1, on an x zero on
        # the superdiagonals below l: x a then reads x and a only from
        # superdiagonal l up, and entry (i, m) of x a reads a only in rows
        # below i by at least l, so level j is read only from row (j - 1) l
        # down; at l = 1 every term is kept
        def xa(j, t):
            return "".join(
                f" + x{p} * a{j + 1}_{q}" for p, q in pairs[t] if diagonal[p] >= l and diagonal[q] >= l
            )

        return "".join(
            f"{indent}a{j}_{t} = c{j} * x{t}{xa(j, t)}\n"
            for j in reversed(range(1, levels + 1))
            for t in range(n)
            if row[t] >= (j - 1) * l and diagonal[t] >= l
        )

    def bracket(t):
        return " + ".join(xy(t, "x{p} * y{q} - y{p} * x{q}")) or "0"

    def display(entries, tail=""):
        return f"    return ({''.join(f'{e}, ' for e in entries)}){tail}\n"

    if name == "mul":
        params, body = "x, y", display(" + ".join([f"x{t}", f"y{t}", *xy(t)]) for t in range(n))
    elif name == "bracket":
        params, body = "x, y", display(map(bracket, range(n)))
    elif name == "inverse":
        # (I + x)^-1 = I + y with y = -x - xy, row by row from the bottom: y_ij
        # reads only y_kj, k > i, so each entry is assigned before it is read
        params, body = "x", "".join(
            f"    y{t} = -({' + '.join([f'x{t}', *xy(t)])})\n" for t in reversed(range(n))
        ) + display(f"y{t}" for t in range(n))
    elif name == "power":
        # (I + x)^k is the sum of c_j x^j over j < d with c_j = C(k, j), exact
        # in ints for every integer k since c_(j-1) (k - j + 1) = j c_j. When
        # superdiagonal l is the first that holds a nonzero entry, x^j = 0 for
        # j l >= d, so Horner's rule runs J = (d - 1) // l levels and the
        # entries below superdiagonal l stay 0; the zero triangle is x itself
        graded = []
        for l in range(1, d):
            levels = (d - 1) // l
            graded.append(
                f"    if {' or '.join(f'x{t}' for t in range(n) if diagonal[t] == l)}:\n"
                + "".join(f"        c{j} = c{j - 1} * (k - {j - 1}) // {j}\n" for j in range(2, levels + 1))
                + horner(levels, l, "        ")
                + "    " + display(f"a1_{t}" if diagonal[t] >= l else "0" for t in range(n))
            )
        params, body = "x, k", "    c1 = k = _index(k)\n" + "".join(graded) + "    return x\n"
    elif name in _SERIES:
        # the sum of c_k N^k over 0 < k < d, N = x / den, with the c_k cleared
        # to ints a_k over L: S / (L den^(d-1)) where, by Horner's rule,
        # S = x (a_1 den^(d-2) + x (a_2 den^(d-3) + ... + x a_(d-1))), so
        # level j is a_j den^(d-1-j) x + x a, all d - 1 levels at l = 1 as in
        # power; the compiler folds the products by a literal 1
        a, lcd = cleared([_SERIES[name](k) for k in range(1, d)])
        den_to = ["1", "den", *[f"e{i}" for i in range(2, d)]]  # den^i
        params, body = "x, den", "".join(
            f"    e{i} = {den_to[i - 1]} * den\n" for i in range(2, d)
        ) + "".join(
            f"    c{j} = {a[j - 1]} * {den_to[d - 1 - j]}\n" for j in range(1, d)
        ) + horner(d - 1) + display((f"a1_{t}" for t in range(n)), f", {lcd} * {den_to[max(d - 1, 0)]}")
    else:
        # gh(hg)^-1 = (I + p)(I + q)^-1 = I + z with p = x + y + xy and
        # q = x + y + yx, one right division: z + q + zq = p, so
        # z_ij = (xy - yx)_ij - sum z_ik q_kj, solved row by row from the
        # left; z is 0 at width 1 (no pairs), so q is read from row 2 down
        params, body = "x, y", "".join(
            f"    q{t} = {' + '.join([f'x{t}', f'y{t}', *xy(t, 'y{p} * x{q}')])}\n"
            for t in range(n)
            if row[t] >= 2
        ) + "".join(
            f"    z{t} = {bracket(t)}"
            f"{''.join(f' - z{p} * q{q}' for p, q in pairs[t] if pairs[p])}\n"
            for t in range(n)
        ) + display(f"z{t}" for t in range(n))
    unpack = "".join(
        f"    {''.join(f'{v}{t}, ' for t in range(n))}= {v}\n"
        for v in params.split(", ")
        if n and v in ("x", "y")  # d < 2: nothing to unpack, every display is ()
    )
    namespace: dict = {"_index": _index}
    exec(compile(f"def {name}({params}):\n{unpack}{body}", f"<triangles d={d}>", "exec"), namespace)
    return namespace[name]


# the coefficient c_k of N^k in each series, as an int pair (p, q)
_SERIES = {
    "exp_num": lambda k: (1, factorial(k)),
    "log_num": lambda k: ((-1) ** (k + 1), k),
}

_BUILD = {
    **{k: partial(_kernel, k) for k in ("mul", "bracket", "inverse", "power", "commutator", *_SERIES)},
    "exp": lambda s: _divided(s.exp_num),
    "log": lambda s: _divided(s.log_num),
}


def _numerators(tri: Tri) -> tuple[Sequence[int], int]:
    """(M, D): the entries as ints M over their least common denominator D."""
    den = lcm(*[v.denominator for v in tri])
    if den == 1:
        return [v.numerator for v in tri], 1
    return [v.numerator * (den // v.denominator) for v in tri], den


def _quotients(nums, den: int) -> Tri:
    """nums / den entrywise: an int where den divides, else a Fraction."""
    if den == 1:
        return tuple(nums)
    return tuple([v // den if not v % den else Fraction(v, den) for v in nums])


def _unipotent(d: int, tri: Tri) -> UnipotentMatrix:
    """A kernel's result as a matrix, its integral entries made ints: one
    test of the entry types when all are ints, as from int operands."""
    if not _INT.issuperset(map(type, tri)):
        tri = tuple([v.numerator if v.denominator == 1 else v for v in tri])
    return UnipotentMatrix._raw(d, tri)


def _add(x: Tri, y: Tri) -> Tri:
    return tuple(map(add, x, y))


def _scale(tri: Tri, c) -> Tri:
    """nil_scale on the triangle alone."""
    if type(c) is not int:
        c = as_fraction(c)
    m, den = _numerators(tri)
    p = c.numerator
    return _quotients([v * p for v in m], den * c.denominator)


def _divided(series):
    """series on a triangle, each entry divided once at the end."""
    return lambda tri: _quotients(*series(*_numerators(tri)))


def _dim(kind: type, *ms) -> int:
    """The dimension the arguments share. They must all be of type kind: the
    same triangle is another matrix in the other type or at another size."""
    for m in ms:
        if type(m) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {type(m).__name__}")
        if m.dim != ms[0].dim:
            raise ValueError("matrices must share a dimension")
    return ms[0].dim


def mat_identity(d: int) -> UnipotentMatrix:
    return UnipotentMatrix._raw(d, triangles(d).zero)


def mat_mul(a: UnipotentMatrix, b: UnipotentMatrix) -> UnipotentMatrix:
    """(I + a)(I + b) = I + (a + b + ab) on the triangles."""
    d = _dim(UnipotentMatrix, a, b)
    return UnipotentMatrix._raw(d, triangles(d).mul(a.tri, b.tri))


def mat_inverse(a: UnipotentMatrix) -> UnipotentMatrix:
    """Inverse by back substitution: (I + a)^-1 = I + y, y = -a - ay."""
    d = _dim(UnipotentMatrix, a)
    return _unipotent(d, triangles(d).inverse(a.tri))


def mat_power(a: UnipotentMatrix, k: int) -> UnipotentMatrix:
    """a^k for any integer k, as the binomial series sum C(k, j) (a - I)^j
    over j < d; a float or a Fraction exponent is a TypeError."""
    d = _dim(UnipotentMatrix, a)
    return _unipotent(d, triangles(d).power(a.tri, k))


def mat_exp(n: NilpotentMatrix) -> UnipotentMatrix:
    """Exponential as the finite sum of powers over factorials."""
    d = _dim(NilpotentMatrix, n)
    return UnipotentMatrix._raw(d, triangles(d).exp(n.tri))


def mat_log(u: UnipotentMatrix) -> NilpotentMatrix:
    """Logarithm as the finite alternating sum of powers of (u - 1)."""
    d = _dim(UnipotentMatrix, u)
    return NilpotentMatrix._raw(d, triangles(d).log(u.tri))


def nil_add(a: NilpotentMatrix, b: NilpotentMatrix) -> NilpotentMatrix:
    d = _dim(NilpotentMatrix, a, b)
    return NilpotentMatrix._raw(d, triangles(d).add(a.tri, b.tri))


def nil_scale(a: NilpotentMatrix, c) -> NilpotentMatrix:
    """c a, in ints over the common denominator of a's entries and c."""
    d = _dim(NilpotentMatrix, a)
    return NilpotentMatrix._raw(d, triangles(d).scale(a.tri, c))


def nil_bracket(a: NilpotentMatrix, b: NilpotentMatrix) -> NilpotentMatrix:
    d = _dim(NilpotentMatrix, a, b)
    return NilpotentMatrix._raw(d, triangles(d).bracket(a.tri, b.tri))


def nil_zero(d: int) -> NilpotentMatrix:
    return NilpotentMatrix._raw(d, triangles(d).zero)


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

    acc, memo = nil_zero(d), {}
    for t, c in x.terms.items():
        acc = nil_add(acc, nil_scale(tree_fold(t, mats, nil_bracket, memo), c))
    return acc


def random_nilpotent(d: int, rng) -> NilpotentMatrix:
    """Random strictly upper-triangular matrix with entries k/q, k in -2..2, q in {1, 2}."""
    tri = [_entry(Fraction(rng.randint(-2, 2), rng.choice((1, 2)))) for _ in triangles(d).zero]
    return NilpotentMatrix._raw(d, tuple(tri))


def random_unipotent(d: int, rng) -> UnipotentMatrix:
    """Random unipotent matrix with entries in -2..2 above the diagonal."""
    tri = [rng.randint(-2, 2) for _ in triangles(d).zero]
    return UnipotentMatrix._raw(d, tuple(tri))


def matrix_group_ops(d: int):
    """UT(d, Q) as the triangle arithmetic of `triangles(d)`."""
    from .words import GroupOps

    tri, one = triangles(d), mat_identity(d)

    def enter(m: UnipotentMatrix) -> Tri:
        if type(m) is not UnipotentMatrix or m.dim != d:
            _dim(UnipotentMatrix, one, m)  # raises the error mat_mul would
        return m.tri

    leave = partial(_unipotent, d)
    return GroupOps(tri.zero, tri.mul, tri.power, tri.commutator, enter, leave)
