"""Exact matrix layer: exp/log, powers, substitution oracle plumbing."""

import ast
from fractions import Fraction
from math import factorial, prod
from operator import add, index
from pathlib import Path
from random import Random

import pytest

from nilbch import growth, words
from nilbch.algebra import AlgebraContext
from nilbch.bch import bch
from nilbch.growth import generate_ball, ut_generators
from nilbch.series import cleared
from nilbch.matrices import (
    NilpotentMatrix,
    UnipotentMatrix,
    _divided,
    _pairs,
    mat_exp,
    mat_identity,
    mat_inverse,
    mat_log,
    mat_mul,
    mat_power,
    matrix_group_ops,
    nil_add,
    nil_bracket,
    nil_scale,
    nil_zero,
    random_nilpotent,
    random_unipotent,
    substitute,
    triangles,
)
from nilbch.verify import random_lie


def F(p, q=1):
    return Fraction(p, q)


def test_validation():
    with pytest.raises(ValueError):
        NilpotentMatrix(((F(1), F(0)), (F(0), F(0))))  # diagonal must vanish
    with pytest.raises(ValueError):
        UnipotentMatrix(((F(1), F(2)), (F(3), F(1))))  # lower part must vanish
    with pytest.raises(ValueError):
        NilpotentMatrix(((F(0), F(1)),))  # ragged
    with pytest.raises(ValueError):
        UnipotentMatrix(((F(2), F(0)), (F(0), F(1))))  # diagonal must be 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: mat_identity(-2),
        lambda: nil_zero(-1),
        lambda: random_unipotent(-3, Random(0)),
        lambda: random_nilpotent(-1, Random(0)),
    ],
    ids=["mat_identity", "nil_zero", "random_unipotent", "random_nilpotent"],
)
def test_negative_dimensions_are_refused(make):
    # triangles(d) refuses d < 0 instead of building an empty triangle
    with pytest.raises(ValueError, match="negative"):
        make()


R = Random("matrices:operands")
U3, U4 = random_unipotent(3, R), random_unipotent(4, R)
X3, X4 = random_nilpotent(3, R), random_nilpotent(4, R)


@pytest.mark.parametrize(
    "error, call",
    [
        (ValueError, lambda: mat_mul(U3, U4)),
        (ValueError, lambda: mat_mul(U4, U3)),
        (ValueError, lambda: nil_add(X3, X4)),
        (ValueError, lambda: nil_bracket(X4, X3)),
        (TypeError, lambda: mat_mul(U3, X3)),
        (TypeError, lambda: mat_inverse(X3)),
        (TypeError, lambda: mat_power(X3, 0)),
        (TypeError, lambda: mat_exp(U3)),
        (TypeError, lambda: mat_log(X3)),
        (TypeError, lambda: nil_scale(U3, 2)),
        (TypeError, lambda: substitute(AlgebraContext(2, 2).generator(0), [X3, U3])),
        (TypeError, lambda: mat_power(5, 1)),
        (TypeError, lambda: mat_inverse(5)),
        (TypeError, lambda: mat_mul(5, mat_identity(2))),
        (TypeError, lambda: mat_log(None)),
    ],
    ids=[
        "mul-3x4",
        "mul-4x3",
        "add-3x4",
        "bracket-4x3",
        "mul-nilpotent",
        "inverse-nilpotent",
        "power-nilpotent",
        "exp-unipotent",
        "log-nilpotent",
        "scale-unipotent",
        "substitute-unipotent",
        "power-int",
        "inverse-int",
        "mul-int-first",
        "log-none",
    ],
)
def test_operands_must_match(error, call):
    # a triangle read as the other type or size is another matrix
    with pytest.raises(error):
        call()


def test_exp_log_roundtrip():
    rng = Random("matrices:explog")
    for d in range(2, 7):
        for _ in range(10):
            x = random_nilpotent(d, rng)
            assert mat_log(mat_exp(x)) == x
            u = random_unipotent(d, rng)
            assert mat_exp(mat_log(u)) == u


def test_heisenberg_log_by_hand():
    u = UnipotentMatrix(((F(1), F(2), F(5)), (F(0), F(1), F(3)), (F(0), F(0), F(1))))
    # log = N - N^2/2 with N = u - 1; the corner picks up -ab/2
    expected = NilpotentMatrix(
        ((F(0), F(2), F(5) - F(2) * F(3) / 2), (F(0), F(0), F(3)), (F(0), F(0), F(0)))
    )
    assert mat_log(u) == expected


def test_power_and_inverse():
    rng = Random("matrices:power")
    u = random_unipotent(4, rng)
    assert mat_power(u, 0) == mat_identity(4)
    assert mat_power(u, 3) == mat_mul(mat_mul(u, u), u)
    assert mat_power(u, -2) == mat_inverse(mat_mul(u, u))
    assert mat_mul(u, mat_inverse(u)) == mat_identity(4)


@pytest.mark.parametrize("k", [2.0, F(1, 2), F(2)], ids=["float", "half", "Fraction-2"])
def test_non_integer_exponents_are_refused(k):
    # the binomial coefficients of a float or a Fraction would put an
    # inexact or non-integral exponent into an exact matrix
    u = random_unipotent(3, Random("matrices:exponent"))
    with pytest.raises(TypeError):
        mat_power(u, k)
    with pytest.raises(TypeError):
        triangles(3).power(u.tri, k)
    assert mat_power(u, True) == u and triangles(3).power(u.tri, True) == u.tri


def test_nilpotent_vector_ops():
    rng = Random("matrices:ops")
    x, y = random_nilpotent(4, rng), random_nilpotent(4, rng)
    assert nil_add(x, nil_scale(x, -1)) == nil_zero(4)
    assert nil_bracket(x, y) == nil_scale(nil_bracket(y, x), -1)


def test_substitute_strict_dimension():
    ctx = AlgebraContext(2, 3)
    z = bch(ctx.generator(0), ctx.generator(1))
    rng = Random("matrices:subst")
    a, b = random_nilpotent(3, rng), random_nilpotent(3, rng)
    with pytest.raises(ValueError):
        substitute(z, [a, b])  # strict wants dimension step + 1 = 4
    # relaxed allows smaller dimensions (they kill more brackets)
    got = substitute(z, [a, b], strict=False)
    assert got == mat_log(mat_mul(mat_exp(a), mat_exp(b)))
    with pytest.raises(ValueError):
        substitute(z, [random_nilpotent(5, rng), random_nilpotent(5, rng)], strict=False)


def test_substitute_respects_linearity():
    ctx = AlgebraContext(2, 2)
    x, y = ctx.generators()
    rng = Random("matrices:linear")
    a, b = random_nilpotent(3, rng), random_nilpotent(3, rng)
    assert substitute(x + y, [a, b]) == nil_add(a, b)
    assert substitute(x.bracket(y), [a, b]) == nil_bracket(a, b)


# A dense reference over the full d x d rows, kept independent of the
# triangle storage: literal sums over every k, series as sums of powers.


def dense_mul(a, b):
    d = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def dense_add(a, b, c=1):
    return [[x + c * y for x, y in zip(r, s)] for r, s in zip(a, b)]


def dense_identity(d):
    return [[F(int(i == j)) for j in range(d)] for i in range(d)]


def dense_series(n, coeffs):
    """Sum of coeffs[k] n^k over k = 0 .. d - 1."""
    d = len(n)
    out = [[F(0)] * d for _ in range(d)]
    power = dense_identity(d)
    for k in range(d):
        out = dense_add(out, power, coeffs(k))
        power = dense_mul(power, n)
    return out


def dense_power(a, k):
    d = len(a)
    if k < 0:
        a = dense_series(dense_add(a, dense_identity(d), -1), lambda j: (-1) ** j)
        k = -k
    out = dense_identity(d)
    for _ in range(k):
        out = dense_mul(out, a)
    return out


def dense_bracket(a, b):
    return dense_add(dense_mul(a, b), dense_mul(b, a), -1)


def dense_substitute(x, mats):
    def tree(t):
        if isinstance(t, int):
            return [list(r) for r in mats[t].rows]
        return dense_bracket(tree(t[0]), tree(t[1]))

    d = mats[0].dim
    out = [[F(0)] * d for _ in range(d)]
    for t, c in x.terms.items():
        out = dense_add(out, tree(t), c)
    return out


def rows_of(dense):
    return tuple(tuple(r) for r in dense)


def random_entry(kind, rng):
    """An int, a p/q with q in (2, 3), or either one at random."""
    if kind == "mixed":
        kind = rng.choice(("int", "rational"))
    return rng.randint(-2, 2) if kind == "int" else F(rng.randint(-2, 2), rng.choice((2, 3)))


def random_triangular(cls, d, kind, rng):
    """A matrix of type cls built by its constructor from full rows."""
    diagonal = int(cls is UnipotentMatrix)
    rows = [
        [diagonal if i == j else random_entry(kind, rng) if j > i else 0 for j in range(d)]
        for i in range(d)
    ]
    return cls(rows)


KINDS = [("int", "int"), ("rational", "rational"), ("int", "rational"), ("mixed", "mixed")]


@pytest.mark.parametrize("d", range(1, 7))
def test_triangle_matches_dense_reference(d):
    rng = Random(f"matrices:dense:{d}")
    for _ in range(3):
        for kind_a, kind_b in KINDS:
            a = random_triangular(UnipotentMatrix, d, kind_a, rng)
            b = random_triangular(UnipotentMatrix, d, kind_b, rng)
            x = random_triangular(NilpotentMatrix, d, kind_a, rng)
            y = random_triangular(NilpotentMatrix, d, kind_b, rng)
            check_against_dense(d, a, b, x, y, rng)
        check_against_dense(
            d, random_unipotent(d, rng), random_unipotent(d, rng),
            random_nilpotent(d, rng), random_nilpotent(d, rng), rng,
        )


def check_against_dense(d, a, b, x, y, rng):
    ra, rb = [list(r) for r in a.rows], [list(r) for r in b.rows]
    rx, ry = [list(r) for r in x.rows], [list(r) for r in y.rows]
    assert mat_mul(a, b).rows == rows_of(dense_mul(ra, rb))
    assert mat_inverse(a).rows == rows_of(dense_power(ra, -1))
    for k in range(-3, 6):
        assert mat_power(a, k).rows == rows_of(dense_power(ra, k))
    assert mat_exp(x).rows == rows_of(dense_series(rx, lambda k: F(1, factorial(k))))
    n = dense_add(ra, dense_identity(d), -1)
    log = dense_series(n, lambda k: F((-1) ** (k + 1), k) if k else F(0))
    assert mat_log(a).rows == rows_of(log)
    assert nil_bracket(x, y).rows == rows_of(dense_bracket(rx, ry))
    if d > 1:
        z = random_lie(AlgebraContext(2, d - 1), rng)
        assert substitute(z, [x, y]).rows == rows_of(dense_substitute(z, [x, y]))


def test_integral_entries_are_ints():
    def ints(m):
        return all(type(e) is int for row in m.rows for e in row)

    rng = Random("matrices:ints")
    for d in range(1, 6):
        a = random_triangular(UnipotentMatrix, d, "int", rng)
        b = random_triangular(UnipotentMatrix, d, "int", rng)
        assert ints(a) and ints(random_unipotent(d, rng))
        assert ints(mat_mul(a, b)) and ints(mat_inverse(a))
        assert all(ints(mat_power(a, k)) for k in range(-3, 6))
        assert all(type(e) is int for e in triangles(d).commutator(a.tri, b.tri))
        # the same matrix from Fractions: stored as ints, equal, same hash
        twin = UnipotentMatrix([[F(e) for e in row] for row in a.rows])
        assert ints(twin) and twin == a and hash(twin) == hash(a)
        assert twin.tri == a.tri and hash(twin.tri) == hash(a.tri)
        # exp, log, scaling, sums and brackets keep every integral entry an int
        x = random_triangular(NilpotentMatrix, d, "int", rng)
        y = random_triangular(NilpotentMatrix, d, "int", rng)
        assert ints(nil_scale(x, 2)) and ints(nil_scale(x, -1))
        assert ints(nil_add(x, y)) and ints(nil_bracket(x, y))
        for m in (mat_log(a), mat_exp(x), mat_log(mat_exp(x)), random_nilpotent(d, rng)):
            assert all(type(e) is int for e in m.tri if e.denominator == 1)
    # integral values of any exact type are stored as ints, others as Fractions
    u = UnipotentMatrix(((1, F(4, 2), "3"), (0, 1, "1/2"), (0, 0, 1)))
    assert [type(e) for e in u.tri] == [int, int, Fraction] and u.tri == (2, 3, F(1, 2))
    # exp and log leave the integers where the series needs halves
    e12 = UnipotentMatrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    e23 = UnipotentMatrix(((1, 0, 0), (0, 1, 1), (0, 0, 1)))
    assert mat_log(mat_mul(e12, e23)).tri == (1, F(1, 2), 1)
    assert mat_exp(mat_log(mat_mul(e12, e23))) == mat_mul(e12, e23)
    assert [type(e) for e in mat_log(e12).tri] == [int, int, int]
    assert [type(e) for e in mat_log(mat_mul(e12, e23)).tri] == [int, Fraction, int]
    for bad in (0.5, 1.0):
        with pytest.raises(ValueError):
            UnipotentMatrix(((1, bad), (0, 1)))
        with pytest.raises(ValueError):
            NilpotentMatrix(((0, bad), (0, 0)))


def test_products_of_elementary_matrices_by_hand():
    e12 = UnipotentMatrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    e23 = UnipotentMatrix(((1, 0, 0), (0, 1, 1), (0, 0, 1)))
    # (I + E12)(I + E23) = I + E12 + E23 + E13, while E23 E12 = 0
    assert mat_mul(e12, e23).rows == ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    assert mat_mul(e23, e12).rows == ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    # so the commutator e12 e23 e12^-1 e23^-1 is I + E13
    comm = mat_mul(mat_mul(e12, e23), mat_inverse(mat_mul(e23, e12)))
    assert comm == UnipotentMatrix(((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    n12, n23 = mat_log(e12), mat_log(e23)
    assert nil_bracket(n12, n23) == NilpotentMatrix(((0, 0, 1), (0, 0, 0), (0, 0, 0)))


def test_representation_contract():
    rng = Random("matrices:contract")
    for d in range(1, 6):
        u, x = random_unipotent(d, rng), random_nilpotent(d, rng)
        assert UnipotentMatrix(u.rows) == u and hash(UnipotentMatrix(u.rows)) == hash(u)
        assert NilpotentMatrix(x.rows) == x and hash(NilpotentMatrix(x.rows)) == hash(x)
    # the same triangle as a nilpotent and as a unipotent matrix
    n = NilpotentMatrix(((0, 3), (0, 0)))
    u = UnipotentMatrix(((1, 3), (0, 1)))
    assert n.tri == u.tri and n != u and u != n
    # canonical order (the triangle) is the order of the full rows
    ball = generate_ball(3, ut_generators(3), 2)
    assert list(ball) == sorted(ball.elements, key=lambda m: m.rows)
    # 1 x 1: the triangle is empty
    one = UnipotentMatrix(((1,),))
    assert one == mat_identity(1) and one.rows == ((1,),)
    assert mat_mul(one, one) == mat_power(one, -3) == mat_inverse(one) == one
    assert mat_log(one) == nil_zero(1) and mat_exp(nil_zero(1)) == one
    assert nil_bracket(nil_zero(1), nil_zero(1)).rows == ((0,),)


# References for the generated kernels and the integer series, in the
# plainest form: a generic loop over the (i, k), (k, j) index pairs, and
# Horner's rule with the Fraction coefficients themselves.


def loop_tri_mul(d, x, y, base):
    return tuple(
        sum([x[p] * y[q] for p, q in ks], base[t]) for t, ks in enumerate(_pairs(d))
    )


def loop_bracket(d, x, y):
    minus_yx = tuple(-v for v in loop_tri_mul(d, y, x, (0,) * len(x)))
    return loop_tri_mul(d, x, y, minus_yx)


def fraction_series(d, n, coeff):
    acc = ()
    for k in range(d - 1, 0, -1):
        c = coeff(k)
        term = tuple(v * c for v in n)
        acc = loop_tri_mul(d, n, acc, term) if acc else term
    return acc


def random_operand(d, kind, rng):
    """A triangle of ints, of p/q, of ints near 10^30, or of all three."""

    def entry(kind):
        if kind == "mixed":
            kind = rng.choice(("int", "rational", "big"))
        if kind == "big":
            return rng.randint(-(10**30), 10**30)
        return random_entry(kind, rng)

    return tuple(entry(kind) for _ in range(d * (d - 1) // 2))


def typed(tri):
    return [(v, type(v)) for v in tri]


def canonical(tri):
    """The entries as the matrices store them: integral values as ints."""
    return tuple(v.numerator if v.denominator == 1 else v for v in tri)


SERIES = {
    "exp": lambda k: F(1, factorial(k)),
    "log": lambda k: F((-1) ** (k + 1), k),
    "inverse": lambda k: (-1) ** k,
}


def loop_mul(d, x, y):
    return loop_tri_mul(d, x, y, tuple(map(add, x, y)))


def horner(prod, coeffs):
    """The series route the generated exp_num and log_num replaced: the sum
    of c_k N^k over 0 < k < d, for the d - 1 coefficients c_k as int pairs
    (p, q), in ints. With N = M / D (M ints) and c_k = a_k / L, cleared as in
    series, the sum is S / (L D^(d-1)) where, by Horner's rule,
    S = M (a_1 D^(d-2) + M (a_2 D^(d-3) + ... + M a_(d-1))), one loop level
    per coefficient on prod(x, y, b) = b + xy. series(M, D) returns
    (S, L D^(d-1))."""
    a, lcd = cleared(coeffs[::-1])

    def series(m, den):
        acc, scale = [], 1
        for ak in a:
            c = ak * scale
            base = [v * c for v in m]
            acc = prod(m, acc, base) if acc else base
            scale *= den
        return tuple(acc), lcd * scale

    return series


SERIES_COEFFS = {
    "exp_num": lambda d: [(1, factorial(k)) for k in range(1, d)],
    "log_num": lambda d: [((-1) ** (k + 1), k) for k in range(1, d)],
}


def loop_series(d, name):
    return horner(lambda x, y, b: loop_tri_mul(d, x, y, b), SERIES_COEFFS[name](d))


def neumann_inverse(d, x):
    """The inverse route the generated kernel replaced: the Neumann series
    sum (-x)^k by Horner's rule in ints over one denominator, divided once."""
    coeffs = [((-1) ** k, 1) for k in range(1, d)]
    return _divided(horner(lambda x, y, b: loop_tri_mul(d, x, y, b), coeffs))(x)


def loop_power(d, x, k):
    """Square and multiply on the loop product, inverting by the Neumann
    series for k < 0."""
    out = None
    if k < 0:
        x, k = neumann_inverse(d, x), -k
    while k:
        if k & 1:
            out = x if out is None else loop_mul(d, out, x)
        k >>= 1
        if k:
            x = loop_mul(d, x, x)
    return (0,) * len(x) if out is None else out


def loop_commutator(d, g, h):
    return loop_mul(d, loop_mul(d, g, h), neumann_inverse(d, loop_mul(d, h, g)))


def dense_of(d, tri):
    """The full rows of I + tri."""
    it = iter(tri)
    return [[F(1) if i == j else next(it) if j > i else F(0) for j in range(d)] for i in range(d)]


def tri_of(dense):
    d = len(dense)
    return tuple(dense[i][j] for i in range(d) for j in range(i + 1, d))


def dense_binomial_power(a, k):
    """(I + N)^k as the finite binomial series sum C(k, j) N^j, for any k."""
    n = dense_add(a, dense_identity(len(a)), -1)
    return dense_series(n, lambda j: prod(range(k, k - j, -1)) // factorial(j))


POWERS = (*range(-3, 4), 46176, -46176, 10**30, -(10**30))


@pytest.mark.parametrize("kind", ["int", "rational", "mixed", "big"])
def test_generated_kernels_and_integer_series_match_references(kind):
    # the kernels do arithmetic only, so they are compared by value; entry
    # types are checked where a matrix leaves them: mat_inverse, mat_power
    # and words evaluated through matrix_group_ops
    rng = Random(f"matrices:kernels:{kind}")
    commutator = words.parse("c(a, b)")
    powers = {k: words.parse(f"a^{k}") for k in POWERS if k}
    for d in range(1, 9):
        tri, ops = triangles(d), matrix_group_ops(d)
        for _ in range(3):
            x, y = (random_operand(d, kind, rng) for _ in range(2))
            dx, dy = dense_of(d, x), dense_of(d, y)
            env = {"a": UnipotentMatrix(dx), "b": UnipotentMatrix(dy)}
            assert tri.mul(x, y) == loop_mul(d, x, y)
            assert tri.bracket(x, y) == loop_bracket(d, x, y)
            for name, coeff in SERIES.items():
                got, want = getattr(tri, name)(x), fraction_series(d, x, coeff)
                assert got == want
                if name != "inverse":  # exp and log return integral entries as ints
                    assert typed(got) == typed(canonical(want))
            # the straight-line kernels against the routes they replaced and
            # the dense oracles; types canonical entry by entry where the
            # matrices leave the kernels
            assert tri.inverse(x) == neumann_inverse(d, x)
            assert typed(mat_inverse(env["a"]).tri) == typed(neumann_inverse(d, x))
            got, want = tri.commutator(x, y), canonical(loop_commutator(d, x, y))
            assert got == want
            assert typed(words.evaluate_word(commutator, env, ops).tri) == typed(want)
            hg_inverse = dense_binomial_power(dense_mul(dy, dx), -1)
            assert got == tri_of(dense_mul(dense_mul(dx, dy), hg_inverse))
            for k in POWERS:
                got, want = tri.power(x, k), canonical(loop_power(d, x, k))
                assert got == want == tri_of(dense_binomial_power(dx, k))
                assert typed(mat_power(env["a"], k).tri) == typed(want)
                if k:  # a word has no exponent 0
                    assert typed(words.evaluate_word(powers[k], env, ops).tri) == typed(want)


def ungraded_power(d):
    """The power kernel before it was graded by its operand: Horner's rule
    over all d - 1 levels for every triangle, generated as it was."""
    pairs = _pairs(d)
    n = len(pairs)
    row = [i for i in range(d) for _ in range(i + 1, d)]
    unpack = f"    {''.join(f'x{t}, ' for t in range(n))}= x\n" if n else ""
    body = "    c1 = k = _index(k)\n" + "".join(
        f"    c{j} = c{j - 1} * (k - {j - 1}) // {j}\n" for j in range(2, d)
    ) + "".join(
        f"    a{j}_{t} = c{j} * x{t}"
        f"{''.join(f' + x{p} * a{j + 1}_{q}' for p, q in pairs[t])}\n"
        for j in reversed(range(1, d))
        for t in range(n)
        if row[t] >= j - 1
    ) + f"    return ({''.join(f'a1_{t}, ' for t in range(n))})\n"
    namespace = {"_index": index}
    exec(f"def power(x, k):\n{unpack}{body}", namespace)
    return namespace["power"]


def first_nonzero_at(d, l, kind, rng):
    """A triangle zero below superdiagonal l, with a nonzero entry on it;
    of ints, or of Fractions down to its zeros."""
    entry = (lambda v: v) if kind == "int" else (lambda v: F(v, rng.choice((1, 2, 3))))
    diagonal = [j - i for i in range(d) for j in range(i + 1, d)]
    x = [entry(rng.randint(-3, 3)) if s >= l else entry(0) for s in diagonal]
    x[rng.choice([t for t, s in enumerate(diagonal) if s == l])] = entry(rng.choice((-2, -1, 1, 2)))
    return tuple(x)


@pytest.mark.parametrize("kind", ["int", "Fraction"])
def test_graded_power_matches_the_ungraded_kernel(kind):
    # power runs (d - 1) // l Horner levels on a triangle whose first nonzero
    # superdiagonal is l and returns the zero triangle itself; the kernel
    # that always ran d - 1 levels is its oracle
    rng = Random(f"matrices:graded-power:{kind}")
    for d in range(9):
        graded, reference = triangles(d).power, ungraded_power(d)
        zero = triangles(d).zero if kind == "int" else tuple(map(F, triangles(d).zero))
        operands = [zero] + [first_nonzero_at(d, l, kind, rng) for l in range(1, d) for _ in range(3)]
        assert graded(zero, 46176) is zero
        for x in operands:
            for k in (0, 1, -1, 2, -2, 24, 46176, -(10**12), 10**30):
                got = graded(x, k)
                assert got == reference(x, k)
                if kind == "int":
                    assert {type(v) for v in got} <= {int}
            for k in (2.0, F(1, 2)):
                with pytest.raises(TypeError):
                    graded(x, k)


@pytest.mark.parametrize("kind", ["int", "rational", "mixed", "big"])
def test_generated_series_match_the_horner_loop(kind):
    # exp_num and log_num are unrolled straight-line code with the cleared
    # coefficients as int literals; the Horner loop on the product b + xy is
    # their oracle, on numerators of every kind and over every den
    rng = Random(f"matrices:series:{kind}")

    def entry():
        pick = rng.choice(("int", "rational", "big")) if kind == "mixed" else kind
        if pick == "big":
            return rng.randint(-(2**200), 2**200)
        return random_entry(pick, rng)

    for d in range(8):
        tri = triangles(d)
        for _ in range(4):
            x = tuple(entry() for _ in tri.zero)
            for name in SERIES_COEFFS:
                for den in (1, 2, 6, 12):
                    got, want = getattr(tri, name)(x, den), loop_series(d, name)(x, den)
                    assert got == want and type(got[1]) is int
                    if kind in ("int", "big"):
                        assert typed(got[0]) == typed(want[0])
            for name in ("exp", "log"):
                want = _divided(loop_series(d, f"{name}_num"))(x)
                assert typed(getattr(tri, name)(x)) == typed(want)
            # the round trips through the matrices
            if d > 1:
                u = UnipotentMatrix._raw(d, x)
                n = NilpotentMatrix._raw(d, x)
                assert mat_exp(mat_log(u)) == u and mat_log(mat_exp(n)) == n


def test_each_kernel_is_built_on_its_first_read():
    # a namespace of its own, not the cached one that other tests have read
    fresh = triangles.__wrapped__(4)
    built = {"mul", "bracket", "inverse", "power", "commutator"}
    built |= {"exp", "log", "exp_num", "log_num"}
    assert built.isdisjoint(vars(fresh))
    inverse = fresh.inverse
    assert built & vars(fresh).keys() == {"inverse"} and fresh.inverse is inverse
    # log is built on log_num alone: no product kernel is compiled for it
    assert fresh.log(fresh.zero) == fresh.zero
    assert built & vars(fresh).keys() == {"inverse", "log", "log_num"}
    with pytest.raises(AttributeError):
        fresh.prod
    with pytest.raises(AttributeError):
        fresh.transpose


# the internals of the triangle arithmetic, which only `matrices` may name;
# growth imports `_quotients` (each entry divided once, for what it returns)
# and `_dim` (its operand check) on purpose, so they are not listed
TRIANGLE_INTERNALS = {
    "_pairs", "_SERIES", "_divided", "_numerators", "_unipotent", "_add", "_scale"
}


@pytest.mark.parametrize("module", [growth, words], ids=["growth", "words"])
def test_triangle_arithmetic_is_reached_only_through_triangles(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    coeffs = {n for n in imported if n.startswith("_") and n.endswith("_coeff")}
    assert not imported & TRIANGLE_INTERNALS and not coeffs
