"""Exact matrix layer: exp/log, powers, substitution oracle plumbing."""

from fractions import Fraction
from math import factorial
from random import Random

import pytest

from nilbch.algebra import AlgebraContext
from nilbch.bch import bch
from nilbch.growth import generate_ball, ut_generators
from nilbch.matrices import (
    NilpotentMatrix,
    UnipotentMatrix,
    mat_exp,
    mat_identity,
    mat_inverse,
    mat_log,
    mat_mul,
    mat_power,
    nil_add,
    nil_bracket,
    nil_scale,
    nil_zero,
    random_nilpotent,
    random_unipotent,
    substitute,
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
        # the same matrix from Fractions: stored as ints, equal, same hash
        twin = UnipotentMatrix([[F(e) for e in row] for row in a.rows])
        assert ints(twin) and twin == a and hash(twin) == hash(a)
        assert twin.tri == a.tri and hash(twin.tri) == hash(a.tri)
    # integral values of any exact type are stored as ints, others as Fractions
    u = UnipotentMatrix(((1, F(4, 2), "3"), (0, 1, "1/2"), (0, 0, 1)))
    assert [type(e) for e in u.tri] == [int, int, Fraction] and u.tri == (2, 3, F(1, 2))
    # exp and log leave the integers where the series needs halves
    e12 = UnipotentMatrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    e23 = UnipotentMatrix(((1, 0, 0), (0, 1, 1), (0, 0, 1)))
    assert mat_log(mat_mul(e12, e23)).tri == (1, F(1, 2), 1)
    assert mat_exp(mat_log(mat_mul(e12, e23))) == mat_mul(e12, e23)
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
