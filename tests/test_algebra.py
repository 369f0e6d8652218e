"""Basis construction, bracket arithmetic, and pattern decomposition."""

from fractions import Fraction
from random import Random

import pytest

from nilbch.algebra import (
    AlgebraContext,
    LieElement,
    bracket_basis,
    basis_tree,
    bracket_coords,
    dimensions_by_degree,
    eval_bracket_pattern,
    extract_lie_coords,
    hall_basis,
    is_lyndon,
    lyndon_words,
    patterns,
    rightnormed_decomposition,
    tree_degree,
    tree_foliage,
    tree_str,
    witt_counts,
)
from nilbch.bch import multi_bch
from nilbch.errors import ContextMismatchError, GradingError, InternalInvariantError
from nilbch.group import exp, rational_power
from nilbch.growth import scale_set
from nilbch.matrices import NilpotentMatrix, nil_scale, nil_zero


def mobius(n: int) -> int:
    out, d, rest = 1, 2, n
    while d * d <= rest:
        if rest % d == 0:
            rest //= d
            if rest % d == 0:
                return 0
            out = -out
        d += 1
    if rest > 1:
        out = -out
    return out


def witt_dimension(letters: int, degree: int) -> int:
    # necklace count: (1/d) sum_{e | d} mu(e) L^(d/e)
    total = sum(
        mobius(e) * letters ** (degree // e)
        for e in range(1, degree + 1)
        if degree % e == 0
    )
    assert total % degree == 0
    return total // degree


def random_element(ctx: AlgebraContext, rng: Random) -> LieElement:
    terms = {}
    for t in hall_basis(ctx):
        if rng.random() < 0.5:
            c = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
            if c:
                terms[t] = c
    return LieElement(ctx, terms)


def test_dimensions_match_witt_counter():
    for letters in (1, 2, 3):
        for step in range(1, 7):
            ctx = AlgebraContext(letters, step)
            dims = dimensions_by_degree(ctx)
            for d in range(1, step + 1):
                assert dims.get(d, 0) == witt_dimension(letters, d), (letters, d)


@pytest.mark.parametrize("letters", [1, 2, 3, 4])
def test_witt_dimensions_match_the_enumerated_basis(letters):
    # the enumeration that dimensions_by_degree replaced is its oracle: the
    # same dict, degrees in order, zero degrees left out
    for step in range(1, 8):
        ctx = AlgebraContext(letters, step)
        counted = {}
        for t in hall_basis(ctx):
            counted[tree_degree(t)] = counted.get(tree_degree(t), 0) + 1
        dims = dimensions_by_degree(ctx)
        assert list(dims.items()) == list(counted.items()), (letters, step)


def test_witt_sieve_matches_the_divisor_loop():
    # the loop over every divisor of each degree, which the sieve replaced,
    # is its oracle: every degree in order from the routine, and the same
    # counts in the dict, zero degrees left out
    for letters in range(1, 7):
        for step in range(1, 41):
            want = [(k, witt_dimension(letters, k)) for k in range(1, step + 1)]
            assert list(witt_counts(letters, step)) == want, (letters, step)
            got = dimensions_by_degree(AlgebraContext(letters, step))
            assert list(got.items()) == [(k, v) for k, v in want if v], (letters, step)
    # through 210 = 2 * 3 * 5 * 7, the first degree with four distinct primes
    assert list(witt_counts(3, 250)) == [(k, witt_dimension(3, k)) for k in range(1, 251)]


def test_two_generator_dims_through_degree_five():
    dims = dimensions_by_degree(AlgebraContext(2, 5))
    assert [dims[d] for d in range(1, 6)] == [2, 1, 2, 3, 6]


def test_basis_trees_are_lyndon():
    ctx = AlgebraContext(3, 5)
    for t in hall_basis(ctx):
        w = tree_foliage(t)
        assert is_lyndon(w)
        assert tree_degree(t) == len(w)
    words = sorted(lyndon_words(3, 5))
    assert sorted(tree_foliage(t) for t in hall_basis(ctx)) == words


def test_tree_string_roundtrip():
    for gens, step in ((1, 6), (2, 8), (3, 5), (4, 4)):
        ctx = AlgebraContext(gens, step)
        basis = hall_basis(ctx)
        names = [tree_str(t, ctx.symbols) for t in basis]
        assert len(set(names)) == len(names)
        assert [basis_tree(name, ctx) for name in names] == list(basis)


def test_basis_tree_rejects_unknown_symbol():
    ctx = AlgebraContext(2, 3)
    with pytest.raises(GradingError, match=r"^\[x1,x9\] is not a basis tree at step 3$"):
        basis_tree("[x1,x9]", ctx)


@pytest.mark.parametrize(
    "name",
    [
        "[x2,x1]",  # Lyndon word, but not in standard order
        "[x1,x9]",  # unknown symbol
        "[x1x2]",  # one unknown symbol, no comma
        "[x1, x2]",  # the basis word with a space
        "x1]",  # unbalanced
        "[[x1,x2],x1]",  # foliage x1 x2 x1 is not Lyndon
        "[x1,[x1,[x1,x2]]]",  # basis tree of degree 4, past the step
        "",
    ],
)
def test_basis_tree_refuses_names_that_are_not_basis_trees(name):
    ctx = AlgebraContext(2, 3)
    with pytest.raises(GradingError) as info:
        basis_tree(name, ctx)
    assert str(info.value) == f"{name} is not a basis tree at step 3"
    with pytest.raises(GradingError) as info:
        LieElement(ctx, {name: 1})
    assert str(info.value) == f"{name} is not a basis tree at step 3"


def test_bracket_antisymmetry_and_self_annihilation():
    rng = Random("algebra:antisym")
    ctx = AlgebraContext(2, 4)
    for _ in range(20):
        a, b = random_element(ctx, rng), random_element(ctx, rng)
        assert a.bracket(b) == -(b.bracket(a))
        assert a.bracket(a).is_zero


@pytest.mark.parametrize("letters,step", [(2, 6), (3, 4), (4, 3)])
def test_structure_constants_are_antisymmetric(letters, step):
    # each order of a pair is computed and cached on its own
    basis = hall_basis(AlgebraContext(letters, step))
    pairs = [(t1, t2) for t1 in basis for t2 in basis if tree_degree(t1) + tree_degree(t2) <= step]
    for t1, t2 in pairs:
        assert bracket_basis(t2, t1) == {t: -c for t, c in bracket_basis(t1, t2).items()}


def test_jacobi_identity():
    rng = Random("algebra:jacobi")
    for ctx in (AlgebraContext(2, 4), AlgebraContext(3, 3)):
        for _ in range(10):
            a, b, c = (random_element(ctx, rng) for _ in range(3))
            total = (
                a.bracket(b.bracket(c))
                + b.bracket(c.bracket(a))
                + c.bracket(a.bracket(b))
            )
            assert total.is_zero


def all_pairs_bracket(a, b, step: int) -> dict:
    """The bracket kernel without degree classes: every pair of terms, kept
    when its degrees sum to at most step."""
    out = {}
    for t1, c1 in a.items():
        for t2, c2 in b.items():
            if tree_degree(t1) + tree_degree(t2) <= step:
                for t, k in bracket_basis(t1, t2).items():
                    out[t] = out.get(t, 0) + c1 * c2 * k
    return {t: c for t, c in out.items() if c}


@pytest.mark.parametrize("letters,step", [(2, 5), (3, 4)])
def test_bracket_kernel_matches_all_pairs_reference(letters, step):
    rng = Random(f"algebra:kernel:{letters}:{step}")
    ctx = AlgebraContext(letters, step)
    x = ctx.generators()
    # pairs whose terms cancel: [s, s] = 0 and [s, -s/3] = 0
    s = x[0] + x[1] + x[0].bracket(x[1])
    cases = [(s, s), (x[0], s), (s, s * Fraction(-1, 3))]
    for _ in range(8):
        a, b = random_element(ctx, rng), random_element(ctx, rng)
        cases += [(a, b), (a, a + b), (a, a * Fraction(5, 7))]
    # int coefficients, one of them a stored 0
    ints = {t: k for k, t in enumerate(hall_basis(ctx), start=-3)}
    cases.append((LieElement._raw(ctx, ints), LieElement._raw(ctx, ints)))
    for a, b in cases:
        for cut in range(1, step + 1):
            got = bracket_coords(a.terms, b.terms, cut)
            assert got == all_pairs_bracket(a.terms, b.terms, cut)
            assert all(got.values())
            assert got == {t: -c for t, c in bracket_coords(b.terms, a.terms, cut).items()}


def test_bracket_grading():
    ctx = AlgebraContext(2, 5)
    x, y = ctx.generators()
    z = x.bracket(y)
    assert z.degrees() == (2,)
    assert x.bracket(z).degrees() == (3,)
    # degree > step truncates to zero
    deep = x
    for _ in range(5):
        deep = deep.bracket(y)
    assert deep.is_zero


def test_scalar_arithmetic():
    ctx = AlgebraContext(2, 3)
    x, y = ctx.generators()
    z = x * Fraction(3, 2) - y / 2
    assert z.terms == {0: Fraction(3, 2), 1: Fraction(-1, 2)}
    assert (z - z).is_zero
    assert (-z) + z == LieElement.zero(ctx)
    # coefficients are exact rationals; anything else is refused
    with pytest.raises(TypeError):
        LieElement(ctx, {0: 1j})
    with pytest.raises(TypeError):
        x * 1j


X = AlgebraContext(2, 2).generator(0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: LieElement(X.ctx, {0: 0.1}),
        lambda: X * 0.5,
        lambda: X / 0.5,
        lambda: NilpotentMatrix(((0, 0.1), (0, 0))),
        lambda: rational_power(exp(X), 0.5),
        lambda: nil_scale(nil_zero(2), 0.5),
        lambda: scale_set({nil_zero(2)}, 0.5),
    ],
    ids=[
        "LieElement",
        "mul",
        "div",
        "matrix",
        "rational_power",
        "nil_scale",
        "scale_set",
    ],
)
def test_floats_never_enter_exact_types(make):
    with pytest.raises(ValueError, match="float"):
        make()


def test_context_mismatch_rejected():
    a = AlgebraContext(2, 3).generator(0)
    b = AlgebraContext(2, 4).generator(0)
    with pytest.raises(ContextMismatchError):
        a + b


def test_context_validation():
    with pytest.raises(ValueError):
        AlgebraContext(0, 3)
    with pytest.raises(ValueError):
        AlgebraContext(2, 0)
    with pytest.raises(ValueError):
        AlgebraContext(2, 2, ("a",))


def test_eval_bracket_pattern_is_rightnormed():
    ctx = AlgebraContext(3, 4)
    g = ctx.generators()
    assert eval_bracket_pattern((1, 2), g) == g[0].bracket(g[1])
    assert eval_bracket_pattern((2, 1, 3), g) == g[1].bracket(g[0].bracket(g[2]))


def test_patterns_enumeration():
    assert list(patterns(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(list(patterns(3, 3))) == 27


def test_rightnormed_decomposition_roundtrip():
    rng = Random("algebra:rightnormed")
    cases = []
    for letters in (2, 3):
        for step in range(2, 6 - letters):
            ctx = AlgebraContext(letters, step)
            for degree in range(2, step + 1):
                cases.append((random_element(ctx, rng).degree_component(degree), degree))
    # every degree of the expansion defect multi_bch(gens) - sum(gens), the
    # residual the synthesis clears degree by degree
    for letters, step in ((3, 3), (2, 4), (3, 4)):
        gens = AlgebraContext(letters, step).generators()
        defect = multi_bch(gens)
        for g in gens:
            defect = defect - g
        cases += [(defect.degree_component(d), d) for d in range(2, step + 1)]
    for x, degree in cases:
        table = rightnormed_decomposition(x)
        back = LieElement.zero(x.ctx)
        for alpha, c in table.items():
            assert len(alpha) == degree
            back = back + eval_bracket_pattern(alpha, x.ctx.generators()) * c
        assert back == x


def test_rightnormed_decomposition_degree_restriction():
    ctx = AlgebraContext(2, 3)
    x, y = ctx.generators()
    mixed = x.bracket(y) + x.bracket(x.bracket(y))
    table = rightnormed_decomposition(mixed, degree=2)
    assert table == {(1, 2): Fraction(1)}
    with pytest.raises(GradingError):
        rightnormed_decomposition(mixed)


# x1 x0 has a non-Lyndon least word; x0 x1 alone leaves x1 x0 after its
# peel; a constant term is never Lie
@pytest.mark.parametrize("series", [{(1, 0): 1}, {(0, 1): 1}, {(): 1}])
def test_extract_lie_coords_refuses_a_non_lie_series(series):
    with pytest.raises(InternalInvariantError):
        extract_lie_coords(series)


def test_min_max_degree():
    ctx = AlgebraContext(2, 4)
    x, y = ctx.generators()
    z = x + x.bracket(y)
    assert z.min_degree() == 1
    assert LieElement.zero(ctx).min_degree() == 0
