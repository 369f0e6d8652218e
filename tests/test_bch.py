"""Composition logs: classical coefficients, matrix oracle, algebraic laws."""

import importlib
from fractions import Fraction
from functools import reduce
from random import Random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from nilbch import algebra, identities
from nilbch.algebra import (
    AlgebraContext,
    LieElement,
    eval_bracket_pattern,
    hall_basis,
    tree_degree,
)
from nilbch.bch import (
    _bch_series,
    bch,
    bch_tail_table,
    conjugation_log,
    multi_bch,
)
from nilbch.errors import ContextMismatchError, GradingError
from nilbch.matrices import mat_exp, mat_log, mat_mul, random_nilpotent, substitute
from nilbch.verify import run_suite

from test_algebra import random_element


def test_step_two_classical():
    ctx = AlgebraContext(2, 2)
    x, y = ctx.generators()
    assert bch(x, y) == x + y + x.bracket(y) / 2


def test_step_three_classical():
    ctx = AlgebraContext(2, 3)
    x, y = ctx.generators()
    z = bch(x, y)
    expected = (
        x
        + y
        + x.bracket(y) / 2
        + x.bracket(x.bracket(y)) / 12
        + y.bracket(y.bracket(x)) / 12
    )
    assert z == expected


def test_matrix_oracle():
    rng = Random("bch:oracle")
    for step in (2, 3, 4):
        ctx = AlgebraContext(2, step)
        z = bch(ctx.generator(0), ctx.generator(1))
        d = step + 1
        for _ in range(10):
            a, b = random_nilpotent(d, rng), random_nilpotent(d, rng)
            assert substitute(z, [a, b]) == mat_log(mat_mul(mat_exp(a), mat_exp(b)))


def test_associativity():
    rng = Random("bch:assoc")
    ctx = AlgebraContext(2, 4)
    for _ in range(10):
        a, b, c = (random_element(ctx, rng) for _ in range(3))
        assert bch(bch(a, b), c) == bch(a, bch(b, c))


def test_identity_and_inverse():
    rng = Random("bch:inverse")
    ctx = AlgebraContext(3, 3)
    zero = LieElement.zero(ctx)
    for _ in range(10):
        a = random_element(ctx, rng)
        assert bch(a, zero) == a
        assert bch(zero, a) == a
        assert bch(a, -a).is_zero


def test_multi_bch_folds_left():
    rng = Random("bch:multi")
    ctx = AlgebraContext(3, 3)
    a, b, c = (random_element(ctx, rng) for _ in range(3))
    assert multi_bch([a]) == a
    assert multi_bch([a, b]) == bch(a, b)
    assert multi_bch([a, b, c]) == bch(bch(a, b), c)


def test_conjugation_log_matches_composition():
    rng = Random("bch:conj")
    ctx = AlgebraContext(2, 4)
    for _ in range(10):
        a, b = random_element(ctx, rng), random_element(ctx, rng)
        assert conjugation_log(a, b) == bch(bch(a, b), -a)


def test_tail_table_two_letter_example():
    table = bch_tail_table(AlgebraContext(2, 2))
    assert table == {(1, 2): Fraction(-1, 2)}


def test_tail_table_step_three_values():
    table = bch_tail_table(AlgebraContext(2, 3))
    assert table == {
        (1, 2): Fraction(-1, 2),
        (1, 1, 2): Fraction(-1, 12),
        (2, 1, 2): Fraction(1, 12),
    }
    assert list(table) == [(1, 2), (1, 1, 2), (2, 1, 2)]


def test_tail_table_requires_two_generators():
    with pytest.raises(GradingError):
        bch_tail_table(AlgebraContext(3, 2))


def test_tail_table_reconstructs_sum():
    # x + y == bch(x, y) + sum of table entries, through step 5
    for step in range(2, 6):
        ctx = AlgebraContext(2, step)
        x, y = ctx.generators()
        total = bch(x, y)
        for alpha, c in bch_tail_table(ctx).items():
            total = total + eval_bracket_pattern(alpha, (x, y)) * c
        assert total == x + y


def test_bch_bilinear_degree_one():
    ctx = AlgebraContext(2, 4)
    x, y = ctx.generators()
    z = bch(x, y)
    assert z.degree_component(1) == x + y


# the table route against the series route it is compiled from; a failing
# example is reported as drawn, not shrunk, so a wrong law fails in seconds
_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# large, mostly coprime denominators, such as 1/7 and 1/720: the scales bch
# clears them with grow with every letter a pattern names
_WIDE_RATIONALS = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000))


@st.composite
def _element(draw, ctx, coefficients):
    """A degree-1 part, on which the top-degree brackets of the law depend
    alone, plus up to three terms of higher degree; any part may be zero."""
    higher = [t for t in hall_basis(ctx) if tree_degree(t) > 1]
    terms = {i: draw(coefficients) for i in range(ctx.num_generators)}
    if higher:
        for t in draw(st.lists(st.sampled_from(higher), max_size=3)):
            terms[t] = draw(coefficients)
    return LieElement(ctx, terms)


# four generators at steps 4 and 5, where the synthesis composes
@pytest.mark.parametrize(
    "letters,step", [(n, s) for n in (1, 2, 3) for s in range(1, 7)] + [(4, 4), (4, 5)]
)
@_SETTINGS
@given(data=st.data())
def test_table_route_matches_series_route(letters, step, data):
    ctx = AlgebraContext(letters, step)
    x, y = data.draw(_element(ctx, _RATIONALS)), data.draw(_element(ctx, _RATIONALS))
    assert bch(x, y) == _bch_series(x, y)


@pytest.mark.parametrize("letters,step", [(1, 3), (2, 3), (2, 4), (2, 6), (3, 4)])
@_SETTINGS
@given(data=st.data())
def test_table_route_matches_series_route_on_wide_denominators(letters, step, data):
    ctx = AlgebraContext(letters, step)
    x, y = data.draw(_element(ctx, _WIDE_RATIONALS)), data.draw(_element(ctx, _WIDE_RATIONALS))
    assert bch(x, y) == _bch_series(x, y)


@pytest.mark.parametrize("letters,step", [(2, 4), (3, 3)])
def test_rational_composition_has_nonzero_fraction_coefficients(letters, step):
    ctx = AlgebraContext(letters, step)
    rng = Random("bch:types")
    # int coefficients in, as an element built without the constructor has
    ints = LieElement._raw(ctx, {i: i + 1 for i in range(letters)})
    for _ in range(5):
        x, y = random_element(ctx, rng), random_element(ctx, rng)
        for z in (bch(x, y), bch(x, -x), bch(x, ints), bch(ints, ints), bch(x, y - x)):
            assert all(type(c) is Fraction and c for c in z.terms.values())


@pytest.mark.parametrize("letters,step", [(2, 6), (3, 4)])
def test_table_route_on_generators_times_t(letters, step):
    # the generator block of the power-word synthesis at a few powers t
    ctx = AlgebraContext(letters, step)
    for t in (1, step, -720, Fraction(7, 3)):
        gens = [g * t for g in ctx.generators()]
        assert multi_bch(gens) == reduce(_bch_series, gens)


@pytest.mark.parametrize("letters,step", [(2, 4), (2, 6), (3, 3)])
@_SETTINGS
@given(data=st.data())
def test_associativity_on_generated_elements(letters, step, data):
    ctx = AlgebraContext(letters, step)
    a, b, c = (data.draw(_element(ctx, _RATIONALS)) for _ in range(3))
    assert bch(bch(a, b), c) == bch(a, bch(b, c))


def test_zero_operands_and_context_mismatch():
    ctx = AlgebraContext(2, 4)
    zero = LieElement.zero(ctx)
    x = random_element(ctx, Random("bch:zero"))
    for law in (bch, _bch_series):
        assert law(zero, zero).is_zero
        assert law(x, zero) == x
        assert law(zero, x) == x
        for other in (LieElement.zero(AlgebraContext(2, 3)), AlgebraContext(3, 4).generator(0)):
            with pytest.raises(ContextMismatchError):
                law(x, other)
            with pytest.raises(ContextMismatchError):
                law(other, zero)


@pytest.mark.parametrize("wrong", ["flip", "rescale"])
def test_verify_suite_catches_a_wrong_law_table(monkeypatch, wrong):
    """A flipped coefficient, and the table of the associative but wrong law
    x*y = bch(2x, 2y)/2 (degree j scaled by 2**(j-1)), which only the series
    oracle inside the associativity check can tell from the true law."""
    step = 3
    bch_module = importlib.import_module("nilbch.bch")
    den, entries = bch_module._law_table(step)
    table = list(entries)
    if wrong == "flip":
        t, i, num = table[-1]
        table[-1] = (t, i, -num)
    else:
        table = [(t, i, num * 2 ** (tree_degree(t) - 1)) for t, i, num in table]
    true_table = bch_module._law_table
    wrong_table = (den, tuple(table))
    monkeypatch.setattr(
        bch_module, "_law_table", lambda s: wrong_table if s == step else true_table(s)
    )

    # identities caches results computed with bch: none computed with the true
    # law may serve the suite, and none computed with the wrong one may leak
    def clear_identities():
        identities._ladder.cache_clear()
        identities.sum_word.cache_clear()

    clear_identities()
    try:
        if wrong == "rescale":
            a, b, c = (random_element(AlgebraContext(2, step), Random(f"bch:wrong:{i}")) for i in range(3))
            assert bch(bch(a, b), c) == bch(a, bch(b, c))
        report = run_suite(step, 5, 0)
        assert not report["all_pass"]
        assoc = next(check for check in report["checks"] if check["name"] == "bch-associativity")
        assert not assoc["pass"]
    finally:
        clear_identities()


def _sparse_element(ctx, rng):
    """Every generator with a small rational coefficient, plus up to three
    terms of higher degree."""
    higher = [t for t in hall_basis(ctx) if tree_degree(t) > 1]
    terms = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for i in range(ctx.num_generators)}
    for t in rng.sample(higher, min(3, len(higher))):
        terms[t] = rng.randint(-3, 3)
    return LieElement(ctx, terms)


# three generators stop at step 6: one series-route composition there takes
# about 0.5 s, at step 7 about 4 s and at step 8 about 40 s
@pytest.mark.parametrize(
    "letters,step", [(n, s) for n in (1, 2) for s in range(1, 9)] + [(3, s) for s in range(1, 7)]
)
def test_bch_never_reaches_the_right_normed_solver(monkeypatch, letters, step):
    """The law table is read in the Lyndon basis: with the right-normed
    solver gone, a table built afresh still gives the series route's law."""
    bch_module = importlib.import_module("nilbch.bch")

    def no_solver(*args):
        raise AssertionError("bch reached the right-normed solver")

    monkeypatch.setattr(algebra, "_rightnormed_solver", no_solver)
    bch_module._law_table.cache_clear()
    try:
        ctx = AlgebraContext(letters, step)
        rng = Random(f"bch:no-solver:{letters}:{step}")
        for _ in range(3):
            x, y = _sparse_element(ctx, rng), _sparse_element(ctx, rng)
            assert bch(x, y) == _bch_series(x, y)
    finally:
        bch_module._law_table.cache_clear()
