"""Expansion tables, product-log clearing, word synthesis, extraction."""

from fractions import Fraction
from random import Random

import pytest

from nilbch import group
from nilbch.algebra import AlgebraContext, LieElement, eval_bracket_pattern, patterns
from nilbch.bch import bch, multi_bch
from nilbch.errors import DivisibilityError, GradingError
from nilbch.identities import (
    EXACT,
    commutator_log_tail,
    containment_certificate,
    extract_bracket,
    iterated_expansion,
    log_product_decomposition,
    power_word_synthesis,
    sum_word,
    synthesis_divisors,
    vandermonde_recipe,
    verify_synthesis,
)
from nilbch.linalg import mat_vec
from nilbch.words import serialize, word_length

from test_algebra import random_element

F = Fraction


# ---------------------------------------------------------------------------
# expansion tables

def test_iterated_expansion_single_factor_empty():
    tables = iterated_expansion(1, AlgebraContext(2, 4))
    assert set(tables) == {2, 3, 4}
    assert all(t == {} for t in tables.values())


def test_iterated_expansion_two_letter_example():
    tables = iterated_expansion(2, AlgebraContext(2, 2))
    assert tables == {2: {(1, 2): F(1, 2)}}


def test_iterated_expansion_prefix_of_wider_context():
    wide = AlgebraContext(3, 2)
    tables = iterated_expansion(2, wide)
    assert tables[2] == {(1, 2): F(1, 2)}


def test_iterated_expansion_roundtrip_three_letters():
    for letters, step in ((3, 3), (2, 4), (3, 4)):
        ctx = AlgebraContext(letters, step)
        gens = ctx.generators()
        total = LieElement.zero(ctx)
        for g in gens:
            total = total + g
        for table in iterated_expansion(letters, ctx).values():
            for alpha, c in table.items():
                total = total + eval_bracket_pattern(alpha, gens) * c
        assert total == multi_bch(gens)


def test_iterated_expansion_validates_factor_count():
    with pytest.raises(GradingError):
        iterated_expansion(3, AlgebraContext(2, 3))


def test_commutator_log_tail_leading_term_checked():
    ctx = AlgebraContext(2, 3)
    tables = commutator_log_tail((1, 2), ctx)
    assert tables == {3: {(1, 1, 2): F(1, 2), (2, 1, 2): F(1, 2)}}


def test_commutator_log_tail_support_above_arity():
    ctx = AlgebraContext(3, 4)
    for pattern in ((1, 2), (2, 1, 3), (1, 2, 3)):
        tables = commutator_log_tail(pattern, ctx)
        assert all(d > len(pattern) for d in tables)


def test_commutator_log_tail_at_full_arity_is_empty():
    assert commutator_log_tail((1, 2, 2), AlgebraContext(2, 3)) == {}


# ---------------------------------------------------------------------------
# product-log decomposition

def test_decomposition_level_one_is_pure_tail():
    ctx = AlgebraContext(2, 2)
    dec = log_product_decomposition(1, 2, ctx)
    assert dec.beta == ()
    assert dec.correction_words == ()
    x, y = ctx.generators()
    assert dec.tail == (x + y) - multi_bch((x, y))


def test_decomposition_two_letter_step_two_example():
    ctx = AlgebraContext(2, 2)
    dec = log_product_decomposition(2, 2, ctx)
    assert dec.beta == (F(1, 2),)
    assert [serialize(w) for w in dec.correction_words] == ["c(x1, x2)^-1"]
    assert dec.tail.is_zero


def test_decomposition_full_level_tail_vanishes():
    for letters, step in ((2, 3), (3, 2), (3, 3)):
        ctx = AlgebraContext(letters, step)
        dec = log_product_decomposition(step, letters, ctx)
        assert dec.tail.is_zero


def test_decomposition_identity_holds():
    # sum of logs == product log + sum beta_i * log(word_i) + tail
    for letters, step, level in ((2, 3, 2), (2, 4, 3), (3, 3, 2)):
        ctx = AlgebraContext(letters, step)
        gens = ctx.generators()
        env = {s: group.exp(g) for s, g in zip(ctx.symbols, gens)}
        dec = log_product_decomposition(level, letters, ctx)
        total = multi_bch(gens)
        for beta, w in zip(dec.beta, dec.correction_words):
            if w.factors:
                total = total + group.evaluate_word(w, env, ctx).log * beta
        total = total + dec.tail
        expected = LieElement.zero(ctx)
        for g in gens:
            expected = expected + g
        assert total == expected
        if not dec.tail.is_zero:
            assert dec.tail.min_degree() > level


# ---------------------------------------------------------------------------
# power word synthesis

def test_divisor_ladder_two_letters():
    assert synthesis_divisors(2, 1) == (1,)
    assert synthesis_divisors(2, 2) == (1, 2)
    assert synthesis_divisors(2, 3) == (1, 2, 12)
    assert synthesis_divisors(2, 4) == (1, 2, 12, 24)


# the ladders of the symbolic Q[T] synthesis, recorded before it was replaced
# by runs at T = 1..step: (generators, step) -> c_1..c_step
PINNED_LADDERS = {
    **{(g, s): (1, 2, 12, 24, 720)[:s] for g in (2, 3) for s in range(1, 6)},
    **{(1, s): (1,) * s for s in range(1, 6)},
    (2, 6): (1, 2, 12, 24, 720, 1440),
    **{(4, s): (1, 2, 12, 24)[:s] for s in range(1, 5)},
}


def test_divisor_ladders_match_the_pinned_ones():
    got = {key: synthesis_divisors(*key) for key in PINNED_LADDERS}
    assert got == PINNED_LADDERS


def test_divisor_ladder_is_nested():
    for letters in (2, 3):
        ladder = synthesis_divisors(letters, 4)
        for a, b in zip(ladder, ladder[1:]):
            assert b % a == 0


def test_synthesis_level_one_is_plain_powers():
    res = power_word_synthesis(2, 2, 1, 2, symbols=("a", "b"))
    assert serialize(res.word) == "a^2 b^2"
    cert = res.certificate
    assert cert.min_residual_degree == 2
    assert verify_synthesis(res)


def test_synthesis_step_two_example():
    res = power_word_synthesis(2, 2, 2, 2, symbols=("a", "b"))
    assert serialize(res.word) == "a^2 b^2 c(b, a)^2"
    assert res.certificate.min_residual_degree == EXACT
    assert verify_synthesis(res)


def test_synthesis_rejects_bad_power():
    # the error cites the first violated rung of the ladder
    with pytest.raises(DivisibilityError) as err:
        power_word_synthesis(5, 2, 3, 3)
    assert (err.value.required, err.value.got, err.value.degree) == (2, 5, 2)
    assert "divisib" in str(err.value)
    with pytest.raises(DivisibilityError) as err:
        power_word_synthesis(2, 2, 3, 3)
    assert (err.value.required, err.value.got, err.value.degree) == (12, 2, 3)


def test_synthesis_full_grid_certificates():
    for step in range(1, 5):
        ladder = synthesis_divisors(2, step)
        T = ladder[-1]
        for level in range(1, step + 1):
            res = power_word_synthesis(T, 2, level, step)
            assert res.divisors == ladder
            assert verify_synthesis(res)
            cert = res.certificate
            if level == step:
                assert cert.min_residual_degree == EXACT
                assert cert.residual.is_zero
            else:
                assert cert.min_residual_degree == EXACT or (
                    cert.min_residual_degree > level
                )


def test_synthesis_degenerate_inputs():
    res = power_word_synthesis(0, 2, 2, 2)
    assert res.word.factors == ()
    assert res.certificate.target.is_zero
    assert res.certificate.min_residual_degree == EXACT
    one_letter = power_word_synthesis(7, 1, 3, 3)
    assert serialize(one_letter.word) == "x1^7"
    assert one_letter.certificate.min_residual_degree == EXACT


def test_synthesis_negative_power():
    res = power_word_synthesis(-2, 2, 2, 2)
    assert verify_synthesis(res)
    assert res.certificate.min_residual_degree == EXACT


# ---------------------------------------------------------------------------
# sum words

def test_sum_word_step_one():
    sw = sum_word(1)
    assert (sw.m, serialize(sw.word), sw.length) == (1, "a b", 2)


def test_sum_word_step_two_frozen():
    sw = sum_word(2)
    assert sw.m == 2
    assert serialize(sw.word) == "a^2 b^2 c(b, a)^2"
    assert sw.length == 12
    assert word_length(sw.word) == 12


def test_sum_word_step_three():
    sw = sum_word(3)
    assert sw.m == 12
    assert sw.length == 9672
    assert sw.synthesis.certificate.min_residual_degree == EXACT
    assert verify_synthesis(sw.synthesis)


def test_sum_word_symbolic_identity():
    for step in (1, 2, 3):
        sw = sum_word(step)
        ctx = AlgebraContext(2, step, ("a", "b"))
        a, b = ctx.generators()
        env = {"a": group.exp(a), "b": group.exp(b)}
        evaluated = group.evaluate_word(sw.word, env, ctx)
        assert evaluated.log == (a + b) * sw.m


# ---------------------------------------------------------------------------
# Vandermonde extraction

def test_vandermonde_recipe_smallest():
    r = vandermonde_recipe(2)
    assert r.sample_points == (1,)
    assert r.inverse_matrix == ((F(1),),)


def test_vandermonde_recipe_three():
    r = vandermonde_recipe(3)
    assert r.sample_points == (1, 2)
    assert r.inverse_matrix == ((F(2), F(-1, 2)), (F(-1), F(1, 2)))


def test_vandermonde_inverse_property():
    for n in range(2, 7):
        r = vandermonde_recipe(n)
        rows = [
            [F(s) ** j for j in range(1, n)] for s in r.sample_points
        ]
        product = [
            mat_vec(r.inverse_matrix, [rows[i][j] for i in range(n - 1)])
            for j in range(n - 1)
        ]
        for j in range(n - 1):
            for i in range(n - 1):
                assert product[j][i] == (1 if i == j else 0)


def test_vandermonde_recipe_validation():
    with pytest.raises(ValueError):
        vandermonde_recipe(1)
    with pytest.raises(ValueError):
        vandermonde_recipe(3, 0)


def test_extract_bracket_matches_bracket():
    rng = Random("identities:extract")
    for step in (2, 3, 4):
        ctx = AlgebraContext(2, step)
        for _ in range(10):
            x, y = random_element(ctx, rng), random_element(ctx, rng)
            got = extract_bracket(group.exp(x), group.exp(y))
            assert got == x.bracket(y)


def test_extract_bracket_with_multiplier_recipe():
    rng = Random("identities:extract-m")
    ctx = AlgebraContext(2, 3)
    recipe = vandermonde_recipe(3, m=6)
    for _ in range(5):
        x, y = random_element(ctx, rng), random_element(ctx, rng)
        got = extract_bracket(group.exp(x), group.exp(y), recipe)
        assert got == x.bracket(y)


def three_call_conjugates(a, b, recipe):
    """a^s b^m a^-s at each sample point s of the recipe, by two products and
    an inverse: the literal oracle for the conjugation series."""
    bm = group.rational_power(b, recipe.m)
    out = []
    for s in recipe.sample_points:
        a_s = group.rational_power(a, s)
        out.append(group.mul(group.mul(a_s, bm), group.inverse(a_s)))
    return out


@pytest.mark.parametrize("step", [2, 3, 4, 5, 6])
def test_extract_bracket_samples_match_the_three_call_route(step):
    rng = Random(f"identities:extract-samples:{step}")
    ctx = AlgebraContext(2, step)
    recipe = vandermonde_recipe(step, m=2)
    for _ in range(3):
        a, b = group.exp(random_element(ctx, rng)), group.exp(random_element(ctx, rng))
        bm = group.rational_power(b, recipe.m)
        want = three_call_conjugates(a, b, recipe)
        got = [group.conjugate(group.rational_power(a, s), bm) for s in recipe.sample_points]
        assert got == want
        u1 = LieElement.zero(ctx)
        for w, y in zip(recipe.inverse_matrix[0], want):
            u1 = u1 + (y.log - bm.log) * w
        assert extract_bracket(a, b, recipe) == u1 * F(1, recipe.m)


def test_extract_bracket_validation():
    ctx = AlgebraContext(2, 3)
    a = group.exp(ctx.generator(0))
    with pytest.raises(ValueError):
        extract_bracket(a, a, vandermonde_recipe(4))  # recipe step mismatch
    tiny = AlgebraContext(2, 1)
    e = group.exp(tiny.generator(0))
    with pytest.raises(GradingError):
        extract_bracket(e, e)


# ---------------------------------------------------------------------------
# containment certificates

def test_certificate_trivial_above_step():
    cert = containment_certificate(2, AlgebraContext(2, 2))
    assert cert.rationals == ()
    assert cert.exponents == ()
    assert cert.m == 1
    assert cert.k == 0


def test_certificate_first_level_heisenberg():
    cert = containment_certificate(1, AlgebraContext(2, 2))
    assert cert.j == 1
    assert cert.rationals == (F(1), F(-1))
    assert cert.exponents == (3, 1)
    assert cert.m == 1
    assert cert.k == 1


def test_certificate_algebraic_witness():
    # the (1, -1) x (3, 1) certificate encodes [a,b] = log(a b a^-1) - log(b)
    rng = Random("identities:cert")
    ctx = AlgebraContext(2, 2)
    for _ in range(10):
        x, y = random_element(ctx, rng), random_element(ctx, rng)
        conj = bch(bch(x, y), -x)
        assert x.bracket(y) == conj - y


def test_certificate_structure_is_scalable():
    # every certificate row pairs a rational with a positive group power
    cert = containment_certificate(1, AlgebraContext(2, 3))
    assert len(cert.rationals) == len(cert.exponents)
    assert all(k >= 1 for k in cert.exponents)
    assert all(q != 0 for q in cert.rationals)
    assert cert.m >= 1
