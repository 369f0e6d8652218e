"""Group layer: exp/log coordinates, powers, commutators, word evaluation."""

from fractions import Fraction
from random import Random

import pytest

from nilbch import group
from nilbch.algebra import AlgebraContext, eval_bracket_pattern
from nilbch.errors import ContextMismatchError
from nilbch.matrices import (
    mat_exp,
    mat_log,
    matrix_group_ops,
    random_nilpotent,
    substitute,
)
from nilbch.words import evaluate_word as word_evaluate, parse

from test_algebra import random_element


def random_group_element(ctx, rng):
    return group.exp(random_element(ctx, rng))


def test_exp_log_inverse_bijection():
    rng = Random("group:explog")
    ctx = AlgebraContext(2, 4)
    for _ in range(10):
        x = random_element(ctx, rng)
        assert group.log(group.exp(x)) == x


def test_group_axioms():
    rng = Random("group:axioms")
    ctx = AlgebraContext(2, 4)
    e = group.identity(ctx)
    for _ in range(10):
        g, h, k = (random_group_element(ctx, rng) for _ in range(3))
        assert group.mul(group.mul(g, h), k) == group.mul(g, group.mul(h, k))
        assert group.mul(g, e) == g
        assert group.mul(e, g) == g
        assert group.mul(g, group.inverse(g)) == e


def test_rational_power_laws():
    rng = Random("group:power")
    ctx = AlgebraContext(2, 3)
    for _ in range(10):
        g = random_group_element(ctx, rng)
        assert group.rational_power(g, 2) == group.mul(g, g)
        assert group.rational_power(g, -1) == group.inverse(g)
        assert group.rational_power(g, 0) == group.identity(ctx)
        half = group.rational_power(g, Fraction(1, 2))
        assert group.mul(half, half) == g
        a = group.rational_power(g, Fraction(2, 3))
        assert group.rational_power(a, Fraction(3, 2)) == g


def test_commutator_matches_literal_chain():
    rng = Random("group:comm")
    ctx = AlgebraContext(2, 4)
    for _ in range(10):
        g, h = random_group_element(ctx, rng), random_group_element(ctx, rng)
        literal = group.mul(
            group.mul(g, h), group.mul(group.inverse(g), group.inverse(h))
        )
        assert group.commutator(g, h) == literal


def test_nested_commutator_shapes():
    rng = Random("group:nested")
    ctx = AlgebraContext(3, 4)
    g = [random_group_element(ctx, rng) for _ in range(3)]
    assert group.nested_commutator((2,), g) == g[1]
    assert group.nested_commutator((1, 2), g) == group.commutator(g[0], g[1])
    assert group.nested_commutator((1, 2, 3), g) == group.commutator(
        g[0], group.commutator(g[1], g[2])
    )


@pytest.mark.parametrize(
    "pattern, message",
    [
        ((), "pattern must be nonempty"),
        ((1, 0), "pattern index 0 out of range for 2 arguments"),
        ((3, 1), "pattern index 3 out of range for 2 arguments"),
    ],
)
def test_patterns_are_checked_before_any_fold(pattern, message):
    # eval_bracket_pattern and nested_commutator share one index check
    ctx = AlgebraContext(2, 3)
    gens = ctx.generators()
    with pytest.raises(ValueError, match=f"^{message}$"):
        eval_bracket_pattern(pattern, gens)
    with pytest.raises(ValueError, match=f"^{message}$"):
        group.nested_commutator(pattern, [group.exp(x) for x in gens])


def test_conjugate():
    rng = Random("group:conj")
    ctx = AlgebraContext(2, 4)
    g, h = random_group_element(ctx, rng), random_group_element(ctx, rng)
    assert group.conjugate(g, h) == group.mul(group.mul(g, h), group.inverse(g))


def test_context_mismatch():
    g = group.identity(AlgebraContext(2, 3))
    h = group.identity(AlgebraContext(2, 4))
    with pytest.raises(ContextMismatchError):
        group.mul(g, h)


def test_evaluate_word_matches_matrix_evaluation():
    # the same word evaluated symbolically then substituted must agree with
    # direct evaluation over unipotent matrices
    rng = Random("group:words")
    ctx = AlgebraContext(2, 3)
    env = {s: group.exp(g) for s, g in zip(ctx.symbols, ctx.generators())}
    ops = matrix_group_ops(4)
    for text in ("x1 x2", "c(x1, x2)^2 x1^-3", "(x1 x2^2)^2 c(x2, x1)"):
        word = parse(text)
        symbolic = group.evaluate_word(word, env, ctx)
        a, b = random_nilpotent(4, rng), random_nilpotent(4, rng)
        direct = word_evaluate(
            word, {"x1": mat_exp(a), "x2": mat_exp(b)}, ops
        )
        assert substitute(symbolic.log, [a, b]) == mat_log(direct)


def test_group_element_repr_mentions_log():
    ctx = AlgebraContext(2, 2)
    g = group.exp(ctx.generator(0))
    assert "x1" in repr(g)
