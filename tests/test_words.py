"""Word grammar: parsing, canonical form, length, evaluation."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nilbch.errors import UnboundSymbolError, WordSyntaxError
from nilbch.matrices import matrix_group_ops, random_unipotent
from nilbch.words import (
    CommutatorFactor,
    FormalWord,
    GroupFactor,
    SymbolFactor,
    evaluate_word,
    make_word,
    parse,
    random_word,
    serialize,
    symbols_of,
    word_length,
)


def test_parse_simple_word():
    w = parse("a b")
    assert w == FormalWord((SymbolFactor("a"), SymbolFactor("b")))


def test_parse_exponents_and_commutators():
    w = parse("a^2 b^2 c(b, a)^2")
    assert serialize(w) == "a^2 b^2 c(b, a)^2"
    last = w.factors[-1]
    assert isinstance(last, CommutatorFactor)
    assert last.exponent == 2
    assert serialize(last.left) == "b"


def test_parse_nested_commutator():
    w = parse("c(a, c(b, a^-1))")
    assert serialize(w) == "c(a, c(b, a^-1))"


def test_c_space_paren_is_symbol_times_group():
    # "c (" is the symbol c followed by a subword, not a commutator
    w = parse("c (a b)")
    assert serialize(w) == "c (a b)"
    assert symbols_of(w) == {"c", "a", "b"}


def test_canonical_merge_of_adjacent_factors():
    assert serialize(parse("a a")) == "a^2"
    assert serialize(parse("a^2 a^-2 b")) == "b"
    assert serialize(parse("a b b^-1 a")) == "a^2"


def test_serialize_parse_idempotent():
    for text in ("a", "a^-3 (a b)^2", "c(a, b) c(a, b)", "(a^2)^3"):
        once = serialize(parse(text))
        assert serialize(parse(once)) == once


def test_parse_errors_carry_positions():
    with pytest.raises(WordSyntaxError) as err:
        parse("a $ b")
    assert err.value.position == 2
    with pytest.raises(WordSyntaxError) as err:
        parse("a^")
    assert err.value.position == 2
    with pytest.raises(WordSyntaxError) as err:
        parse("c(a,)")
    assert err.value.position == 4
    with pytest.raises(WordSyntaxError) as err:
        parse("(a b")
    assert err.value.position == 4
    with pytest.raises(WordSyntaxError):
        parse("")
    with pytest.raises(WordSyntaxError):
        parse("a ) b")


def test_exponent_zero_not_expressible():
    with pytest.raises(WordSyntaxError):
        parse("a^0")


def test_word_length_expansion():
    assert word_length(parse("a b")) == 2
    assert word_length(parse("a^2 b^2 c(b, a)^2")) == 12
    assert word_length(parse("c(a, c(b, a))")) == 10
    assert word_length(parse("(a b)^-3")) == 6


def test_make_word_cascading_cancellation():
    factors = (
        SymbolFactor("a", 1),
        SymbolFactor("b", 2),
        SymbolFactor("b", -2),
        SymbolFactor("a", 3),
    )
    assert serialize(make_word(factors)) == "a^4"


def test_evaluate_word_on_matrices():
    rng = Random("words:eval")
    ops = matrix_group_ops(3)
    for _ in range(5):
        a, b = random_unipotent(3, rng), random_unipotent(3, rng)
        env = {"a": a, "b": b}
        lhs = evaluate_word(parse("c(a, b)"), env, ops)
        rhs = evaluate_word(parse("a b a^-1 b^-1"), env, ops)
        assert lhs == rhs
        assert evaluate_word(parse("(a b)^2"), env, ops) == evaluate_word(
            parse("a b a b"), env, ops
        )


def test_evaluate_unbound_symbol():
    ops = matrix_group_ops(2)
    with pytest.raises(UnboundSymbolError):
        evaluate_word(parse("a z"), {"a": random_unipotent(2, Random(0))}, ops)


def test_random_word_roundtrip_small():
    rng = Random("words:roundtrip")
    for _ in range(100):
        w = random_word(rng, ("a", "b", "x1"))
        assert parse(serialize(w)) == w


# exponent zero is not expressible, and parsing yields canonical words only
_EXPONENTS = st.integers(-4, 4).filter(bool)
# "c" next to "(" opens a commutator only when nothing separates them
_SYMBOLS = st.sampled_from(("a", "b", "c", "x1", "c_2"))


def _canonical(factors):
    return st.lists(factors, min_size=1, max_size=4).map(make_word).filter(len)


_WORDS = st.recursive(
    _canonical(st.builds(SymbolFactor, _SYMBOLS, _EXPONENTS)),
    lambda words: _canonical(
        st.one_of(
            st.builds(SymbolFactor, _SYMBOLS, _EXPONENTS),
            st.builds(GroupFactor, words, _EXPONENTS),
            st.builds(CommutatorFactor, words, words, _EXPONENTS),
        )
    ),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_WORDS)
def test_parse_serialize_round_trip_on_generated_words(w):
    assert parse(serialize(w)) == w
