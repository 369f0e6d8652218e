"""Word grammar: parsing, canonical form, length, evaluation."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nilbch import group
from nilbch.algebra import AlgebraContext
from nilbch.errors import UnboundSymbolError, WordSyntaxError
from nilbch.identities import sum_word
from nilbch.matrices import (
    UnipotentMatrix,
    mat_exp,
    mat_identity,
    mat_inverse,
    mat_log,
    mat_mul,
    matrix_group_ops,
    nil_add,
    nil_scale,
    random_nilpotent,
    random_unipotent,
)
from nilbch.words import (
    CommutatorFactor,
    FormalWord,
    GroupFactor,
    GroupOps,
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


U, V = FormalWord((SymbolFactor("u"),)), FormalWord((SymbolFactor("v"),))


@pytest.mark.parametrize(
    "factors, merged",
    [
        ((SymbolFactor("a"), SymbolFactor("a", 2)), (SymbolFactor("a", 3),)),
        ((GroupFactor(U, -1), GroupFactor(U, 3)), (GroupFactor(U, 2),)),
        ((CommutatorFactor(U, V), CommutatorFactor(U, V)), (CommutatorFactor(U, V, 2),)),
        ((CommutatorFactor(U, V), CommutatorFactor(U, V, -1)), ()),
        (
            (SymbolFactor("u"), CommutatorFactor(U, V), CommutatorFactor(U, V, -1), SymbolFactor("u")),
            (SymbolFactor("u", 2),),
        ),
        ((CommutatorFactor(U, V), CommutatorFactor(V, U)), None),
        ((SymbolFactor("u"), GroupFactor(U)), None),
        ((GroupFactor(U), CommutatorFactor(U, U)), None),
    ],
)
def test_make_word_merges_only_equal_atoms(factors, merged):
    # an atom is a factor's type and its fields but the exponent; None marks
    # factors that stay apart
    assert make_word(factors).factors == (factors if merged is None else merged)


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


def object_ops(d):
    """UT(d, Q) on matrix objects, the oracle for the triangle realization:
    mat_mul and mat_inverse, a power by literal repeated products and the
    literal commutator chain g h g' h'."""

    def power(g, k):
        base = g if k > 0 else mat_inverse(g)
        out = mat_identity(d)
        for _ in range(abs(k)):
            out = mat_mul(out, base)
        return out

    def commutator(g, h):
        return mat_mul(mat_mul(g, h), mat_mul(mat_inverse(g), mat_inverse(h)))

    def enter(g):
        # the dimension and type check matrix_group_ops makes on entry
        mat_mul(mat_identity(d), g)
        return g

    return GroupOps(mat_identity(d), mat_mul, power, commutator, enter, lambda g: g)


def _evaluate(word: FormalWord, env: dict, ops: GroupOps):
    out = None  # the identity, left out of the first product
    for f in word.factors:
        if isinstance(f, SymbolFactor):
            if f.name not in env:
                raise UnboundSymbolError(f.name)
            base = env[f.name]
        elif isinstance(f, GroupFactor):
            base = _evaluate(f.inner, env, ops)
        else:
            base = ops.commutator(_evaluate(f.left, env, ops), _evaluate(f.right, env, ops))
        g = ops._power(base, f.exponent)
        out = g if out is None else ops.mul(out, g)
    return ops.identity if out is None else out


def recursive_evaluate(word, env, ops):
    """The oracle for the compiled route: a walk of the word tree that
    evaluates every factor where it stands, powers included."""
    if ops.enter is None:
        return _evaluate(word, env, ops)
    env = {name: ops.enter(g) for name, g in env.items()}
    return ops.leave(_evaluate(word, env, ops))


def test_sum_words_match_the_recursion():
    rng = Random("words:recursion:sum")
    for step in range(1, 6):
        word, ops = sum_word(step).word, matrix_group_ops(step + 1)
        for _ in range(2):
            env = {"a": random_unipotent(step + 1, rng), "b": random_unipotent(step + 1, rng)}
            assert evaluate_word(word, env, ops) == recursive_evaluate(word, env, ops)


def test_deep_random_words_match_the_recursion():
    # over two symbols at depth 3 a subword often recurs, and so is shared
    rng = Random("words:recursion:random")
    words = [random_word(rng, ("a", "b"), depth=3) for _ in range(50)]
    for d in range(2, 7):
        ops = matrix_group_ops(d)
        for word in words:
            for env in (
                {s: random_unipotent(d, rng) for s in ("a", "b")},
                {s: mat_exp(random_nilpotent(d, rng)) for s in ("a", "b")},
            ):
                assert evaluate_word(word, env, ops) == recursive_evaluate(word, env, ops)
    assert evaluate_word(FormalWord(), env, ops) == recursive_evaluate(FormalWord(), env, ops)


@pytest.mark.parametrize("step", [3, 4, 5])
def test_group_elements_match_the_recursion(step):
    rng = Random(f"words:recursion:group:{step}")
    ctx = AlgebraContext(2, step)
    ops = group.group_ops(ctx)
    env = {"a": group.exp(ctx.generator(0)), "b": group.exp(ctx.generator(1))}
    for word in [sum_word(step).word] + [random_word(rng, ("a", "b")) for _ in range(3)]:
        assert evaluate_word(word, env, ops) == recursive_evaluate(word, env, ops)
    assert evaluate_word(FormalWord(), env, ops) == recursive_evaluate(FormalWord(), env, ops)


def _counted(ops, counts):
    def count(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    for name in ("mul", "_power", "commutator"):
        setattr(ops, name, count(name, getattr(ops, name)))
    return ops


@pytest.mark.parametrize(
    "step, compiled, recursive",
    [
        (3, (5, 4, 4), (15, 4, 5)),
        (4, (8, 7, 7), (36, 7, 14)),
        (5, (14, 13, 16), (90, 13, 38)),
    ],
)
def test_sum_word_operation_counts(step, compiled, recursive):
    # (power, mul, commutator) calls: each distinct commutator and power once,
    # no power at exponent 1, where the recursion repeats both
    rng = Random("words:counts")
    env = {"a": random_unipotent(step + 1, rng), "b": random_unipotent(step + 1, rng)}
    word = sum_word(step).word
    for evaluate, want in ((evaluate_word, compiled), (recursive_evaluate, recursive)):
        counts = dict.fromkeys(("_power", "mul", "commutator"), 0)
        evaluate(word, env, _counted(matrix_group_ops(step + 1), counts))
        assert tuple(counts.values()) == want


def test_an_evaluated_word_is_still_its_text():
    # the compiled program is kept on the word but is not one of its fields
    ops = matrix_group_ops(3)
    env = {"a": random_unipotent(3, Random(1)), "b": random_unipotent(3, Random(2))}
    for text in ("a^2 c(a, b) (a b)^-1 c(a, b)^3", str(sum_word(3).word)):
        word = parse(text)
        evaluate_word(word, env, ops)
        fresh = parse(text)
        assert word == fresh and hash(word) == hash(fresh) and repr(word) == repr(fresh)
        assert word._asdict() == fresh._asdict()


def test_sum_words_match_the_object_realization():
    rng = Random("words:oracle:sum")
    for step in (1, 2, 3, 4):
        word, d = sum_word(step).word, step + 1
        for _ in range(2):
            env = {"a": random_unipotent(d, rng), "b": random_unipotent(d, rng)}
            got = evaluate_word(word, env, matrix_group_ops(d))
            assert type(got) is UnipotentMatrix
            assert got == evaluate_word(word, env, object_ops(d))


def test_random_words_match_the_object_realization():
    # nested commutators and negative exponents on Fraction-entry unipotents
    rng = Random("words:oracle:random")
    for d in range(2, 7):
        ops, oracle = matrix_group_ops(d), object_ops(d)
        for _ in range(15):
            word = random_word(rng, ("a", "b", "x1"))
            env = {s: mat_exp(random_nilpotent(d, rng)) for s in ("a", "b", "x1")}
            assert evaluate_word(word, env, ops) == evaluate_word(word, env, oracle)
    assert evaluate_word(FormalWord(), env, ops) == mat_identity(6)


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "error, text, env, d",
    [
        (TypeError, "a b", {"a": "U3", "b": "X3"}, 3),
        (TypeError, "b a", {"a": "U3", "b": 5}, 3),
        (ValueError, "a b", {"a": "U3", "b": "U4"}, 3),
        (ValueError, "a b", {"a": "U3", "b": "U3"}, 4),
        (UnboundSymbolError, "a z", {"a": "U3"}, 3),
        (UnboundSymbolError, "c(a, z)", {"a": "U3"}, 3),
    ],
    ids=["nilpotent", "not-a-matrix", "mixed-dims", "ops-dim", "unbound", "unbound-in-commutator"],
)
def test_triangle_errors_match_the_object_realization(error, text, env, d):
    # the same exception, with the same message, as evaluation on objects
    rng = Random("words:errors")
    values = {
        "U3": random_unipotent(3, rng),
        "U4": random_unipotent(4, rng),
        "X3": random_nilpotent(3, rng),
    }
    env = {s: values.get(v, v) for s, v in env.items()}
    word = parse(text)
    got = _raised(lambda: evaluate_word(word, env, matrix_group_ops(d)))
    assert got == _raised(lambda: evaluate_word(word, env, object_ops(d)))
    assert got[0] is error


def test_step_5_sum_word_on_matrices():
    sw = sum_word(5)
    ops = matrix_group_ops(6)
    rng = Random("words:sum:5")
    for _ in range(10):
        a, b = random_unipotent(6, rng), random_unipotent(6, rng)
        want = mat_exp(nil_scale(nil_add(mat_log(a), mat_log(b)), sw.m))
        assert evaluate_word(sw.word, {"a": a, "b": b}, ops) == want


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
