"""Seeded identity suite: re-derive key results against independent oracles.

Each check generates its inputs up front from its own sub-seed, then runs a
pure verifier on each, so reports are byte-identical for a fixed seed and
step.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from random import Random

from . import group
from .algebra import (
    AlgebraContext,
    LieElement,
    eval_bracket_pattern,
    hall_basis,
    patterns,
)
from .bch import _bch_series, bch
from .identities import (
    _check_synthesis_size,
    commutator_log_tail,
    extract_bracket,
    sum_word,
    verify_synthesis,
)
from .matrices import (
    mat_exp,
    mat_log,
    mat_mul,
    matrix_group_ops,
    nil_add,
    nil_scale,
    random_nilpotent,
    random_unipotent,
    substitute,
)
from .words import evaluate_word

SAMPLED_PATTERNS_PER_ARITY = 40


def _entry(name: str, results: list, count: int | None = None) -> dict:
    """A check's report entry: its name, how many cases it ran (by default
    one per result) and whether every result passed."""
    return {"name": name, "count": len(results) if count is None else count, "pass": all(results)}


def random_lie(ctx: AlgebraContext, rng: Random) -> LieElement:
    """Random element with small rational coordinates on the Hall basis."""
    terms = {}
    for t in hall_basis(ctx):
        if rng.random() < 0.5:
            continue
        c = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
        if c:
            terms[t] = c
    return LieElement(ctx, terms)


def _check_bch_matrix(step: int, trials: int, seed: int) -> dict:
    """bch on two generators against the matrix logarithm in UT(step + 1)."""
    ctx = AlgebraContext(2, step)
    z = bch(ctx.generator(0), ctx.generator(1))
    rng = Random(f"{seed}:bch-matrix:{step}")
    d = step + 1
    pairs = [
        (random_nilpotent(d, rng), random_nilpotent(d, rng))
        for _ in range(trials)
    ]

    def ok(pair) -> bool:
        x, y = pair
        direct = mat_log(mat_mul(mat_exp(x), mat_exp(y)))
        return substitute(z, [x, y]) == direct

    return _entry("bch-matrix-oracle", [ok(x) for x in pairs])


def _check_associativity(step: int, trials: int, seed: int) -> dict:
    """bch(bch(a, b), c) == bch(a, bch(b, c)) on random elements, and bch(a, b)
    equals the series route on the same pair."""
    ctx = AlgebraContext(2, step)
    rng = Random(f"{seed}:assoc:{step}")
    triples = [
        (random_lie(ctx, rng), random_lie(ctx, rng), random_lie(ctx, rng))
        for _ in range(trials)
    ]

    def ok(triple) -> bool:
        a, b, c = triple
        ab = bch(a, b)
        return ab == _bch_series(a, b) and bch(ab, c) == bch(a, bch(b, c))

    return _entry("bch-associativity", [ok(x) for x in triples])


def _tail_patterns(step: int, seed: int):
    rng = Random(f"{seed}:tails:{step}")
    for arity in range(2, step + 1):
        if arity <= 4:
            yield from patterns(2, arity)
        else:
            pool = list(islice(patterns(2, arity), 4096))
            k = min(SAMPLED_PATTERNS_PER_ARITY, len(pool))
            for i in sorted(rng.sample(range(len(pool)), k)):
                yield pool[i]


def _check_tails(step: int, trials: int, seed: int) -> dict:
    """Commutator logs match their bracket plus the returned tail tables."""
    ctx = AlgebraContext(2, step)
    gens = ctx.generators()
    group_gens = [group.exp(g) for g in gens]
    todo = list(_tail_patterns(step, seed))

    def ok(pattern) -> bool:
        tables = commutator_log_tail(pattern, ctx)
        total = eval_bracket_pattern(pattern, gens)
        for table in tables.values():
            for alpha, c in table.items():
                total = total + eval_bracket_pattern(alpha, gens) * c
        return group.nested_commutator(pattern, group_gens).log == total

    return _entry("commutator-tails", [ok(x) for x in todo])


def _check_sum_word(step: int, trials: int, seed: int) -> dict:
    """The two-letter sum word hits exp(m(log a + log b)) on matrix pairs."""
    sw = sum_word(step)
    if not verify_synthesis(sw.synthesis):
        return _entry("sum-word", [False], 0)
    word = sw.word
    rng = Random(f"{seed}:sum-word:{step}")
    d = step + 1
    ops = matrix_group_ops(d)
    pairs = [
        (random_unipotent(d, rng), random_unipotent(d, rng))
        for _ in range(trials)
    ]

    def ok(pair) -> bool:
        a, b = pair
        want = mat_exp(nil_scale(nil_add(mat_log(a), mat_log(b)), sw.m))
        return evaluate_word(word, {"a": a, "b": b}, ops) == want

    results = [ok(x) for x in pairs]
    return _entry("sum-word", results, len(results) + 1)  # and the synthesis


def _check_extraction(step: int, trials: int, seed: int) -> dict:
    """Vandermonde bracket extraction against the direct Lie bracket."""
    if step < 2:
        return _entry("bracket-extraction", [])
    ctx = AlgebraContext(2, step)
    rng = Random(f"{seed}:extract:{step}")
    pairs = [
        (random_lie(ctx, rng), random_lie(ctx, rng)) for _ in range(trials)
    ]

    def ok(pair) -> bool:
        x, y = pair
        got = extract_bracket(group.exp(x), group.exp(y))
        return got == x.bracket(y)

    return _entry("bracket-extraction", [ok(x) for x in pairs])


_CHECKS = (
    _check_bch_matrix,
    _check_associativity,
    _check_tails,
    _check_sum_word,
    _check_extraction,
)


def run_suite(step: int, trials: int, seed: int) -> dict:
    """Run every check and report counts plus a global verdict."""
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step}")
    _check_synthesis_size(2, step)  # the sum-word check's cap, before any check runs
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    checks = [fn(step, trials, seed) for fn in _CHECKS]
    return {
        "step": step,
        "trials": trials,
        "seed": seed,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
