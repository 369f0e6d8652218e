"""Word synthesis, expansion identities, and bracket extraction in the
truncated group.

The central construction writes a target log, degree by degree, as the log of
an explicit group word: start from the obvious generator block, decompose the
residual at each degree over right-normed generator brackets, and append
commutator correction factors whose leading terms cancel it. Appending a
factor whose log starts at degree l never disturbs degrees below l, so the
clearing is monotone.

Power-of-T targets run the whole construction once with coefficients in Q[T]
(the formal power left unevaluated). That makes the divisibility ladder
computable a priori: the coefficient of each correction is a polynomial with
zero constant term, so it takes integer values at every T divisible by the
lcm of its denominators, and those lcms accumulate into one divisor per
cleared degree.

Bracket extraction goes the other way: it recovers [log a, log b] from group
operations alone by sampling conjugates of a power of b and inverting the
Vandermonde system of the conjugation series. Composed with the sum words it
yields element-free containment certificates for iterated bracket sets.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import group
from .algebra import (
    AlgebraContext,
    BracketPattern,
    LieElement,
    eval_bracket_pattern,
    rightnormed_decomposition,
)
from .bch import bch, multi_bch
from .errors import (
    ContextMismatchError,
    DivisibilityError,
    GradingError,
    InternalInvariantError,
)
from .linalg import invert_matrix
from .qpoly import QPoly, T as POLY_T
from .record import Record
from .words import CommutatorFactor, FormalWord, SymbolFactor, make_word, word_length

DEFAULT_STEP_CAP = 6
DEFAULT_GENS_CAP = 4

# sentinel for a residual with empty support
EXACT = "exact"


# ---------------------------------------------------------------------------
# expansion tables

def _expansion_defect(
    num_factors: int, ctx: AlgebraContext
) -> tuple[AlgebraContext, tuple[LieElement, ...], LieElement]:
    """The first num_factors generators, in a context of their own when they
    are fewer than all of ctx's, and their expansion defect: the log of their
    product minus their sum."""
    if not 1 <= num_factors <= ctx.num_generators:
        raise GradingError(
            f"factor count {num_factors} outside 1..{ctx.num_generators}"
        )
    sub = ctx
    if num_factors != ctx.num_generators:
        sub = AlgebraContext(num_factors, ctx.step, ctx.symbols[:num_factors])
    gens = sub.generators()
    total = gens[0]
    for g in gens[1:]:
        total = total + g
    return sub, gens, multi_bch(gens) - total


def iterated_expansion(num_factors: int, ctx: AlgebraContext) -> dict[int, dict]:
    """Per-degree right-normed tables for the log of the product of the first
    num_factors generators minus the sum of their logs.

    Every degree 2..step is present; degrees with no defect map to empty
    tables. Re-evaluating the patterns on the generators and adding the sum
    of the logs reproduces the product log exactly.
    """
    _, _, defect = _expansion_defect(num_factors, ctx)
    return {d: rightnormed_decomposition(defect, d) for d in range(2, ctx.step + 1)}


def commutator_log_tail(
    pattern: BracketPattern, ctx: AlgebraContext
) -> dict[int, dict]:
    """Tail tables of the log of the nested group commutator for a pattern.

    The log agrees with the right-normed bracket of the pattern through the
    pattern's arity (checked exactly); the returned tables decompose each
    higher degree.
    """
    arity = len(pattern)
    if arity > ctx.step:
        raise GradingError(f"pattern arity {arity} exceeds step {ctx.step}")
    gens = [group.exp(g) for g in ctx.generators()]
    w = group.nested_commutator(pattern, gens).log
    leading = eval_bracket_pattern(pattern, ctx.generators())
    for d in range(1, arity + 1):
        want = leading.degree_component(d)
        if w.degree_component(d) != want:
            raise InternalInvariantError(
                f"commutator log disagrees with the bracket at degree {d}"
            )
    out: dict[int, dict] = {}
    for d in range(arity + 1, ctx.step + 1):
        comp = w.degree_component(d)
        if not comp.is_zero:
            out[d] = rightnormed_decomposition(comp)
    return out


# ---------------------------------------------------------------------------
# additive product-log decomposition

class ProductDecomposition(Record):
    """Additive clearing record: the sum of the generator logs equals the
    product log plus sum of beta[i] * log(correction_words[i]) plus the tail,
    whose support lies strictly above the cleared level."""

    __slots__ = ("beta", "correction_words", "tail")


def log_product_decomposition(
    level: int, num_factors: int, ctx: AlgebraContext
) -> ProductDecomposition:
    """Write the sum of the generator logs as the product log plus rational
    multiples of logs of integer commutator words, cleared through the given
    degree level.

    Correction words are products of nested generator commutators with
    integer exponents, one word per degree 2..level (empty at degrees with no
    defect); each beta is 1 over the lcm of the denominators its level has to
    clear.
    """
    if not 1 <= level <= ctx.step:
        raise GradingError(f"clearing level {level} outside 1..{ctx.step}")
    sub, gens, defect = _expansion_defect(num_factors, ctx)
    env = {s: group.exp(g) for s, g in zip(sub.symbols, gens)}
    remaining = -defect
    betas: list[Fraction] = []
    words: list[FormalWord] = []
    for degree in range(2, level + 1):
        table = rightnormed_decomposition(remaining, degree)
        if not table:
            betas.append(Fraction(1))
            words.append(FormalWord(()))
            continue
        beta = Fraction(1, lcm(*(c.denominator for c in table.values())))
        factors = []
        for alpha in sorted(table):
            m = table[alpha] / beta
            if m.denominator != 1:
                raise InternalInvariantError("level scale failed to clear denominators")
            factors.append(
                CommutatorFactor(
                    _pattern_word(alpha[:1], sub.symbols),
                    _pattern_word(alpha[1:], sub.symbols),
                    int(m),
                )
            )
        word = make_word(factors)
        betas.append(beta)
        words.append(word)
        remaining = remaining - group.evaluate_word(word, env, sub).log * beta
    min_deg = remaining.min_degree()
    if min_deg and min_deg <= level:
        raise InternalInvariantError("a cleared degree resurfaced in the tail")
    return ProductDecomposition(tuple(betas), tuple(words), remaining)


# ---------------------------------------------------------------------------
# power word synthesis over Q[T]

class SynthesisCertificate(Record):
    """Exactness record: the log of the word plus the residual equals the
    target, and the residual is supported strictly above the cleared level
    (min_residual_degree is "exact" when the support is empty)."""

    __slots__ = ("target", "word", "residual", "min_residual_degree")


class SynthesisResult(Record):
    __slots__ = ("divisors", "word", "certificate", "power")


class _SymbolicSynthesis:
    __slots__ = ("ctx", "divisors", "corrections", "target", "log_by_level")

    def __init__(self, ctx, divisors, corrections, target, log_by_level):
        self.ctx = ctx
        self.divisors = divisors
        self.corrections = corrections
        self.target = target
        self.log_by_level = log_by_level


_SYMBOLIC_CACHE: dict = {}


def _symbolic_synthesis(
    num_generators: int,
    step: int,
    symbols: tuple[str, ...],
) -> _SymbolicSynthesis:
    key = (num_generators, step, symbols)
    got = _SYMBOLIC_CACHE.get(key)
    if got is not None:
        return got
    ctx = AlgebraContext(num_generators, step, symbols)
    gens = ctx.generators()
    group_gens = [group.exp(g) for g in gens]
    target = gens[0] * POLY_T
    for g in gens[1:]:
        target = target + g * POLY_T
    lam = multi_bch([g * POLY_T for g in gens])
    log_by_level = {1: lam}
    divisors = [1]
    corrections: list[tuple[int, BracketPattern, QPoly]] = []
    for degree in range(2, step + 1):
        table = rightnormed_decomposition(target - lam, degree)
        c = divisors[-1]
        for alpha in sorted(table):
            poly = table[alpha]
            if not isinstance(poly, QPoly):
                poly = QPoly.constant(poly)
            if poly.constant_term:
                raise InternalInvariantError(
                    "synthesis coefficient has a nonzero value at power 0"
                )
            for den in poly.denominators():
                c = lcm(c, den)
            corrections.append((degree, alpha, poly))
            lam = bch(lam, group.nested_commutator(alpha, group_gens).log * poly)
        divisors.append(c)
        log_by_level[degree] = lam
    if lam != target:
        raise InternalInvariantError("synthesis failed to reach its target")
    got = _SYMBOLIC_CACHE[key] = _SymbolicSynthesis(
        ctx, tuple(divisors), tuple(corrections), target, log_by_level
    )
    return got


def _evaluate_at(x: LieElement, t: int) -> LieElement:
    terms = {}
    for tree, c in x.terms.items():
        v = c(Fraction(t)) if isinstance(c, QPoly) else c
        if v:
            terms[tree] = v
    return LieElement._raw(x.ctx, terms)


def _pattern_word(pattern: BracketPattern, symbols: tuple[str, ...]) -> FormalWord:
    if len(pattern) == 1:
        return FormalWord((SymbolFactor(symbols[pattern[0] - 1]),))
    return FormalWord(
        (
            CommutatorFactor(
                _pattern_word(pattern[:1], symbols), _pattern_word(pattern[1:], symbols)
            ),
        )
    )


def _correction_factor(pattern: BracketPattern, m: int, symbols: tuple[str, ...]):
    head = _pattern_word(pattern[:1], symbols)
    tail = _pattern_word(pattern[1:], symbols)
    if m < 0:
        # the inverse of a commutator swaps its arguments exactly
        return CommutatorFactor(tail, head, -m)
    return CommutatorFactor(head, tail, m)


def _check_synthesis_size(num_generators: int, step: int):
    if step > DEFAULT_STEP_CAP:
        raise ValueError(f"step {step} exceeds the cap {DEFAULT_STEP_CAP}")
    if not 1 <= num_generators <= DEFAULT_GENS_CAP:
        raise ValueError(f"generator count must be in 1..{DEFAULT_GENS_CAP}")


def synthesis_divisors(
    num_generators: int,
    step: int,
    *,
    symbols: tuple[str, ...] | None = None,
) -> tuple[int, ...]:
    """The divisibility ladder c_1..c_step, independent of any power."""
    _check_synthesis_size(num_generators, step)
    sym = _symbolic_synthesis(num_generators, step, symbols or ())
    return sym.divisors


def power_word_synthesis(
    power: int,
    num_generators: int,
    level: int,
    step: int | None = None,
    *,
    symbols: tuple[str, ...] | None = None,
) -> SynthesisResult:
    """A word whose log agrees with power * (sum of generator logs) through
    the given degree level.

    The divisibility ladder c_1..c_step is computed first and the power must
    satisfy all of it; violations raise DivisibilityError naming the violated
    divisor. The step and generator count are capped at DEFAULT_STEP_CAP
    and DEFAULT_GENS_CAP: pattern enumeration grows as L**degree and the
    basis dimension superexponentially.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    step = level if step is None else step
    if step < level:
        raise ValueError("the cleared level cannot exceed the step")
    _check_synthesis_size(num_generators, step)
    if not isinstance(power, int):
        raise ValueError("the power must be an integer")
    sym = _symbolic_synthesis(num_generators, step, symbols or ())
    for degree, c in enumerate(sym.divisors, start=1):
        if power % c:
            raise DivisibilityError(required=c, got=power, degree=degree)
    ctx = sym.ctx
    factors = []
    if power:
        for s in ctx.symbols:
            factors.append(SymbolFactor(s, power))
    for degree, alpha, poly in sym.corrections:
        if degree > level:
            break
        m = poly(Fraction(power))
        if m.denominator != 1:
            raise InternalInvariantError("correction exponent failed to be integral")
        if m:
            factors.append(_correction_factor(alpha, int(m), ctx.symbols))
    word = make_word(factors)
    target = _evaluate_at(sym.target, power)
    achieved = _evaluate_at(sym.log_by_level[level], power)
    residual = target - achieved
    min_deg = residual.min_degree()
    if min_deg and min_deg <= level:
        raise InternalInvariantError("residual leaked into a cleared degree")
    certificate = SynthesisCertificate(
        target, word, residual, EXACT if residual.is_zero else min_deg
    )
    return SynthesisResult(sym.divisors, word, certificate, power)


def verify_synthesis(result: SynthesisResult) -> bool:
    """Cross-check the polynomial pipeline by direct word evaluation: the
    evaluated log plus the residual must equal the target."""
    cert = result.certificate
    ctx = cert.target.ctx
    env = {s: group.exp(g) for s, g in zip(ctx.symbols, ctx.generators())}
    evaluated = group.evaluate_word(result.word, env, ctx)
    return evaluated.log + cert.residual == cert.target


# ---------------------------------------------------------------------------
# sum words

class SumWordResult(Record):
    """A word in two letters whose log is exactly m times the sum of the
    letter logs at the given step."""

    __slots__ = ("step", "m", "word", "length", "synthesis")


_SUM_WORD_CACHE: dict = {}


def sum_word(step: int) -> SumWordResult:
    got = _SUM_WORD_CACHE.get(step)
    if got is not None:
        return got
    divisors = synthesis_divisors(2, step, symbols=("a", "b"))
    m = divisors[-1]
    res = power_word_synthesis(m, 2, step, symbols=("a", "b"))
    if res.certificate.min_residual_degree != EXACT:
        raise InternalInvariantError("sum word must be exact at its own step")
    got = _SUM_WORD_CACHE[step] = SumWordResult(
        step, m, res.word, word_length(res.word), res
    )
    return got


def sum_word_divisor_probe(step: int) -> dict[int, bool]:
    """Whether each proper divisor of the canonical multiplier also satisfies
    the ladder (and hence admits an exact word by this construction)."""
    m = sum_word(step).m
    ladder = synthesis_divisors(2, step, symbols=("a", "b"))
    out = {}
    for d in range(1, m):
        if m % d == 0:
            out[d] = all(d % c == 0 for c in ladder)
    return out


# ---------------------------------------------------------------------------
# bracket extraction through group operations

class VandermondeRecipe(Record):
    """Exact inverse of the sample-point power matrix [s^j], used to solve a
    sampled conjugation series for its graded pieces."""

    __slots__ = ("n", "m", "inverse_matrix", "sample_points")


def vandermonde_recipe(n: int, m: int = 1) -> VandermondeRecipe:
    """Recipe for step n with scale m: sample points 1..n-1 and the inverse
    of the (n-1) x (n-1) matrix with entries s**j."""
    if n < 2:
        raise ValueError("the recipe needs step at least 2")
    if m < 1:
        raise ValueError("the scale must be a positive integer")
    points = tuple(range(1, n))
    rows = [[Fraction(s) ** j for j in range(1, n)] for s in points]
    inverse = tuple(tuple(row) for row in invert_matrix(rows))
    return VandermondeRecipe(n, m, inverse, points)


def extract_bracket(
    a: group.GroupElement,
    b: group.GroupElement,
    recipe: VandermondeRecipe | None = None,
) -> LieElement:
    """The bracket [log a, log b] recovered from group operations alone.

    Conjugating b**m by a**s leaves m log b plus a polynomial in s whose
    degree-j coefficient is ad(log a)**j (m log b) / j!; sampling s at the
    recipe points and applying the inverse matrix isolates the j=1 piece.
    """
    ctx = a.log.ctx
    if b.log.ctx != ctx:
        raise ContextMismatchError("cannot extract across algebra contexts")
    if ctx.step < 2:
        raise GradingError("bracket extraction needs step at least 2")
    if recipe is None:
        recipe = vandermonde_recipe(ctx.step)
    if recipe.n != ctx.step:
        raise ContextMismatchError(
            f"recipe step {recipe.n} does not match context step {ctx.step}"
        )
    bm = group.rational_power(b, recipe.m)
    base = bm.log
    samples = []
    for s in recipe.sample_points:
        a_s = group.rational_power(a, s)
        y = group.mul(group.mul(a_s, bm), group.inverse(a_s))
        samples.append(y.log - base)
    u1 = LieElement.zero(ctx)
    for w, v in zip(recipe.inverse_matrix[0], samples):
        if w:
            u1 = u1 + v * w
    return u1 * Fraction(1, recipe.m)


# ---------------------------------------------------------------------------
# containment certificates for iterated bracket sets

class ContainmentCertificate(Record):
    """Element-free witness recipe: every bracket of a base log against a
    depth-(j-1) iterated bracket lies in the sumset of rationals[i] times the
    log of the k_i-th power set. m and k record the intermediate single-power
    form (the scaled depth-(j-1) element exponentiates into the k-th power
    set) that the extraction step consumed."""

    __slots__ = ("j", "rationals", "exponents", "m", "k")


def containment_certificate(j: int, ctx: AlgebraContext) -> ContainmentCertificate:
    """Certificate for depth j at the context step, built recursively.

    Depth 0 sets are base logs, so exp carries their integer multiples into
    plain power sets; each further depth folds the previous certificate into
    a single power via sum words, then extracts the new bracket through the
    Vandermonde recipe. The lists depend only on (j, step). Depths at or
    above the step get empty lists, as the bracket sets there are trivial.
    """
    if j < 1:
        raise ValueError("the bracket depth must be at least 1")
    n = ctx.step
    if j >= n:
        return ContainmentCertificate(j, (), (), 1, 0)
    if j == 1:
        prev_q: tuple[Fraction, ...] = (Fraction(1),)
        prev_k: tuple[int, ...] = (1,)
    else:
        prev = containment_certificate(j - 1, ctx)
        prev_q, prev_k = prev.rationals, prev.exponents
    scale = lcm(*(q.denominator for q in prev_q))
    entries = [int(q * scale) for q in prev_q]
    m = scale
    power = prev_k[0] * abs(entries[0])
    if len(entries) > 1:
        sw = sum_word(n)
        for i in range(1, len(entries)):
            power = sw.length * max(power, prev_k[i] * abs(entries[i]) * sw.m ** (i - 1))
            m *= sw.m
    recipe = vandermonde_recipe(n, m)
    row = recipe.inverse_matrix[0]
    sigma = sum(row)
    rationals: list[Fraction] = []
    exponents: list[int] = []
    for s, w in zip(recipe.sample_points, row):
        if w:
            rationals.append(w / m)
            exponents.append(power + 2 * s)
    if sigma:
        for q, k in zip(prev_q, prev_k):
            rationals.append(-sigma * q)
            exponents.append(k)
    return ContainmentCertificate(j, tuple(rationals), tuple(exponents), m, power)
