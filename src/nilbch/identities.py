"""Word synthesis, commutator log tails, and bracket extraction in the
truncated group.

The central construction writes a target log, degree by degree, as the log of
an explicit group word: start from the obvious generator block, decompose the
residual at each degree over right-normed generator brackets, and append
commutator correction factors whose leading terms cancel it. Appending a
factor whose log starts at degree l never disturbs degrees below l, so the
clearing is monotone.

For the target T * (sum of generator logs) each correction exponent is a
polynomial in T. Its degree is at most the Lie degree d of its correction:
the generator block has T-degree k at Lie degree k, a bracket adds both Lie
degrees and T-degrees, and each exponent scales a commutator log that starts
at Lie degree d, so by induction every Lie-degree-d piece of the
construction has T-degree at most d. Its constant term is 0, as at T = 0
the target, the block and every correction vanish. So the runs at
T = 1..step fix each exponent exactly, through the inverse Vandermonde
matrix of those points, and the divisibility ladder follows a priori: an
exponent takes integer values at every T divisible by the lcm of its
coefficient denominators, and those lcms accumulate into one divisor per
cleared degree. The word itself comes from one run at the requested power,
whose exponents are checked against the interpolated polynomials.

Bracket extraction goes the other way: it recovers [log a, log b] from group
operations alone by sampling conjugates of a power of b and inverting the
Vandermonde system of the conjugation series. Composed with the sum words it
yields element-free containment certificates for iterated bracket sets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import lcm

from . import group
from .algebra import (
    AlgebraContext,
    BracketPattern,
    LieElement,
    eval_bracket_pattern,
    rightnormed_decomposition,
    rightnormed_fold,
)
from .bch import bch, multi_bch
from .errors import (
    ContextMismatchError,
    DivisibilityError,
    GradingError,
    InternalInvariantError,
)
from .linalg import apply_inverse, spanning_inverse
from .record import Record
from .words import CommutatorFactor, FormalWord, SymbolFactor, make_word, word_length

DEFAULT_STEP_CAP = 6
DEFAULT_GENS_CAP = 4

# sentinel for a residual with empty support
EXACT = "exact"


# ---------------------------------------------------------------------------
# commutator log tails

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
# power word synthesis at T = 1..step, interpolated

class SynthesisCertificate(Record):
    """Exactness record: the log of the word plus the residual equals the
    target, and the residual is supported strictly above the cleared level
    (min_residual_degree is "exact" when the support is empty)."""

    __slots__ = ("target", "word", "residual", "min_residual_degree")


class SynthesisResult(Record):
    __slots__ = ("divisors", "word", "certificate", "power")


def _synthesis_run(ctx: AlgebraContext, power: int, level: int, logs: dict) -> tuple:
    """(target, achieved, corrections): the construction at T = power,
    cleared through the given level, with its corrections as (degree,
    pattern, exponent) in the order the word applies them. logs keeps the
    nested commutator of each pattern and suffix, which no power changes."""
    gens = ctx.generators()
    group_gens = [group.exp(g) for g in gens]
    block = [g * power for g in gens]
    target = LieElement.zero(ctx)
    for x in block:
        target = target + x
    lam = multi_bch(block)
    corrections = []
    for degree in range(2, level + 1):
        table = rightnormed_decomposition(target - lam, degree)
        for alpha in sorted(table):
            m = table[alpha]
            corrections.append((degree, alpha, m))
            log = rightnormed_fold(alpha, group_gens, group.commutator, logs).log
            lam = bch(lam, log * m)
    return target, lam, corrections


@cache
def _ladder(num_generators: int, step: int, symbols: tuple[str, ...]) -> tuple:
    """(ctx, divisors, polys, logs): the construction run in full at
    T = 1..step, each correction exponent's polynomial in T, as its
    coefficients of T**1..T**step keyed by (degree, pattern), and the
    nested commutators the runs share."""
    ctx = AlgebraContext(num_generators, step, symbols)
    values: dict = {}
    logs: dict = {}
    for t in range(1, step + 1):
        target, lam, corrections = _synthesis_run(ctx, t, step, logs)
        if lam != target:
            raise InternalInvariantError("synthesis failed to reach its target")
        for degree, alpha, m in corrections:
            values.setdefault((degree, alpha), [0] * step)[t - 1] = m
    polys = {k: apply_inverse(*_vandermonde_inverse(step + 1), v) for k, v in values.items()}
    dens = [1] * step
    for (degree, _), coeffs in polys.items():
        dens[degree - 1] = lcm(dens[degree - 1], *[a.denominator for a in coeffs])
    return ctx, tuple(accumulate(dens, lcm)), polys, logs


def _commutator_word(a: FormalWord, b: FormalWord) -> FormalWord:
    return FormalWord((CommutatorFactor(a, b),))


def _pattern_word(pattern: BracketPattern, symbols: tuple[str, ...]) -> FormalWord:
    letters = [FormalWord((SymbolFactor(s),)) for s in symbols]
    return rightnormed_fold(pattern, letters, _commutator_word, {})


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


def _check_power_args(power: int, num_generators: int, level: int, step: int | None) -> int:
    """The step of a power-word synthesis, once its arguments are valid."""
    if level < 1:
        raise ValueError("level must be at least 1")
    step = level if step is None else step
    if step < level:
        raise ValueError("the cleared level cannot exceed the step")
    _check_synthesis_size(num_generators, step)
    if not isinstance(power, int):
        raise ValueError("the power must be an integer")
    return step


def synthesis_divisors(
    num_generators: int,
    step: int,
    *,
    symbols: tuple[str, ...] | None = None,
) -> tuple[int, ...]:
    """The divisibility ladder c_1..c_step, independent of any power: c_1 = 1,
    and c_d is the lcm of c_(d-1) and the denominators of the polynomial
    coefficients of the degree-d correction exponents."""
    _check_synthesis_size(num_generators, step)
    return _ladder(num_generators, step, symbols or ())[1]


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
    step = _check_power_args(power, num_generators, level, step)
    ctx, divisors, polys, logs = _ladder(num_generators, step, symbols or ())
    for degree, c in enumerate(divisors, start=1):
        if power % c:
            raise DivisibilityError(required=c, got=power, degree=degree)
    target, achieved, corrections = _synthesis_run(ctx, power, level, logs)
    exponents = {(degree, alpha): m for degree, alpha, m in corrections}
    for key in polys.keys() | exponents.keys():
        if key[0] <= level:
            at_power = sum(a * power**j for j, a in enumerate(polys.get(key, ()), start=1))
            if at_power != exponents.get(key, 0):
                raise InternalInvariantError(
                    "correction exponent disagrees with its interpolated polynomial"
                )
    factors = []
    if power:
        for s in ctx.symbols:
            factors.append(SymbolFactor(s, power))
    for _, alpha, m in corrections:
        if m.denominator != 1:
            raise InternalInvariantError("correction exponent failed to be integral")
        factors.append(_correction_factor(alpha, int(m), ctx.symbols))
    word = make_word(factors)
    residual = target - achieved
    min_deg = residual.min_degree()
    if min_deg and min_deg <= level:
        raise InternalInvariantError("residual leaked into a cleared degree")
    certificate = SynthesisCertificate(
        target, word, residual, EXACT if residual.is_zero else min_deg
    )
    return SynthesisResult(divisors, word, certificate, power)


def verify_synthesis(result: SynthesisResult) -> bool:
    """Cross-check the synthesis run by direct word evaluation: the
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


@cache
def sum_word(step: int) -> SumWordResult:
    divisors = synthesis_divisors(2, step, symbols=("a", "b"))
    m = divisors[-1]
    res = power_word_synthesis(m, 2, step, symbols=("a", "b"))
    if res.certificate.min_residual_degree != EXACT:
        raise InternalInvariantError("sum word must be exact at its own step")
    return SumWordResult(step, m, res.word, word_length(res.word), res)


# ---------------------------------------------------------------------------
# bracket extraction through group operations

class VandermondeRecipe(Record):
    """Exact inverse of the sample-point power matrix [s^j], used to solve a
    sampled conjugation series for its graded pieces."""

    __slots__ = ("n", "m", "inverse_matrix", "sample_points")


@cache
def _vandermonde_inverse(n: int) -> tuple:
    """(den, rows) inverting the matrix [s**j], s and j in 1..n-1, once per n."""
    columns = ({s - 1: s**j for s in range(1, n)} for j in range(1, n))
    return spanning_inverse(columns, n - 1)[1:]


@cache
def vandermonde_recipe(n: int, m: int = 1) -> VandermondeRecipe:
    """Recipe for step n with scale m: sample points 1..n-1 and the inverse
    of the (n-1) x (n-1) matrix with entries s**j."""
    if n < 2:
        raise ValueError("the recipe needs step at least 2")
    if m < 1:
        raise ValueError("the scale must be a positive integer")
    den, rows = _vandermonde_inverse(n)
    inverse = tuple(tuple(Fraction(c, den) for c in row) for row in rows)
    return VandermondeRecipe(n, m, inverse, tuple(range(1, n)))


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
        samples.append(group.conjugate(a_s, bm).log - base)
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
    scale = lcm(*[q.denominator for q in prev_q])
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
