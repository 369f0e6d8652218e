"""Truncated series kernel: exp/log ladders in ints, truncation.

The Fraction ladders below are the route the int ladders replaced, kept as
their differential oracle: the same Horner ladders with one Fraction per
coefficient of every product.
"""

from fractions import Fraction
from random import Random

import pytest

from nilbch.algebra import AlgebraContext, LieElement, extract_lie_coords, hall_basis
from nilbch.bch import _bch_series, lie_to_assoc
from nilbch.series import BACKEND, EMPTY_WORD, exp_truncated, log_truncated, mul_trunc, sub

_ONE = Fraction(1)


def one() -> dict:
    return {EMPTY_WORD: _ONE}


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for w, c in q.items():
        s = out.get(w)
        if s is None:
            out[w] = c
        else:
            s = s + c
            if s:
                out[w] = s
            else:
                del out[w]
    return out


def scale(p: dict, c) -> dict:
    if not c:
        return {}
    return {w: x * c for w, x in p.items()}


def fraction_exp_truncated(p: dict, step: int) -> dict:
    """exp of a series with zero constant term, by a Horner ladder."""
    if EMPTY_WORD in p:
        raise ValueError("exp requires a series with zero constant term")
    e = one()
    for k in range(step, 0, -1):
        e = add(one(), scale(mul_trunc(p, e, step), Fraction(1, k)))
    return e


def fraction_log_truncated(u: dict, step: int) -> dict:
    """log of a series with constant term 1, by a Horner ladder."""
    if u.get(EMPTY_WORD) != 1:
        raise ValueError("log requires a series with constant term 1")
    a = {w: c for w, c in u.items() if w}
    s: dict = {EMPTY_WORD: Fraction(1, step)}
    for k in range(step - 1, 0, -1):
        s = add({EMPTY_WORD: Fraction(1, k)}, scale(mul_trunc(a, s, step), -1))
    return mul_trunc(a, s, step)


def fraction_bch_series(x: LieElement, y: LieElement) -> LieElement:
    """The series route with every coefficient a Fraction."""
    step = x.ctx.step
    ex = fraction_exp_truncated(lie_to_assoc(x.terms), step)
    ey = fraction_exp_truncated(lie_to_assoc(y.terms), step)
    z = fraction_log_truncated(mul_trunc(ex, ey, step), step)
    return LieElement._raw(x.ctx, extract_lie_coords(z))


def divided(nums: dict, den: int) -> dict:
    return {w: Fraction(c, den) for w, c in nums.items()}


def random_numerators(rng: Random, letters: int, step: int, width: int) -> dict:
    """Up to 30 int coefficients in [-width, width] on words of degree 1..step."""
    out = {}
    for _ in range(30):
        w = tuple(rng.randrange(letters) for _ in range(rng.randint(1, step)))
        out[w] = rng.randint(-width, width)
    return {w: c for w, c in out.items() if c}


# small denominators and wide, mostly coprime ones such as 720 and 997
_DENOMINATORS = (1, 2, 6, 720, 997, 1000)


def test_backend_is_reported():
    assert BACKEND == "pure"


def test_mul_truncates_high_degrees():
    p = {(0,): Fraction(1), (0, 0): Fraction(1)}
    assert mul_trunc(p, p, 2) == {(0, 0): Fraction(1)}
    assert mul_trunc(p, p, 1) == {}


def pairwise_mul_trunc(p: dict, q: dict, step: int) -> dict:
    """The pair loop that grouping the right operand by length replaced: every
    pair of terms, each length tested against the room left."""
    out: dict = {}
    for w1, c1 in p.items():
        room = step - len(w1)
        for w2, c2 in q.items():
            if len(w2) > room:
                continue
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def random_series(rng: Random, letters: int, step: int) -> dict:
    """Up to 12 small int coefficients on words of length 0..step + 1: the
    empty word, and words past the step that the product must drop."""
    out = {}
    for _ in range(rng.randint(0, 12)):
        w = tuple(rng.randrange(letters) for _ in range(rng.randint(0, step + 1)))
        out[w] = rng.randint(-2, 2)
    return {w: c for w, c in out.items() if c}


@pytest.mark.parametrize("step", range(0, 7))
def test_grouped_mul_trunc_matches_the_pair_loop(step):
    rng = Random(f"series:mul:{step}")
    for letters in (1, 2, 3):
        for _ in range(40):
            p, q = random_series(rng, letters, step), random_series(rng, letters, step)
            assert mul_trunc(p, q, step) == pairwise_mul_trunc(p, q, step)
    # the empty word alone is the unit, at any step
    q = random_series(rng, 2, step)
    unit = {EMPTY_WORD: 1}
    kept = {w: c for w, c in q.items() if len(w) <= step}
    assert mul_trunc(unit, q, step) == mul_trunc(q, unit, step) == kept


def test_mul_drops_exact_zeros():
    p = {(0,): Fraction(1)}
    q = {(1,): Fraction(1)}
    r = add(mul_trunc(p, q, 2), scale(mul_trunc(q, p, 2), -1))
    assert sub(r, {(0, 1): Fraction(1), (1, 0): Fraction(-1)}) == {}


def test_exp_log_roundtrip():
    rng = Random("series:explog")
    for den in _DENOMINATORS:
        m = random_numerators(rng, 2, 4, 5)
        step = 4
        u, uden = exp_truncated(m, den, step)
        assert u.get(EMPTY_WORD) == uden
        z, zden = log_truncated(u, uden, step)
        assert divided(z, zden) == divided(m, den)


@pytest.mark.parametrize("step", range(1, 7))
@pytest.mark.parametrize("letters", [2, 3, 4])
def test_int_ladders_match_the_fraction_ladders(letters, step):
    rng = Random(f"series:ladders:{letters}:{step}")
    for den in _DENOMINATORS:
        for width in (5, 1000):
            m = random_numerators(rng, letters, step, width)
            e, eden = exp_truncated(m, den, step)
            want = fraction_exp_truncated(divided(m, den), step)
            assert divided(e, eden) == want
            # a unipotent series whose constant term is den, not exp(m / den)
            u = {**m, EMPTY_WORD: den}
            z, zden = log_truncated(u, den, step)
            assert divided(z, zden) == fraction_log_truncated(divided(u, den), step)


@pytest.mark.parametrize("step", range(1, 11))
def test_int_series_route_matches_the_fraction_route_on_generators(step):
    x, y = AlgebraContext(2, step).generators()
    assert _bch_series(x, y) == fraction_bch_series(x, y)


def sparse_element(ctx: AlgebraContext, rng: Random) -> LieElement:
    """Up to two generators and three basis elements of any degree, with small
    and wide denominators: a dense element at four generators and step 6
    costs the series route tens of seconds."""
    basis = hall_basis(ctx)
    gens = rng.sample(basis[: ctx.num_generators], min(2, ctx.num_generators))
    terms = {
        t: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 720, 997)))
        for t in gens + rng.sample(basis, min(3, len(basis)))
    }
    return LieElement(ctx, terms)


@pytest.mark.parametrize("step", range(1, 7))
@pytest.mark.parametrize("letters", [2, 3, 4])
def test_int_series_route_matches_the_fraction_route(letters, step):
    ctx = AlgebraContext(letters, step)
    rng = Random(f"series:bch:{letters}:{step}")
    for _ in range(4):
        x, y = sparse_element(ctx, rng), sparse_element(ctx, rng)
        assert _bch_series(x, y) == fraction_bch_series(x, y)


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        exp_truncated({EMPTY_WORD: 1}, 1, 3)
    with pytest.raises(ValueError):
        log_truncated({(0,): 1}, 1, 3)


def test_log_requires_constant_term_den():
    # u / den has constant term 1 only when u's is den
    with pytest.raises(ValueError):
        log_truncated({EMPTY_WORD: 1, (0,): 1}, 2, 3)
    with pytest.raises(ValueError):
        log_truncated({EMPTY_WORD: 2, (0,): 1}, 1, 3)
