"""Truncated series kernel: exp/log ladders, truncation."""

from fractions import Fraction
from random import Random

import pytest

from nilbch.series import (
    BACKEND,
    EMPTY_WORD,
    add,
    exp_truncated,
    log_truncated,
    mul_trunc,
    one,
    scale,
    sub,
)


def random_series(rng: Random, letters: int, step: int) -> dict:
    out = {}
    for _ in range(30):
        d = rng.randint(1, step)
        w = tuple(rng.randrange(letters) for _ in range(d))
        c = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        if c:
            out[w] = c
    return out


def test_backend_is_reported():
    assert BACKEND == "pure"


def test_mul_truncates_high_degrees():
    p = {(0,): Fraction(1), (0, 0): Fraction(1)}
    assert mul_trunc(p, p, 2) == {(0, 0): Fraction(1)}
    assert mul_trunc(p, p, 1) == {}


def test_mul_drops_exact_zeros():
    p = {(0,): Fraction(1)}
    q = {(1,): Fraction(1)}
    r = add(mul_trunc(p, q, 2), scale(mul_trunc(q, p, 2), -1))
    assert sub(r, {(0, 1): Fraction(1), (1, 0): Fraction(-1)}) == {}


def test_exp_log_roundtrip():
    rng = Random("series:explog")
    for _ in range(10):
        p = random_series(rng, 2, 4)
        step = 4
        u = exp_truncated(p, step)
        assert u.get(EMPTY_WORD) == 1
        assert log_truncated(u, step) == p


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        exp_truncated(one(), 3)
    with pytest.raises(ValueError):
        log_truncated({(0,): Fraction(1)}, 3)

