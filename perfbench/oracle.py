"""Exact arithmetic of the benchmark's own, used to check nilbch's answers.

Nothing here imports nilbch. Matrices are lists of lists of Fraction; the
growth model is an integer Heisenberg group, (a, b, c) standing for
[[1, a, c], [0, 1, b], [0, 0, 1]], for UT(3, Z).
Lie elements arrive in nilbch's public JSON form, {"[x1,x2]": "1/2", ...},
and words in its text grammar, "a^2 b^2 c(b, a)^2".
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial


class CheckError(AssertionError):
    """An answer disagrees with the benchmark's own arithmetic."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# square matrices over Q (upper triangular in every use here)

def identity(d: int) -> list:
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def zero(d: int) -> list:
    return [[Fraction(0)] * d for _ in range(d)]


def mul(a: list, b: list) -> list:
    d = len(a)
    out = zero(d)
    for i in range(d):
        row, orow = a[i], out[i]
        for k in range(d):
            x = row[k]
            if x:
                brow = b[k]
                for j in range(d):
                    if brow[j]:
                        orow[j] += x * brow[j]
    return out


def add(a: list, b: list) -> list:
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def scale(a: list, c) -> list:
    return [[x * c for x in row] for row in a]


def sub(a: list, b: list) -> list:
    return add(a, scale(b, -1))


def bracket(a: list, b: list) -> list:
    return sub(mul(a, b), mul(b, a))


def expm(n: list) -> list:
    """exp of a strictly upper-triangular matrix: a finite sum."""
    d = len(n)
    out, term = identity(d), identity(d)
    for k in range(1, d):
        term = mul(term, n)
        out = add(out, scale(term, Fraction(1, factorial(k))))
    return out


def logm(u: list) -> list:
    """log of a unipotent matrix: a finite alternating sum."""
    d = len(u)
    n = sub(u, identity(d))
    out, term = zero(d), identity(d)
    for k in range(1, d):
        term = mul(term, n)
        out = add(out, scale(term, Fraction((-1) ** (k + 1), k)))
    return out


def inverse(u: list) -> list:
    """Inverse of a unipotent matrix by the finite Neumann series."""
    d = len(u)
    n = sub(identity(d), u)
    out, term = identity(d), identity(d)
    for _ in range(1, d):
        term = mul(term, n)
        out = add(out, term)
    return out


def power(u: list, k: int) -> list:
    if k < 0:
        u, k = inverse(u), -k
    out, acc = identity(len(u)), u
    while k:
        if k & 1:
            out = mul(out, acc)
        k >>= 1
        if k:
            acc = mul(acc, acc)
    return out


def group_commutator(g: list, h: list) -> list:
    return mul(mul(g, h), mul(inverse(g), inverse(h)))


def as_matrix(rows) -> list:
    return [[Fraction(x) for x in row] for row in rows]


def random_strict(d: int, rng) -> list:
    """Strictly upper-triangular matrix with nonzero small rational entries,
    generic enough that a wrong coefficient shows in its image."""
    out = zero(d)
    for i in range(d):
        for j in range(i + 1, d):
            out[i][j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
    return out


# ---------------------------------------------------------------------------
# Lie elements in JSON form, evaluated on matrices

def parse_tree(text: str, symbols: tuple) -> object:
    """"[x1,[x1,x2]]" -> (0, (0, 1)); a leaf is a generator index."""
    pos = 0

    def parse():
        nonlocal pos
        if text.startswith("[", pos):
            pos += 1
            left = parse()
            require(text.startswith(",", pos), f"bad bracket {text!r}")
            pos += 1
            right = parse()
            require(text.startswith("]", pos), f"bad bracket {text!r}")
            pos += 1
            return (left, right)
        m = re.compile(r"[a-z][a-z0-9_]*").match(text, pos)
        require(m is not None and m.group(0) in symbols, f"bad symbol in {text!r}")
        pos = m.end()
        return symbols.index(m.group(0))

    tree = parse()
    require(pos == len(text), f"trailing text in {text!r}")
    return tree


def eval_tree(tree, mats: list, memo: dict) -> list:
    if isinstance(tree, int):
        return mats[tree]
    got = memo.get(tree)
    if got is None:
        got = memo[tree] = bracket(eval_tree(tree[0], mats, memo), eval_tree(tree[1], mats, memo))
    return got


def eval_lie(obj: dict, mats: list, symbols: tuple, memo: dict | None = None) -> list:
    """Image of a JSON Lie element when generator i maps to mats[i]."""
    memo = {} if memo is None else memo
    out = zero(len(mats[0]))
    for key, value in obj.items():
        require(isinstance(value, str), f"coefficient of {key} is not a string")
        out = add(out, scale(eval_tree(parse_tree(key, symbols), mats, memo), Fraction(value)))
    return out


def rightnormed(pattern, mats: list) -> list:
    """[M_p1, [M_p2, ... M_pk]] for a 1-based index pattern."""
    out = mats[pattern[-1] - 1]
    for i in reversed(pattern[:-1]):
        out = bracket(mats[i - 1], out)
    return out


def nested_group_commutator(pattern, elements: list) -> list:
    out = elements[pattern[-1] - 1]
    for i in reversed(pattern[:-1]):
        out = group_commutator(elements[i - 1], out)
    return out


# ---------------------------------------------------------------------------
# words in nilbch's text grammar

_TOKEN = re.compile(r"\s*(?:(c\()|([a-z][a-z0-9_]*)|(\()|(\))|(,)|\^(-?[0-9]+))")


def _word_tokens(text: str) -> list:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        require(m is not None, f"bad word text at {pos}: {text[pos:pos + 20]!r}")
        out.append((m.lastindex, m.group(m.lastindex)))
        pos = m.end()
    return out


def parse_word(text: str) -> list:
    """Factors as ("sym", name, e), ("grp", factors, e) or ("com", u, v, e)."""
    toks = _word_tokens(text)
    i = 0

    def expect(kind):
        nonlocal i
        require(i < len(toks) and toks[i][0] == kind, "unbalanced word")
        i += 1

    def word(stop):
        nonlocal i
        factors = []
        while i < len(toks) and toks[i][0] not in stop:
            kind, val = toks[i]
            i += 1
            if kind == 2:
                atom = ["sym", val]
            elif kind == 3:
                atom = ["grp", word((4,))]
                expect(4)
            elif kind == 1:
                left = word((5,))
                expect(5)
                right = word((4,))
                expect(4)
                atom = ["com", left, right]
            else:
                raise CheckError(f"unexpected token {val!r}")
            e = 1
            if i < len(toks) and toks[i][0] == 6:
                e = int(toks[i][1])
                i += 1
            factors.append((*atom, e))
        require(bool(factors), "empty (sub)word")
        return factors

    out = word(())
    require(i == len(toks), "trailing tokens in word")
    return out


def eval_word(factors: list, env: dict) -> list:
    d = len(next(iter(env.values())))
    out = identity(d)
    for f in factors:
        if f[0] == "sym":
            base = env[f[1]]
        elif f[0] == "grp":
            base = eval_word(f[1], env)
        else:
            base = group_commutator(eval_word(f[1], env), eval_word(f[2], env))
        out = mul(out, power(base, f[-1]))
    return out


def word_length(factors: list) -> int:
    total = 0
    for f in factors:
        k = abs(f[-1])
        if f[0] == "sym":
            total += k
        elif f[0] == "grp":
            total += k * word_length(f[1])
        else:
            total += k * 2 * (word_length(f[1]) + word_length(f[2]))
    return total


# ---------------------------------------------------------------------------
# counting

def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def witt(gens: int, degree: int) -> int:
    """Dimension of the degree-d part of the free Lie algebra on gens letters."""
    total = sum(_mobius(e) * gens ** (degree // e) for e in range(1, degree + 1) if degree % e == 0)
    return total // degree


# ---------------------------------------------------------------------------
# group models for the growth lab

class Heisenberg:
    """UT(3, Z) as triples: (a, b, c)(a', b', c') = (a+a', b+b', c+c'+ab').

    Logs are triples of rationals in the coordinates (x12, x23, x13), where
    log(a, b, c) = (a, b, c - ab/2) and [u, v] = (0, 0, u1 v2 - u2 v1).
    """

    dim = 3
    one = (0, 0, 0)

    @staticmethod
    def from_rows(rows) -> tuple:
        require(all(int(x) == x for row in rows for x in row), "non-integer entry in UT(3, Z)")
        return (int(rows[0][1]), int(rows[1][2]), int(rows[0][2]))

    @staticmethod
    def from_nil_rows(rows) -> tuple:
        return (Fraction(rows[0][1]), Fraction(rows[1][2]), Fraction(rows[0][2]))

    @staticmethod
    def mul(g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    @staticmethod
    def inv(g):
        return (-g[0], -g[1], g[0] * g[1] - g[2])

    @staticmethod
    def log(g):
        return (Fraction(g[0]), Fraction(g[1]), g[2] - Fraction(g[0] * g[1], 2))

    @staticmethod
    def exp(x):
        """The group element with log x, or None when it is not integral."""
        c = x[2] + x[0] * x[1] / 2
        if any(v.denominator != 1 for v in (x[0], x[1], c)):
            return None
        return (int(x[0]), int(x[1]), int(c))

    @staticmethod
    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    @staticmethod
    def scale(u, q):
        return tuple(a * q for a in u)

    @staticmethod
    def bracket(u, v):
        return (Fraction(0), Fraction(0), u[0] * v[1] - u[1] * v[0])
