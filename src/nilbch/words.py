"""Formal group words: symbols, parenthesized subwords, and binary
commutators, each carrying an optional nonzero integer exponent.

Grammar (whitespace separates factors and is otherwise insignificant):

    word    := factor (factor)*
    factor  := atom ("^" int)?
    atom    := symbol | "(" word ")" | "c(" word "," word ")"
    symbol  := [a-z][a-z0-9_]*
    int     := "-"? [1-9][0-9]*

"c(" opens a commutator only when the parenthesis immediately follows the c;
"c (" is the symbol c followed by a parenthesized subword. Exponent zero is
not expressible, so parsed words never contain trivial factors; parsing also
merges adjacent equal atoms, making parse-then-serialize a canonical form.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Union

from .errors import UnboundSymbolError, WordSyntaxError
from .record import Record

Factor = Union["SymbolFactor", "GroupFactor", "CommutatorFactor"]


class SymbolFactor(Record):
    __slots__ = ("name", "exponent")
    _DEFAULTS = {"exponent": 1}

    def _atom_key(self):
        return ("sym", self.name)


class GroupFactor(Record):
    __slots__ = ("inner", "exponent")
    _DEFAULTS = {"exponent": 1}

    def _atom_key(self):
        return ("grp", self.inner)


class CommutatorFactor(Record):
    __slots__ = ("left", "right", "exponent")
    _DEFAULTS = {"exponent": 1}

    def _atom_key(self):
        return ("com", self.left, self.right)


class FormalWord(Record):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Factor, ...] = ()):
        object.__setattr__(self, "factors", factors)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.factors,))

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return serialize(self)


def _with_exponent(factor: Factor, exponent: int) -> Factor:
    if isinstance(factor, SymbolFactor):
        return SymbolFactor(factor.name, exponent)
    if isinstance(factor, GroupFactor):
        return GroupFactor(factor.inner, exponent)
    return CommutatorFactor(factor.left, factor.right, exponent)


def make_word(factors: Iterable[Factor]) -> FormalWord:
    """Build a word in canonical form: drop zero exponents and merge runs of
    equal atoms (cascading, so cancellations can expose further merges)."""
    stack: list[Factor] = []
    for f in factors:
        if f.exponent == 0:
            continue
        while stack and stack[-1]._atom_key() == f._atom_key():
            prev = stack.pop()
            e = prev.exponent + f.exponent
            if e == 0:
                f = None
                break
            f = _with_exponent(f, e)
        if f is not None:
            stack.append(f)
    return FormalWord(tuple(stack))


def word_length(word: FormalWord) -> int:
    """Letter count of the fully expanded word; a commutator c(u, v) expands
    to u v u' v' and so contributes twice the lengths of both arguments."""
    total = 0
    for f in word.factors:
        k = abs(f.exponent)
        if isinstance(f, SymbolFactor):
            total += k
        elif isinstance(f, GroupFactor):
            total += k * word_length(f.inner)
        else:
            total += k * 2 * (word_length(f.left) + word_length(f.right))
    return total


def symbols_of(word: FormalWord) -> set[str]:
    out: set[str] = set()
    for f in word.factors:
        if isinstance(f, SymbolFactor):
            out.add(f.name)
        elif isinstance(f, GroupFactor):
            out |= symbols_of(f.inner)
        else:
            out |= symbols_of(f.left) | symbols_of(f.right)
    return out


# ---------------------------------------------------------------------------
# serialization

def _serialize_factor(f: Factor) -> str:
    if isinstance(f, SymbolFactor):
        body = f.name
    elif isinstance(f, GroupFactor):
        body = f"({serialize(f.inner)})"
    else:
        body = f"c({serialize(f.left)}, {serialize(f.right)})"
    if f.exponent == 1:
        return body
    return f"{body}^{f.exponent}"


def serialize(word: FormalWord) -> str:
    return " ".join(_serialize_factor(f) for f in word.factors)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<cstart>c\()
  | (?P<symbol>[a-z][a-z0-9_]*)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<caret>\^)
  | (?P<int>-?[1-9][0-9]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(0), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)

    def take(self, kind: str, what: str) -> tuple[str, str, int]:
        if self.peek() != kind:
            raise WordSyntaxError(f"expected {what}", self.pos())
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_word(self, stop: tuple[str, ...]) -> FormalWord:
        factors = []
        while self.peek() is not None and self.peek() not in stop:
            factors.append(self.parse_factor())
        if not factors:
            raise WordSyntaxError("expected a factor", self.pos())
        return make_word(factors)

    def parse_factor(self) -> Factor:
        kind = self.peek()
        if kind == "symbol":
            _, name, _ = self.take("symbol", "symbol")
            atom: Factor = SymbolFactor(name)
        elif kind == "lparen":
            self.take("lparen", "'('")
            inner = self.parse_word(stop=("rparen",))
            self.take("rparen", "')'")
            atom = GroupFactor(inner)
        elif kind == "cstart":
            self.take("cstart", "'c('")
            left = self.parse_word(stop=("comma",))
            self.take("comma", "','")
            right = self.parse_word(stop=("rparen",))
            self.take("rparen", "')'")
            atom = CommutatorFactor(left, right)
        else:
            raise WordSyntaxError("expected a symbol, '(' or 'c('", self.pos())
        if self.peek() == "caret":
            self.take("caret", "'^'")
            _, digits, _ = self.take("int", "an integer exponent")
            atom = _with_exponent(atom, int(digits))
        return atom


def parse(text: str) -> FormalWord:
    """Parse word text into canonical form."""
    parser = _Parser(text)
    word = parser.parse_word(stop=())
    if parser.peek() is not None:
        raise WordSyntaxError("trailing input", parser.pos())
    return word


# ---------------------------------------------------------------------------
# evaluation

class GroupOps:
    """The operations needed to evaluate a word in some group realization.

    power(g, k) is the realization's own integer power. commutator defaults
    to the literal g h g' h' chain; a realization with an exact shortcut may
    pass its own.
    """

    __slots__ = ("identity", "mul", "inverse", "_power", "_commutator")

    def __init__(
        self,
        identity,
        mul: Callable,
        inverse: Callable,
        power: Callable,
        commutator: Callable | None = None,
    ):
        self.identity = identity
        self.mul = mul
        self.inverse = inverse
        self._power = power
        self._commutator = commutator

    def power(self, g, k: int):
        return self._power(g, k)

    def commutator(self, g, h):
        if self._commutator is not None:
            return self._commutator(g, h)
        return self.mul(self.mul(g, h), self.mul(self.inverse(g), self.inverse(h)))


def evaluate_word(word: FormalWord, env: dict, ops: GroupOps):
    """Evaluate a word over an environment mapping symbols to group values."""
    out = ops.identity
    for f in word.factors:
        if isinstance(f, SymbolFactor):
            if f.name not in env:
                raise UnboundSymbolError(f.name)
            base = env[f.name]
        elif isinstance(f, GroupFactor):
            base = evaluate_word(f.inner, env, ops)
        else:
            base = ops.commutator(
                evaluate_word(f.left, env, ops), evaluate_word(f.right, env, ops)
            )
        out = ops.mul(out, ops.power(base, f.exponent))
    return out


def random_word(rng, symbols: tuple[str, ...], max_factors: int = 5, depth: int = 2) -> FormalWord:
    """Random canonical word for round-trip testing."""
    n = rng.randint(1, max_factors)
    factors = []
    for _ in range(n):
        kind = rng.random()
        if depth > 0 and kind < 0.2:
            atom: Factor = GroupFactor(random_word(rng, symbols, max_factors, depth - 1))
        elif depth > 0 and kind < 0.45:
            atom = CommutatorFactor(
                random_word(rng, symbols, max_factors, depth - 1),
                random_word(rng, symbols, max_factors, depth - 1),
            )
        else:
            atom = SymbolFactor(rng.choice(symbols))
        e = rng.randint(-4, 4)
        if e == 0:
            e = 1
        factors.append(_with_exponent(atom, e))
    word = make_word(factors)
    if not word.factors:
        return FormalWord((SymbolFactor(rng.choice(symbols)),))
    return word
