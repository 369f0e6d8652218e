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

Evaluation compiles a word once, on first use, into a flat straight-line
program. Each distinct subword is evaluated once per call, so a
realization's operations must be pure, and power is never called at
exponent 1.
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


class GroupFactor(Record):
    __slots__ = ("inner", "exponent")
    _DEFAULTS = {"exponent": 1}


class CommutatorFactor(Record):
    __slots__ = ("left", "right", "exponent")
    _DEFAULTS = {"exponent": 1}


class FormalWord(Record):
    # _program: the compiled form `evaluate_word` keeps, not a field
    __slots__ = ("factors", "_program")
    _DEFAULTS = {"factors": ()}

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return serialize(self)


def _atom(f: Factor) -> tuple:
    """A factor's type and fields but the last, which is every factor's exponent."""
    return (f.__class__, *f._values()[:-1])


def _with_exponent(factor: Factor, exponent: int) -> Factor:
    return type(factor)(*factor._values()[:-1], exponent)


def make_word(factors: Iterable[Factor]) -> FormalWord:
    """Build a word in canonical form: drop zero exponents and merge runs of
    equal atoms (cascading, so cancellations can expose further merges)."""
    stack: list[Factor] = []
    for f in factors:
        if f.exponent == 0:
            continue
        # no two equal atoms sit side by side on the stack: f merges at most once
        if stack and _atom(stack[-1]) == _atom(f):
            e = stack.pop().exponent + f.exponent
            if e == 0:
                continue
            f = _with_exponent(f, e)
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
    """The operations needed to evaluate a word in some group realization:
    plain slots, read directly by `evaluate_word` on every call.

    power(g, k) is the realization's own integer power, inverses included,
    and commutator(g, h) its own g h g^-1 h^-1. A realization on another representation (matrix
    triangles) passes enter and leave, applied once per env value and once
    per result.

    Each distinct subword is evaluated once per call and its value reused
    wherever the subword recurs, so the operations must be pure; power is
    never called at exponent 1.
    """

    __slots__ = ("identity", "mul", "_power", "commutator", "enter", "leave")

    def __init__(
        self,
        identity,
        mul: Callable,
        power: Callable,
        commutator: Callable,
        enter: Callable | None = None,
        leave: Callable | None = None,
    ):
        self.identity = identity
        self.mul = mul
        self._power = power
        self.commutator = commutator
        self.enter = enter
        self.leave = leave


# the kinds of a compiled word's steps
_SYMBOL, _COMMUTATOR, _POWER, _MUL, _IDENTITY = range(5)

# the slot's own setter: the way past Record's refusal to assign
_set_program = FormalWord._program.__set__


def evaluate_word(word: FormalWord, env: dict, ops: GroupOps):
    """Evaluate a word over an environment mapping symbols to group values.

    The word is compiled on first use into a straight-line program, kept on
    the word, that evaluates each distinct subword and each distinct power
    once and calls no power at exponent 1."""
    try:
        program = word._program
    except AttributeError:
        program = _compile(word)
        _set_program(word, program)
    if ops.enter is None:
        return _run(program, env, ops)
    env = {name: ops.enter(g) for name, g in env.items()}
    return ops.leave(_run(program, env, ops))


def _compile(word: FormalWord) -> tuple:
    """The steps (kind, x, y) that evaluate `word`, each appending one value
    to a register list, and the register of the word's value.

    A step is emitted once and its register reused wherever the same step
    recurs, so equal subwords share one register; the keys are steps over
    register numbers, flat and cheap to hash, where the subwords themselves
    would be hashed down their whole depth. Steps follow the order in which
    a left-to-right recursive walk meets each one first, so an unbound
    symbol is reported where that walk would meet it."""
    steps: list[tuple] = []
    registers: dict[tuple, int] = {}

    def emit(step: tuple) -> int:
        if step not in registers:
            registers[step] = len(steps)
            steps.append(step)
        return registers[step]

    def subword(w: FormalWord) -> int:
        out = None
        for f in w.factors:
            if isinstance(f, SymbolFactor):
                g = emit((_SYMBOL, f.name, None))
            elif isinstance(f, GroupFactor):
                g = subword(f.inner)
            else:
                g = emit((_COMMUTATOR, subword(f.left), subword(f.right)))
            if f.exponent != 1:
                g = emit((_POWER, g, f.exponent))
            out = g if out is None else emit((_MUL, out, g))
        return emit((_IDENTITY, None, None)) if out is None else out

    result = subword(word)
    return tuple(steps), result


def _run(program: tuple, env: dict, ops: GroupOps):
    steps, result = program
    mul, power, commutator = ops.mul, ops._power, ops.commutator
    values: list = []
    push = values.append
    for kind, x, y in steps:
        if kind == _MUL:
            push(mul(values[x], values[y]))
        elif kind == _COMMUTATOR:
            push(commutator(values[x], values[y]))
        elif kind == _POWER:
            push(power(values[x], y))
        elif kind == _SYMBOL:
            if x not in env:
                raise UnboundSymbolError(x)
            push(env[x])
        else:
            push(ops.identity)
    return values[result]


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
        factors.append(_with_exponent(atom, rng.randint(-4, 4) or 1))
    word = make_word(factors)
    if not word.factors:
        return FormalWord((SymbolFactor(rng.choice(symbols)),))
    return word
