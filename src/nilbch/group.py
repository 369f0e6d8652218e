"""The divisible nilpotent group carried by a free nilpotent Lie algebra.

Group elements are stored by their logarithms; multiplication is the
truncated Baker-Campbell-Hausdorff composition, so exp and log are exact
bijections by construction and every rational power exists.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from . import words as wordmod
from .algebra import (
    AlgebraContext,
    BracketPattern,
    LieElement,
    as_fraction,
    check_pattern,
    rightnormed_fold,
)
from .bch import bch, conjugation_log
from .errors import ContextMismatchError
from .words import FormalWord, GroupOps


class GroupElement:
    """An element exp(x) of the step-truncated group, stored as x."""

    __slots__ = ("log",)

    def __init__(self, log: LieElement):
        self.log = log

    @property
    def ctx(self) -> AlgebraContext:
        return self.log.ctx

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.log == other.log

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"exp({self.log})"


def identity(ctx: AlgebraContext) -> GroupElement:
    return GroupElement(LieElement.zero(ctx))


def exp(x: LieElement) -> GroupElement:
    return GroupElement(x)


def log(g: GroupElement) -> LieElement:
    return g.log


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    return GroupElement(bch(g.log, h.log))


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(-g.log)


def rational_power(g: GroupElement, e) -> GroupElement:
    """g**e for any rational e; integer exponents agree with repeated mul."""
    return GroupElement(g.log * as_fraction(e))


def conjugate(g: GroupElement, h: GroupElement) -> GroupElement:
    """g h g^-1, via the exponential of ad applied to the log of h."""
    return GroupElement(conjugation_log(g.log, h.log))


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """g h g^-1 h^-1, computed as (g h g^-1) h^-1 to spend one composition
    on the conjugation series instead of three."""
    return mul(conjugate(g, h), inverse(h))


def nested_commutator(
    pattern: BracketPattern, args: Sequence[GroupElement]
) -> GroupElement:
    """Right-nested group commutator selected by a 1-based index pattern:
    c(a_1, c(a_2, ... c(a_{j-1}, a_j))). Arity-1 patterns give the element."""
    check_pattern(pattern, len(args))
    return rightnormed_fold(pattern, args, commutator, {})


def group_ops(ctx: AlgebraContext) -> GroupOps:
    # exact shortcuts: scalar log powers and the conjugation series
    return GroupOps(identity(ctx), mul, rational_power, commutator)


def evaluate_word(
    word: FormalWord, env: Mapping[str, GroupElement], ctx: AlgebraContext | None = None
) -> GroupElement:
    """Evaluate a formal word over an environment of group elements."""
    if ctx is None:
        try:
            ctx = next(iter(env.values())).ctx
        except StopIteration:
            raise ValueError("empty environment needs an explicit context") from None
    for g in env.values():
        if g.ctx != ctx:
            raise ContextMismatchError("environment mixes algebra contexts")
    return wordmod.evaluate_word(word, dict(env), group_ops(ctx))
