"""The immutable value types: equality, hashing, immutability and repr by field."""

from fractions import Fraction

import pytest

from nilbch.algebra import AlgebraContext
from nilbch.growth import FiniteGroupSet, SumContainmentReport
from nilbch.identities import ContainmentCertificate
from nilbch.matrices import NilpotentMatrix, UnipotentMatrix
from nilbch.words import CommutatorFactor, FormalWord, GroupFactor, SymbolFactor

MAKERS = {
    "context": lambda: AlgebraContext(2, 3),
    "matrix": lambda: UnipotentMatrix([[1, 2], [0, 1]]),
    "word": lambda: FormalWord((SymbolFactor("a", 2), GroupFactor(FormalWord()))),
    "commutator": lambda: CommutatorFactor(FormalWord(), FormalWord((SymbolFactor("b"),)), -1),
    "certificate": lambda: ContainmentCertificate(1, (Fraction(1, 2),), (3,), 2, 1),
    "report": lambda: SumContainmentReport(2, 1, 1, 2, 12, 12, 25, 0, 3),
    "set": lambda: FiniteGroupSet(2, frozenset({UnipotentMatrix([[1, 2], [0, 1]])})),
}


@pytest.mark.parametrize("name", MAKERS)
def test_value_types_compare_hash_and_print_by_field(name):
    a, b = MAKERS[name](), MAKERS[name]()
    fields = type(a)._FIELDS
    values = tuple(getattr(a, f) for f in fields)
    assert a == b and a is not b
    # one getter per class; a one-field record still gives a 1-tuple
    assert type(a._values()) is tuple and a._values() == values
    assert hash(a) == hash(b) == hash(values)
    assert list(a._asdict().items()) == list(zip(fields, values))
    assert repr(a) == f"{type(a).__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)
    ) + ")"
    with pytest.raises(AttributeError):
        setattr(a, fields[0], values[0])
    with pytest.raises(AttributeError):
        a.other = 1


def test_equality_needs_the_same_type_and_fields():
    assert AlgebraContext(2, 3) != AlgebraContext(2, 4)
    assert AlgebraContext(2, 3) != AlgebraContext(2, 3, ("a", "b"))
    assert NilpotentMatrix([[0, 1], [0, 0]]).tri == UnipotentMatrix([[1, 1], [0, 1]]).tri
    assert NilpotentMatrix([[0, 1], [0, 0]]) != UnipotentMatrix([[1, 1], [0, 1]])
    assert SymbolFactor("a") == SymbolFactor("a", 1) != SymbolFactor("a", 2)
    assert FormalWord() != ()
    # the powers, logs and chain a set keeps are not compared
    a = FiniteGroupSet(2, frozenset())
    a._kept["logs"][1] = frozenset()
    assert a == FiniteGroupSet(2, frozenset())


def test_constructor_arguments():
    assert CommutatorFactor(left=FormalWord(), right=FormalWord()).exponent == 1
    with pytest.raises(TypeError):
        SymbolFactor()
    with pytest.raises(TypeError):
        SymbolFactor("a", 1, 2)
    with pytest.raises(TypeError):
        SymbolFactor("a", name="b")
