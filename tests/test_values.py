"""The value-class contract: structural equality, hashing, immutability, repr."""

import pickle
from fractions import Fraction

import pytest

from evidential import (
    And,
    Atom,
    Entails,
    Implies,
    MassFunction,
    Not,
    Or,
    ProbabilityMeasure,
    StateSpace,
    VariableValuation,
    parse,
)
from evidential.fixtures import coinflip

SPACE = StateSpace(("a", "b", "c"))
THIRDS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))


def values():
    """Two separately built copies of one value of each hashable class."""
    def build():
        space = StateSpace(("a", "b", "c"))
        return [
            Atom("p"),
            Not(Atom("p")),
            And(Atom("p"), Atom("q")),
            Or(Atom("p"), Atom("q")),
            Implies(Atom("p"), Atom("q")),
            Entails(Atom("p"), Atom("q")),
            space,
            space.subset(["a", "c"]),
            VariableValuation.constant(space, space.subset(["b"])),
            ProbabilityMeasure(space, THIRDS),
        ]
    return list(zip(build(), build()))


def test_nodes_of_different_classes_differ():
    p, q = Atom("p"), Atom("q")
    assert And(p, q) != Or(p, q)
    assert Implies(p, q) != Entails(p, q)
    assert And(p, q) != And(q, p)
    assert Not(p) != p


@pytest.mark.parametrize("pair", values(), ids=lambda pair: type(pair[0]).__name__)
def test_equal_values_hash_alike_and_survive_pickling(pair):
    first, second = pair
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert pickle.loads(pickle.dumps(first)) == first


def all_values():
    document = coinflip()
    first = [first for first, _ in values()]
    return first + [MassFunction.vacuous(SPACE), document]


@pytest.mark.parametrize("value", all_values(), ids=lambda value: type(value).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    for name in ("name", "operand", "left", "space", "states", "mask", "sets",
                 "weights", "masses", "model", "measures", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_repr_text():
    assert repr(parse("~(p & q) -> (r => s)", "extended")) == (
        "Implies(left=Not(operand=And(left=Atom(name='p'), right=Atom(name='q'))), "
        "right=Entails(left=Atom(name='r'), right=Atom(name='s')))"
    )
    assert repr(SPACE.subset(["a", "c"])) == (
        "StateSet(space=StateSpace(states=('a', 'b', 'c')), mask=5)"
    )
    assert repr(ProbabilityMeasure(SPACE, THIRDS)) == (
        "ProbabilityMeasure(space=StateSpace(states=('a', 'b', 'c')), "
        "weights=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))"
    )


def test_mass_functions_and_documents_are_unhashable():
    with pytest.raises(TypeError):
        hash(MassFunction.vacuous(SPACE))
    with pytest.raises(TypeError):
        hash(coinflip())
    assert MassFunction.vacuous(SPACE) == MassFunction.vacuous(StateSpace(("a", "b", "c")))
