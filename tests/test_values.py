"""The value-class contract: structural equality, hashing, pickling, immutability, repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from evidential import (
    And,
    Atom,
    Entails,
    Implies,
    MassFunction,
    Model,
    ModelDocument,
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
    """Two separately built copies of one value of each hashable class; then a
    conditioned measure, which keeps int numerators and derives its Fractions
    on each read, with the measure built from those Fractions."""
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
    conditioned = ProbabilityMeasure(SPACE, THIRDS).condition(SPACE.subset(["a", "b"]))
    posterior = ProbabilityMeasure(StateSpace(("a", "b", "c")), (Fraction(3, 5), Fraction(2, 5), 0))
    return list(zip(build(), build())) + [(conditioned, posterior)]


def names(values):
    """Each value's class name, numbered from its class's second value on."""
    seen = {}
    for value in values:
        kind = type(value).__name__
        seen[kind] = seen.get(kind, 0) + 1
        yield kind if seen[kind] == 1 else f"{kind}-{seen[kind]}"


def test_nodes_of_different_classes_differ():
    p, q = Atom("p"), Atom("q")
    assert And(p, q) != Or(p, q)
    assert Implies(p, q) != Entails(p, q)
    assert And(p, q) != And(q, p)
    assert Not(p) != p


@pytest.mark.parametrize("pair", values(), ids=list(names(first for first, _ in values())))
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
    return first + [MassFunction.vacuous(SPACE), document.model, document]


@pytest.mark.parametrize("value", all_values(), ids=list(names(all_values())))
def test_fields_cannot_be_assigned_or_deleted(value):
    for name in ("name", "operand", "left", "space", "states", "mask", "sets", "truth_mask",
                 "weights", "masses", "atoms", "model", "measures", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("index", range(len(all_values())), ids=list(names(all_values())))
def test_every_slot_is_set_when_a_value_is_built(index):
    value = all_values()[index]  # built here, so that no earlier read has filled a slot
    for cls in type(value).__mro__:
        for name in cls.__dict__.get("__slots__", ()):
            assert getattr(value, name, None) is not None, f"{cls.__name__}.{name}"


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


def test_mass_functions_models_and_documents_are_unhashable():
    with pytest.raises(TypeError):
        hash(MassFunction.vacuous(SPACE))
    with pytest.raises(TypeError):
        hash(coinflip().model)
    with pytest.raises(TypeError):
        hash(coinflip())
    assert MassFunction.vacuous(SPACE) == MassFunction.vacuous(StateSpace(("a", "b", "c")))


def model():
    space = StateSpace(("a", "b", "c"))
    return Model(space, {"p": VariableValuation.constant(space, space.subset(["b"]))})


def test_models_and_documents_are_equal_by_their_fields():
    assert model() == model()
    assert coinflip() == coinflip()
    assert coinflip().model == coinflip().model
    for value in (model(), coinflip().model, coinflip()):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
    assert model() != Model(SPACE, {})


def test_models_and_documents_hold_read_only_copies():
    document = coinflip()
    with pytest.raises(TypeError):
        document.measures["pi"] = document.measure("piPrime")
    with pytest.raises(TypeError):
        document.model.atoms["p"] = document.model.valuation("h")
    measures = {"pi": document.measure("pi")}
    built = ModelDocument(document.model, measures)
    measures["pi"] = document.measure("piPrime")
    assert dict(built.measures) == {"pi": document.measure("pi")}
