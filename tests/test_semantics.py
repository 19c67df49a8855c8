"""Pointwise interpretation and truth sets, including meaning entailment."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evidential import (
    EXTENDED,
    STRICT,
    And,
    Atom,
    Entails,
    EntailmentModeError,
    Formula,
    Implies,
    Not,
    Or,
    UnknownAtomError,
    VariableValuation,
    interpret,
    lift_event,
    truth_set,
    Model,
    bel,
    mass_from_evidence,
    parse,
    pointwise_condition,
)

from evidential.errors import UnknownStateError

import gens
import oracles


class TestCoinflipInterpretation:
    def test_impossible_statement_interprets_to_empty(self, coinflip):
        model = coinflip.model
        assert interpret(model, Atom("pbar"), "T-st") == model.space.empty()

    def test_negation_complements(self, coinflip):
        model = coinflip.model
        expected = model.space.subset(["H-acc", "H-sh"]).complement()
        assert interpret(model, Not(Atom("pbar")), "H-acc") == expected

    def test_conjunction_intersects(self, coinflip):
        model = coinflip.model
        f = And(Atom("pbar"), Atom("h"))
        assert interpret(model, f, "H-sh") == model.space.subset(["H-acc", "H-sh"])

    def test_unknown_state_named(self, coinflip):
        with pytest.raises(Exception, match="'H-zz'"):
            interpret(coinflip.model, Atom("h"), "H-zz")

    def test_unknown_atom(self, coinflip):
        with pytest.raises(UnknownAtomError):
            truth_set(coinflip.model, Atom("zz"))


class TestCoinflipTruthSets:
    def test_material_conditional(self, coinflip):
        model = coinflip.model
        f = parse("pbar -> h")
        assert truth_set(model, f) == model.space.singleton("T-sh").complement()

    def test_meaning_entailment(self, coinflip):
        model = coinflip.model
        f = parse("pbar => h")
        assert truth_set(model, f) == model.space.subset(["H-acc", "H-st", "T-acc", "T-st"])

    def test_entailment_restricted_to_evidence(self, coinflip):
        model = coinflip.model
        evidence = truth_set(model, parse("pbar"))
        assert truth_set(model, parse("pbar => h")) & evidence == model.space.subset(["H-acc"])
        assert truth_set(model, parse("pbar => a")) & evidence == model.space.empty()

    def test_impossible_states_never_true(self, coinflip):
        model = coinflip.model
        assert "T-st" not in truth_set(model, parse("pbar"))
        assert "H-st" not in truth_set(model, parse("pbar & h"))


class TestEntailmentModes:
    def test_pointwise_interpretation_forbidden_in_strict_mode(self, coinflip):
        with pytest.raises(EntailmentModeError):
            interpret(coinflip.model, Entails(Atom("pbar"), Atom("h")), "H-acc")

    def test_nested_entailment_forbidden_in_strict_mode(self, coinflip):
        nested = And(Entails(Atom("pbar"), Atom("h")), Atom("h"))
        with pytest.raises(EntailmentModeError):
            truth_set(coinflip.model, nested)

    def test_extended_mode_reads_entailment_as_constant(self, coinflip):
        model = coinflip.model
        f = Entails(Atom("pbar"), Atom("h"))
        expected = truth_set(model, f, EXTENDED)
        for state in model.space:
            assert interpret(model, f, state, EXTENDED) == expected

    def test_extended_mode_nesting(self, coinflip):
        model = coinflip.model
        nested = And(Entails(Atom("pbar"), Atom("h")), Atom("h"))
        expected = truth_set(model, Entails(Atom("pbar"), Atom("h")), EXTENDED) & truth_set(
            model, Atom("h"), EXTENDED
        )
        assert truth_set(model, nested, EXTENDED) == expected


class TestSemanticsProperties:
    @given(gens.models(), gens.formulas(), gens.formulas())
    def test_truth_set_homomorphism(self, model, f, g):
        assert truth_set(model, Not(f)) == truth_set(model, f).complement()
        assert truth_set(model, And(f, g)) == truth_set(model, f) & truth_set(model, g)

    @given(gens.models(), gens.formulas(), gens.formulas())
    def test_material_conditional_identity(self, model, f, g):
        expected = truth_set(model, f).complement() | truth_set(model, g)
        assert truth_set(model, Implies(f, g)) == expected

    @given(gens.models(), gens.formulas(), gens.formulas(), st.data())
    def test_abbreviations_expand_pointwise(self, model, f, g, data):
        state = data.draw(st.sampled_from(model.space.states))
        assert interpret(model, Or(f, g), state) == interpret(model, f, state) | interpret(model, g, state)
        assert interpret(model, Implies(f, g), state) == interpret(model, Or(Not(f), g), state)

    @given(gens.spaces(), st.data())
    def test_classical_reduction_on_constant_models(self, space, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        import random

        rng = random.Random(seed)
        model = gens.constant_model(rng, space)
        f = gens.random_formula(rng, max_depth=5)
        assignment = {
            name: frozenset(valuation.truth_set())
            for name, valuation in model.atoms.items()
        }
        expected = oracles.classical_truth_set(frozenset(space), assignment, f)
        assert frozenset(truth_set(model, f)) == expected

    @given(gens.spaces(), st.data())
    def test_constant_evidence_entailment_dichotomy(self, space, data):
        evidence_value = data.draw(gens.state_sets(space))
        event = data.draw(gens.state_sets(space))
        model = Model(
            space,
            {
                "e": VariableValuation.constant(space, evidence_value),
                "a": lift_event(space, event),
            },
        )
        result = truth_set(model, Entails(Atom("e"), Atom("a")))
        assert result == (space.full() if evidence_value <= event else space.empty())

    @given(gens.models(), gens.formulas(), gens.formulas())
    def test_strict_and_extended_agree_on_outer_entailment(self, model, f, g):
        outer = Entails(f, g)
        assert truth_set(model, outer) == truth_set(model, outer, EXTENDED)
        assert truth_set(model, f) == truth_set(model, f, EXTENDED)


def _by_definition(model):
    return frozenset(model.space), oracles.as_interps(model)


class TestDefinitionalOracle:
    """The library against :mod:`oracles`, which reads every ``=>`` as the
    constant set of its definition and shares no code with the library."""

    @given(gens.models(), gens.formulas(allow_entails=True))
    def test_extended_mode_matches_definition(self, model, f):
        universe, interps = _by_definition(model)
        expected = oracles.truth_set_by_definition(universe, interps, f)
        assert frozenset(truth_set(model, f, EXTENDED)) == expected
        for state in model.space:
            expected = oracles.interpret_by_definition(universe, interps, f, state)
            assert frozenset(interpret(model, f, state, EXTENDED)) == expected

    @given(gens.models(), gens.formulas(), gens.formulas())
    def test_strict_mode_matches_definition(self, model, f, g):
        universe, interps = _by_definition(model)
        assert frozenset(truth_set(model, f)) == oracles.truth_set_by_definition(universe, interps, f)
        for state in model.space:
            expected = oracles.interpret_by_definition(universe, interps, f, state)
            assert frozenset(interpret(model, f, state)) == expected
        outer = Entails(f, g)
        assert frozenset(truth_set(model, outer)) == oracles.truth_set_by_definition(
            universe, interps, outer
        )


P, H = Atom("pbar"), Atom("h")
MISPLACED = {
    "under negation": Not(Entails(P, H)),
    "under conjunction": And(Entails(P, H), H),
    "in the outer left operand": Entails(Entails(P, H), H),
    "in the outer right operand": Entails(H, Entails(P, H)),
}
NO_POINTWISE = "^entailment \\(=>\\) has no pointwise interpretation in strict mode$"


def _callers(coinflip):
    model, pi = coinflip.model, coinflip.measure("pi")
    return {
        "interpret": lambda f: interpret(model, f, "H-acc"),
        "bel": lambda f: bel(model, pi, f, model.space.full()),
        "mass_from_evidence": lambda f: mass_from_evidence(model, pi, f),
        "pointwise_condition evidence": lambda f: pointwise_condition(model, pi, H, f),
        "pointwise_condition of": lambda f: pointwise_condition(model, pi, f, P),
    }


class TestStrictModeErrors:
    """Hand-built ASTs bypass the parser's placement check; the evaluators
    reject them with :class:`EntailmentModeError` on their own."""

    @pytest.mark.parametrize("case", MISPLACED)
    def test_misplaced_entailment_rejected_everywhere(self, coinflip, case):
        f = MISPLACED[case]
        callers = _callers(coinflip)
        callers["truth_set"] = lambda f: truth_set(coinflip.model, f)
        for call in callers.values():
            with pytest.raises(EntailmentModeError, match=NO_POINTWISE):
                call(f)

    def test_outermost_entailment_has_no_pointwise_reading(self, coinflip):
        f = Entails(P, H)
        assert truth_set(coinflip.model, f) == coinflip.model.space.subset(
            ["H-acc", "H-st", "T-acc", "T-st"]
        )
        for name, call in _callers(coinflip).items():
            if name == "pointwise_condition of":
                continue  # only the truth set of `of` is taken
            with pytest.raises(EntailmentModeError, match=NO_POINTWISE):
                call(f)


@pytest.mark.parametrize("mode", [STRICT, EXTENDED])
def test_a_value_that_is_not_a_formula_node_is_a_type_error(coinflip, mode):
    model = coinflip.model
    for evaluate in (lambda f: truth_set(model, f, mode), lambda f: interpret(model, f, "H-acc", mode)):
        with pytest.raises(TypeError, match="^not a formula node: 'x'$"):
            evaluate(And(H, Not("x")))


@pytest.mark.parametrize("mode", [STRICT, EXTENDED])
@pytest.mark.parametrize("root", ["x", 5, None, Formula()], ids=repr)
def test_a_root_that_is_not_a_formula_node_is_a_type_error(coinflip, mode, root):
    model = coinflip.model
    for evaluate in (lambda f: truth_set(model, f, mode), lambda f: interpret(model, f, "H-acc", mode)):
        with pytest.raises(TypeError, match=f"^not a formula node: {re.escape(repr(root))}$"):
            evaluate(root)


def test_an_unhashable_state_is_an_unknown_state(coinflip):
    with pytest.raises(UnknownStateError, match=r"^unknown state: \['H-acc'\]$"):
        interpret(coinflip.model, Atom("h"), ["H-acc"])
