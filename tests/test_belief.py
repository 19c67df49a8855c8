"""Measures, conditioning, evidential belief, mass functions, combination."""

import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evidential import (
    EXTENDED,
    And,
    Atom,
    EntailmentModeError,
    Entails,
    Implies,
    MassFunction,
    Model,
    ModelError,
    Not,
    Or,
    ProbabilityMeasure,
    StateSet,
    StateSpace,
    TotalConflictError,
    UndefinedConditioningError,
    VariableValuation,
    bel,
    degree,
    degree_given,
    dempster_combine,
    lift_event,
    mass_from_evidence,
    parse,
    pointwise_combine,
    pointwise_condition,
    truth_set,
)

import gens
import oracles
from test_document import digit_limit

PBAR = Atom("pbar")
H = Atom("h")
A = Atom("a")


class TestProbabilityMeasure:
    def test_fixture_measures_are_valid(self, coinflip):
        pi = coinflip.measure("pi")
        assert pi.of_state("H-acc") == Fraction(3, 10)
        prime = coinflip.measure("piPrime")
        assert prime.of_state("T-acc") == Fraction(1, 2)

    def test_sum_must_be_one(self):
        space = StateSpace(("a", "b"))
        with pytest.raises(ModelError, match="sum to 1"):
            ProbabilityMeasure.from_weights(space, {"a": Fraction(1, 2), "b": Fraction(2, 5)})

    def test_negative_weight_rejected(self):
        space = StateSpace(("a", "b"))
        with pytest.raises(ModelError, match="negative"):
            ProbabilityMeasure.from_weights(space, {"a": Fraction(3, 2), "b": Fraction(-1, 2)})

    def test_a_shared_negative_weight_is_named_at_its_first_state(self):
        # One weight object at two states is converted and checked once; the
        # message still names the first state, in state order, that holds it.
        space = StateSpace(("a", "b", "c", "d"))
        negative, positive = Fraction(-1, 4), Fraction(3, 4)
        for weights, state in [((positive, negative, positive, negative), "b"),
                               ((negative, positive, negative, Fraction(1)), "a"),
                               (("1/2", "-1/4", "3/4", "-1/4"), "b")]:
            with pytest.raises(ModelError, match=f"^negative weight -1/4 for state '{state}'$"):
                ProbabilityMeasure(space, weights)

    def test_missing_state_rejected(self):
        space = StateSpace(("a", "b"))
        with pytest.raises(ModelError, match="'b'"):
            ProbabilityMeasure.from_weights(space, {"a": Fraction(1)})

    def test_float_weights_rejected(self):
        space = StateSpace(("a", "b"))
        with pytest.raises(ModelError, match="float"):
            ProbabilityMeasure.from_weights(space, {"a": 0.5, "b": 0.5})
        # A float after an equal Fraction is still a float.
        with pytest.raises(ModelError, match=r"^weights must be exact rationals, got float 0\.5$"):
            ProbabilityMeasure.from_weights(space, {"a": Fraction(1, 2), "b": 0.5})

    @pytest.mark.parametrize("weights, shown", [
        (["abc", "1"], "'abc'"),         # not a rational literal: ValueError inside Fraction
        ([None, 1], "None"),             # not a number at all: TypeError
        (["1/0", 1], "'1/0'"),           # a zero denominator: ZeroDivisionError
    ], ids=["bad-literal", "none", "zero-denominator"])
    def test_weights_that_are_not_rationals_raise_model_error(self, weights, shown):
        space = StateSpace(("a", "b"))
        with pytest.raises(ModelError, match=f"^weights must be exact rationals, got {shown}$"):
            ProbabilityMeasure(space, weights)

    def test_negative_weight_past_the_digit_limit(self):
        space = StateSpace(("a", "b"))
        message = ("negative weight one whose numerals exceed the integer digit limit "
                   "for state 'b'")
        with pytest.raises(ModelError, match="^" + message + "$"):
            ProbabilityMeasure(space, (Fraction(1), Fraction(-1, 10 ** digit_limit())))

    def test_one_weight_per_state_required(self):
        with pytest.raises(ModelError, match="^measure must weight all 2 states, got 1$"):
            ProbabilityMeasure(StateSpace(("a", "b")), ["1"])

    @pytest.mark.parametrize("method", ["of", "condition"])
    def test_event_over_another_space_rejected(self, method):
        measure = ProbabilityMeasure(StateSpace(("a", "b")), ["1/2", "1/2"])
        with pytest.raises(ModelError, match="^event is over a different state space$"):
            getattr(measure, method)(StateSpace(("a", "c")).full())

    def test_event_probability(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        assert pi.of(model.atom_truth_set("h")) == Fraction(1, 2)
        assert pi.of(model.space.empty()) == 0
        assert pi.of(model.atom_truth_set("a")) == Fraction(3, 5)


class TestIntWeights:
    """A measure keeps int numerators over one denominator; every value it
    gives must equal the Fraction sums over its weights."""

    @given(gens.measures(), st.data())
    def test_of_and_condition_match_the_oracle(self, measure, data):
        space = measure.space
        event, other = data.draw(gens.state_sets(space)), data.draw(gens.state_sets(space))
        weights = dict(measure.items())
        probability = oracles.event_probability(weights, frozenset(event))
        assert measure.of(event) == probability
        if probability == 0:
            with pytest.raises(UndefinedConditioningError):
                measure.condition(event)
            return
        posterior = measure.condition(event)
        expected = tuple(weights[s] / probability if s in event else Fraction(0) for s in space)
        assert posterior.weights == expected
        assert dict(posterior.items()) == dict(zip(space.states, expected))
        assert posterior == ProbabilityMeasure(space, expected)
        assert hash(posterior) == hash(ProbabilityMeasure(space, expected))
        inside = oracles.event_probability(weights, frozenset(event) & frozenset(other))
        assert posterior.of(other) == inside / probability
        assert [posterior.of_state(s) for s in space] == list(expected)

    def test_distinct_prime_denominators(self):
        """64 weights over distinct primes, and a last weight over their
        product: a common denominator of about 170 digits."""
        primes = [p for p in range(101, 500) if all(p % d for d in range(2, 23))][:64]
        assert len(primes) == 64
        weights = [Fraction(1, p) for p in primes]
        weights.append(1 - sum(weights))
        space = StateSpace(tuple(f"s{i}" for i in range(len(weights))))
        measure = ProbabilityMeasure(space, weights)
        rng = random.Random(64)
        for _ in range(50):
            event, other = gens.random_set(rng, space), gens.random_set(rng, space)
            probability = sum((weights[i] for i in event.indices()), Fraction(0))
            assert measure.of(event) == probability
            if probability == 0:
                continue
            posterior = measure.condition(event)
            assert posterior.weights == tuple(
                w / probability if event.mask >> i & 1 else Fraction(0) for i, w in enumerate(weights))
            inside = sum((weights[i] for i in (event & other).indices()), Fraction(0))
            assert posterior.of(other) == inside / probability


class TestConditioning:
    def test_posterior_after_hearing_heads(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        posterior = pi.condition(model.atom_truth_set("pbar"))
        assert dict(posterior.items()) == {
            "H-acc": Fraction(3, 5),
            "H-sh": Fraction(1, 5),
            "H-st": Fraction(0),
            "T-acc": Fraction(0),
            "T-sh": Fraction(1, 5),
            "T-st": Fraction(0),
        }

    def test_posterior_under_trusting_prior(self, coinflip):
        model, prime = coinflip.model, coinflip.measure("piPrime")
        posterior = prime.condition(model.atom_truth_set("pbar"))
        expected = {name: Fraction(0) for name in model.space}
        expected["H-acc"] = Fraction(1)
        assert dict(posterior.items()) == expected

    def test_conditioning_on_sure_event_is_identity(self, coinflip):
        pi = coinflip.measure("pi")
        assert pi.condition(coinflip.model.space.full()) == pi

    def test_zero_probability_conditioning_undefined(self, coinflip):
        pi = coinflip.measure("pi")
        with pytest.raises(UndefinedConditioningError):
            pi.condition(coinflip.model.space.empty())


class TestDegrees:
    def test_conditional_degrees(self, coinflip):
        model = coinflip.model
        pi, prime = coinflip.measure("pi"), coinflip.measure("piPrime")
        assert degree_given(model, pi, H, PBAR) == Fraction(4, 5)
        assert degree_given(model, prime, H, PBAR) == 1
        assert degree_given(model, pi, A, PBAR) == Fraction(3, 5)

    def test_unconditional_degrees(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        assert degree(model, pi, H) == Fraction(1, 2)
        assert degree(model, pi, A) == Fraction(3, 5)

    def test_zero_probability_evidence(self, coinflip):
        model, prime = coinflip.model, coinflip.measure("piPrime")
        with pytest.raises(UndefinedConditioningError):
            degree_given(model, prime, H, parse("pbar & ~pbar"))


class TestEvidentialBelief:
    def test_skeptical_prior(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        assert bel(model, pi, PBAR, model.atom_truth_set("h")) == Fraction(3, 5)
        assert bel(model, pi, PBAR, model.atom_truth_set("a")) == 0

    def test_trusting_prior(self, coinflip):
        model, prime = coinflip.model, coinflip.measure("piPrime")
        assert bel(model, prime, PBAR, model.atom_truth_set("h")) == 1
        assert bel(model, prime, PBAR, model.atom_truth_set("a")) == 0

    def test_zero_probability_evidence_undefined(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        with pytest.raises(UndefinedConditioningError):
            bel(model, pi, parse("pbar & ~pbar"), model.space.full())

    def test_non_factivity(self, coinflip):
        """Full belief in an event strictly stronger than the evidence's truth set."""
        model, prime = coinflip.model, coinflip.measure("piPrime")
        h_set = model.atom_truth_set("h")
        assert bel(model, prime, PBAR, h_set) == 1
        assert not model.atom_truth_set("pbar") <= h_set

    def test_maximal_gap_below_conditional_probability(self, coinflip):
        model, prime = coinflip.model, coinflip.measure("piPrime")
        gap = degree_given(model, prime, A, PBAR) - bel(model, prime, PBAR, model.atom_truth_set("a"))
        assert gap == 1

    def test_zero_probability_wins_over_strict_entailment(self, coinflip):
        """Strict outermost `=>` evidence has no pointwise reading, but when its
        truth set has prior probability zero the conditioning error comes first."""
        model = coinflip.model
        weights = {name: Fraction(0) for name in model.space}
        weights.update({"H-sh": Fraction(1, 2), "T-sh": Fraction(1, 2)})
        shaky = ProbabilityMeasure.from_weights(model.space, weights)
        evidence = Entails(PBAR, H)
        message = "^evidence pbar => h has probability zero; belief is undefined$"
        with pytest.raises(UndefinedConditioningError, match=message):
            bel(model, shaky, evidence, model.space.full())
        with pytest.raises(UndefinedConditioningError, match=message):
            mass_from_evidence(model, shaky, evidence)
        for pair in ((evidence, H), (H, evidence), (evidence, evidence)):
            with pytest.raises(EntailmentModeError, match="no pointwise interpretation"):
                pointwise_combine(model, shaky, *pair)
        pi = coinflip.measure("pi")
        with pytest.raises(EntailmentModeError, match="no pointwise interpretation"):
            bel(model, pi, evidence, model.space.full())
        with pytest.raises(EntailmentModeError, match="no pointwise interpretation"):
            mass_from_evidence(model, pi, evidence)

    @given(gens.spaces(), st.data())
    def test_constant_evidence_ignores_the_prior(self, space, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        evidence_value = gens.random_set(rng, space)
        event = gens.random_set(rng, space)
        measure = gens.random_measure(rng, space)
        if measure.of(evidence_value) == 0:
            return
        model = Model(space, {"e": lift_event(space, evidence_value)})
        result = bel(model, measure, Atom("e"), event)
        assert result == (1 if evidence_value <= event else 0)


class TestMassFromEvidence:
    def test_skeptical_prior_masses(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        mass = mass_from_evidence(model, pi, PBAR)
        assert dict(mass.items()) == {
            model.space.subset(["H-acc", "H-sh"]): Fraction(3, 5),
            model.space.subset(["H-acc", "H-sh", "T-sh"]): Fraction(2, 5),
        }
        expected = oracles.mass_by_preimage(
            oracles.as_weights(pi), oracles.as_interp(model.valuation("pbar"))
        )
        assert oracles.as_mass_dict(mass) == expected

    def test_trusting_prior_masses(self, coinflip):
        model, prime = coinflip.model, coinflip.measure("piPrime")
        mass = mass_from_evidence(model, prime, PBAR)
        assert dict(mass.items()) == {
            model.space.subset(["H-acc", "H-sh"]): Fraction(1),
        }

    def test_constant_evidence_masses(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        mass = mass_from_evidence(model, pi, H)
        assert dict(mass.items()) == {model.atom_truth_set("h"): Fraction(1)}

    def test_belief_from_mass_matches_direct_belief(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        mass = mass_from_evidence(model, pi, PBAR)
        assert mass.belief(model.atom_truth_set("h")) == Fraction(3, 5)

    def test_vacuous_mass_beliefs(self, coinflip):
        space = coinflip.model.space
        vacuous = MassFunction.vacuous(space)
        assert vacuous.belief(space.full()) == 1
        assert vacuous.belief(space.subset(["H-acc"])) == 0

    def test_belief_in_everything_is_one(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        for evidence in (PBAR, H, parse("pbar | a")):
            mass = mass_from_evidence(model, pi, evidence)
            assert mass.belief(model.space.full()) == 1


class TestMassFunctionValidation:
    def setup_method(self):
        self.space = StateSpace(("a", "b"))

    def test_entry_over_another_space_rejected(self):
        with pytest.raises(ModelError, match="^mass entry is over a different state space$"):
            MassFunction(self.space, {StateSpace(("a", "c")).full(): Fraction(1)})

    def test_empty_set_cannot_carry_mass(self):
        with pytest.raises(ModelError, match="empty"):
            MassFunction(self.space, {self.space.empty(): Fraction(1)})

    def test_masses_must_be_positive(self):
        with pytest.raises(ModelError, match="positive"):
            MassFunction(
                self.space,
                {self.space.full(): Fraction(3, 2), self.space.subset(["a"]): Fraction(-1, 2)},
            )

    def test_zero_entries_are_dropped(self):
        sparse = MassFunction(
            self.space,
            {self.space.full(): Fraction(1), self.space.subset(["a"]): Fraction(0)},
        )
        assert sparse == MassFunction.vacuous(self.space)
        assert len(sparse.items()) == 1

    def test_mass_that_is_not_a_rational_raises_model_error(self):
        with pytest.raises(ModelError, match="^weights must be exact rationals, got 'x'$"):
            MassFunction(self.space, {self.space.full(): "x"})

    def test_key_that_is_not_a_state_set_raises_model_error(self):
        with pytest.raises(ModelError, match="^mass entries must be keyed by StateSet, got 'a'$"):
            MassFunction(self.space, {"a": 1})

    def test_sum_past_the_digit_limit(self):
        # Two masses within the limit whose sum has twice their digits.
        digits = digit_limit() * 3 // 4
        masses = {self.space.subset(["a"]): Fraction(1, 10 ** digits),
                  self.space.subset(["b"]): Fraction(1, 3 * 10 ** (digits - 1) + 7)}
        message = "^masses must sum to 1, got a sum whose numerals exceed the integer digit limit$"
        with pytest.raises(ModelError, match=message):
            MassFunction(self.space, masses)

    def test_masses_must_sum_to_one(self):
        with pytest.raises(ModelError, match="sum to 1"):
            MassFunction(self.space, {self.space.full(): Fraction(1, 2)})

    def test_structural_equality(self):
        m1 = MassFunction(self.space, {self.space.full(): Fraction(1)})
        m2 = MassFunction.vacuous(self.space)
        assert m1 == m2


class Marked(StateSet):
    """A subclass, whose values equal no plain StateSet."""

    __slots__ = ()


class TestIntMasses:
    """A mass function keeps int numerators by focal-set mask over one
    denominator; the StateSet-to-Fraction view is derived on each read."""

    @given(gens.spaces(), st.data())
    def test_numerators_and_belief_match_the_oracles(self, space, data):
        model, measure = data.draw(gens.models(space)), data.draw(gens.measures(space))
        evidence = data.draw(gens.formulas(max_leaves=6))
        universe, interps = frozenset(space), oracles.as_interps(model)
        interp = {x: oracles.interpret_by_definition(universe, interps, evidence, x) for x in space}
        weights = oracles.as_weights(measure)
        if oracles.event_probability(weights, oracles.truth_set_by_membership(interp)) == 0:
            return
        mass = mass_from_evidence(model, measure, evidence)
        assert all(n > 0 for n in mass.numerators.values())
        assert all(mask != 0 for mask in mass.numerators)
        assert sum(mass.numerators.values()) == mass.denominator
        event = data.draw(gens.state_sets(space))
        assert mass.belief(event) == oracles.bel_by_definition(weights, interp, frozenset(event))
        assert oracles.as_mass_dict(mass) == oracles.mass_by_preimage(weights, interp)

    def from_evidence(self, coinflip, evidence=PBAR):
        return mass_from_evidence(coinflip.model, coinflip.measure("pi"), evidence)

    @pytest.mark.parametrize("evidence", [PBAR, H, parse("pbar | a")], ids=str)
    def test_evidence_built_mass_equals_a_publicly_built_mass(self, coinflip, evidence):
        space = coinflip.model.space
        public = MassFunction(space, dict(self.from_evidence(coinflip, evidence).masses))
        assert self.from_evidence(coinflip, evidence) == public
        assert public == self.from_evidence(coinflip, evidence)
        assert repr(self.from_evidence(coinflip, evidence)) == repr(public)
        assert self.from_evidence(coinflip, evidence).items() == public.items()
        for event in space.powerset():
            assert self.from_evidence(coinflip, evidence).of(event) == public.of(event)
            assert self.from_evidence(coinflip, evidence).belief(event) == public.belief(event)

    def test_event_over_another_space(self, coinflip):
        other = StateSpace(coinflip.model.space.states)  # equal to the mass's space
        stranger = StateSpace(("x", "y"))
        public = MassFunction(coinflip.model.space, dict(self.from_evidence(coinflip).masses))
        for mass in (self.from_evidence(coinflip), public):
            focal = StateSet(coinflip.model.space, max(mass.numerators))
            assert mass.of(StateSet(other, focal.mask)) == mass.of(focal) != 0
            assert mass.of(stranger.full()) == 0
            assert isinstance(mass.of(stranger.full()), Fraction)
            assert mass.of(Marked(focal.space, focal.mask)) == 0
            assert isinstance(mass.of(Marked(focal.space, focal.mask)), Fraction)
            assert mass.of("H-acc") == 0
            with pytest.raises(TypeError):
                mass.of(["H-acc"])
            with pytest.raises(ModelError, match="^state sets belong to different state spaces$"):
                mass.belief(stranger.full())
            assert mass.belief(other.full()) == 1

    def test_views_are_derived_on_each_read(self, coinflip):
        space = coinflip.model.space
        plain = {space.subset(["H-acc"]): Fraction(1, 3), space.full(): Fraction(2, 3)}
        mass = MassFunction(space, {Marked(space, space.subset(["H-acc"]).mask): Fraction(1, 3),
                                    space.full(): Fraction(2, 3)})
        assert mass.masses == plain and mass.masses is not mass.masses
        assert [type(event) for event in mass.masses] == [StateSet, StateSet]
        assert mass == MassFunction(space, plain)
        measure = coinflip.measure("pi")
        assert measure.weights == measure.weights and measure.weights is not measure.weights
        for value in (mass, measure):
            assert type(value).__slots__ == ("space", "numerators", "denominator")

    def test_pickle_and_deepcopy_round_trip(self, coinflip):
        space = coinflip.model.space
        public = MassFunction(
            space, {space.subset(["H-acc"]): Fraction(1, 3), space.full(): Fraction(2, 3)})
        for mass in (self.from_evidence(coinflip), public, MassFunction.vacuous(space)):
            for twin in (pickle.loads(pickle.dumps(mass)), copy.deepcopy(mass)):
                assert twin == mass
                assert repr(twin) == repr(mass)
                assert twin.items() == mass.items()


class TestDempsterCombination:
    def test_worked_three_state_case(self):
        space = StateSpace(("1", "2", "3"))
        m1 = MassFunction(
            space,
            {space.subset(["1", "2"]): Fraction(1, 2), space.full(): Fraction(1, 2)},
        )
        m2 = MassFunction(space, {space.subset(["2", "3"]): Fraction(1)})
        combined = dempster_combine(m1, m2)
        assert dict(combined.items()) == {
            space.subset(["2"]): Fraction(1, 2),
            space.subset(["2", "3"]): Fraction(1, 2),
        }
        assert oracles.as_mass_dict(combined) == oracles.dempster_by_products(
            oracles.as_mass_dict(m1), oracles.as_mass_dict(m2)
        )

    def test_vacuous_is_an_identity(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        mass = mass_from_evidence(model, pi, PBAR)
        assert dempster_combine(mass, MassFunction.vacuous(model.space)) == mass

    def test_total_conflict_is_undefined(self):
        space = StateSpace(("1", "2"))
        m1 = MassFunction(space, {space.subset(["1"]): Fraction(1)})
        m2 = MassFunction(space, {space.subset(["2"]): Fraction(1)})
        with pytest.raises(TotalConflictError):
            dempster_combine(m1, m2)

    def test_mismatched_spaces_rejected(self):
        m1 = MassFunction.vacuous(StateSpace(("a", "b")))
        m2 = MassFunction.vacuous(StateSpace(("a", "c")))
        with pytest.raises(ModelError):
            dempster_combine(m1, m2)

    @given(gens.spaces(), st.data())
    def test_commutativity(self, space, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        m1 = gens.random_mass_function(rng, space)
        m2 = gens.random_mass_function(rng, space)
        try:
            assert dempster_combine(m1, m2) == dempster_combine(m2, m1)
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                dempster_combine(m2, m1)

    @given(gens.spaces(), st.data())
    def test_associativity_without_conflict(self, space, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        masses = [gens.random_mass_function(rng, space) for _ in range(3)]
        try:
            left = dempster_combine(dempster_combine(masses[0], masses[1]), masses[2])
            right = dempster_combine(masses[0], dempster_combine(masses[1], masses[2]))
        except TotalConflictError:
            return
        assert left == right


class TestPointwiseCombination:
    def test_self_combination_is_a_fixed_point(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        assert pointwise_combine(model, pi, PBAR, PBAR) == mass_from_evidence(model, pi, PBAR)

    def test_dempster_self_combination_is_not(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        mass = mass_from_evidence(model, pi, PBAR)
        assert dempster_combine(mass, mass) != mass

    def test_tautological_evidence_is_an_identity(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        tautology = parse("h | ~h")
        assert pointwise_combine(model, pi, PBAR, tautology) == mass_from_evidence(model, pi, PBAR)

    def test_lifted_full_event_is_an_identity(self, coinflip):
        space = coinflip.model.space
        extended = Model(
            space, {**coinflip.model.atoms, "top": lift_event(space, space.full())}
        )
        pi = coinflip.measure("pi")
        assert pointwise_combine(extended, pi, PBAR, Atom("top")) == mass_from_evidence(
            extended, pi, PBAR
        )

    def test_report_combined_with_truth(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        combined = pointwise_combine(model, pi, PBAR, H)
        assert dict(combined.items()) == {
            model.space.subset(["H-acc", "H-sh"]): Fraction(1),
        }
        expected = oracles.mass_by_preimage(
            oracles.as_weights(pi),
            {
                state: frozenset(left & right)
                for (state, left), (_, right) in zip(
                    model.valuation("pbar").items(), model.valuation("h").items()
                )
            },
        )
        assert oracles.as_mass_dict(combined) == expected

    def test_zero_probability_conjunction_undefined(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        with pytest.raises(UndefinedConditioningError):
            pointwise_combine(model, pi, PBAR, parse("~pbar"))


class TestPointwiseConditioning:
    def test_heads_given_report(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        expected = oracles.pointwise_condition_by_terms(
            oracles.as_weights(pi),
            oracles.as_interp(model.valuation("pbar")),
            frozenset(model.atom_truth_set("h")),
        )
        assert expected == Fraction(19, 25)
        assert pointwise_condition(model, pi, H, PBAR) == Fraction(19, 25)

    def test_tautology_can_fall_below_one(self, coinflip):
        """The empty interpretation is skipped without renormalizing, so the
        surviving weights sum to 4/5 here rather than 1."""
        model, pi = coinflip.model, coinflip.measure("pi")
        assert pointwise_condition(model, pi, parse("h | ~h"), PBAR) == Fraction(4, 5)

    def test_constant_evidence_reduces_to_classical_conditioning(self, coinflip):
        model, pi = coinflip.model, coinflip.measure("pi")
        assert pointwise_condition(model, pi, A, H) == degree_given(model, pi, A, H)

    def test_undefined_when_every_interpretation_vanishes(self):
        space = StateSpace(("x", "y"))
        model = Model(
            space,
            {
                "e": VariableValuation.from_mapping(space, {"x": ["y"], "y": ["y"]}),
                "f": VariableValuation.constant(space, space.full()),
            },
        )
        measure = ProbabilityMeasure.from_weights(space, {"x": Fraction(1), "y": Fraction(0)})
        with pytest.raises(UndefinedConditioningError):
            pointwise_condition(model, measure, Atom("f"), Atom("e"))

    def test_measure_over_another_space_rejected(self, coinflip):
        space = StateSpace(coinflip.model.space.states[:2])
        measure = ProbabilityMeasure(space, (Fraction(1), Fraction(0)))
        with pytest.raises(ModelError, match="^measure is over a different state space$"):
            pointwise_condition(coinflip.model, measure, H, PBAR)


@pytest.mark.parametrize("call, message", [
    (lambda doc, pi, mass: pi.of("h"), "event must be a StateSet, got 'h'"),
    (lambda doc, pi, mass: pi.condition({"H-acc"}), "event must be a StateSet, got {'H-acc'}"),
    (lambda doc, pi, mass: mass.belief(["H-acc"]), "event must be a StateSet, got ['H-acc']"),
    (lambda doc, pi, mass: bel(doc.model, pi, PBAR, "h"), "event must be a StateSet, got 'h'"),
    (lambda doc, pi, mass: dempster_combine(mass, "x"), "Dempster's rule combines MassFunctions, got 'x'"),
    (lambda doc, pi, mass: dempster_combine(pi, mass),
     "Dempster's rule combines MassFunctions, got ProbabilityMeasure(space=StateSpace(states=('H-acc', 'H-s..."),
], ids=["of", "condition", "belief", "bel", "dempster-right", "dempster-left"])
def test_a_foreign_event_or_operand_is_refused(coinflip, call, message):
    pi = coinflip.measure("pi")
    with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
        call(coinflip, pi, mass_from_evidence(coinflip.model, pi, PBAR))


class TestBeliefProperties:
    @given(gens.spaces(), st.data())
    def test_bounds_and_monotonicity(self, space, data):
        """Coherent evidence: belief is bounded by the posterior, certain of the
        evidence's own truth set, monotone, and superadditive."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        model = gens.coherent_model(rng, space)
        measure = gens.random_measure(rng, space)
        evidence = gens.evidence_with_support(
            rng, model, measure, factory=gens.random_positive_formula
        )
        if evidence is None:
            return
        evidence_set = truth_set(model, evidence)
        posterior = measure.condition(evidence_set)

        event = gens.random_set(rng, space)
        assert bel(model, measure, evidence, event) <= posterior.of(event)

        assert bel(model, measure, evidence, space.full()) == 1
        assert bel(model, measure, evidence, evidence_set) == 1
        assert bel(model, measure, evidence, space.empty()) == 0

        larger = event | gens.random_set(rng, space)
        assert bel(model, measure, evidence, event) <= bel(model, measure, evidence, larger)

        other = gens.random_set(rng, space) - event
        assert bel(model, measure, evidence, event | other) >= bel(
            model, measure, evidence, event
        ) + bel(model, measure, evidence, other)

    def test_incoherent_evidence_can_disbelieve_its_own_truth_set(self, coinflip):
        """Certainty in the evidence's truth set rests on coherence: the negated
        report interprets, at some truth-set states, to sets that overrun the
        truth set, so none of them entail it."""
        model, pi = coinflip.model, coinflip.measure("pi")
        negated = parse("~pbar")
        negated_set = truth_set(model, negated)
        assert pi.of(negated_set) > 0
        assert bel(model, pi, negated, negated_set) == 0

    @given(gens.spaces(), st.data())
    def test_induced_mass_agrees_with_belief_everywhere(self, space, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        model = gens.random_model(rng, space)
        measure = gens.random_measure(rng, space)
        evidence = gens.evidence_with_support(rng, model, measure)
        if evidence is None:
            return
        mass = mass_from_evidence(model, measure, evidence)
        for event in space.powerset():
            assert mass.belief(event) == bel(model, measure, evidence, event)


# Extended-mode evidence with a `=>` beneath another connective.
nested_evidence = st.builds(
    lambda join, inner, other: join(inner, other),
    st.sampled_from([And, Or, Implies, lambda inner, other: Not(inner)]),
    st.builds(Entails, gens.formulas(max_leaves=4), gens.formulas(max_leaves=4)),
    gens.formulas(max_leaves=4),
)


class TestNestedEntailmentEvidence:
    """Evidence read in extended mode agrees with the frozenset oracles,
    with the evidence's interpretations taken from the definitions."""

    @given(gens.spaces(), st.data())
    def test_belief_mass_and_pointwise_condition_match_oracles(self, space, data):
        model = data.draw(gens.models(space))
        measure = data.draw(gens.measures(space))
        evidence = data.draw(nested_evidence)
        universe, interps = frozenset(space), oracles.as_interps(model)
        interp = {
            x: oracles.interpret_by_definition(universe, interps, evidence, x) for x in space
        }
        weights = oracles.as_weights(measure)

        of = data.draw(gens.formulas(max_leaves=4))
        of_truth = oracles.truth_set_by_definition(universe, interps, of)
        if any(interp[x] and oracles.event_probability(weights, interp[x]) > 0 for x in space):
            expected = oracles.pointwise_condition_by_terms(weights, interp, of_truth)
            assert pointwise_condition(model, measure, of, evidence, EXTENDED) == expected
        else:
            with pytest.raises(UndefinedConditioningError):
                pointwise_condition(model, measure, of, evidence, EXTENDED)

        truth = oracles.truth_set_by_membership(interp)
        if oracles.event_probability(weights, truth) == 0:
            with pytest.raises(UndefinedConditioningError):
                mass_from_evidence(model, measure, evidence, EXTENDED)
            return
        mass = mass_from_evidence(model, measure, evidence, EXTENDED)
        assert oracles.as_mass_dict(mass) == oracles.mass_by_preimage(weights, interp)
        event = data.draw(gens.state_sets(space))
        expected = oracles.bel_by_definition(weights, interp, frozenset(event))
        assert bel(model, measure, evidence, event, EXTENDED) == expected
