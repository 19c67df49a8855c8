"""State spaces, bit-vector events, valuations, coherence."""

import operator
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evidential import (
    Atom,
    Model,
    ModelError,
    StateSet,
    StateSpace,
    UnknownAtomError,
    VariableValuation,
    lift_event,
    truth_set,
)
from evidential.errors import UnknownStateError

import gens
import oracles
from test_document import digit_limit


def exactly(message):
    return "^" + re.escape(message) + "$"


class TestStateSpace:
    def test_declaration_order_is_canonical(self):
        space = StateSpace(("b", "a", "c"))
        assert space.states == ("b", "a", "c")
        assert space.index("a") == 1
        assert list(space) == ["b", "a", "c"]

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            StateSpace(())

    def test_rejects_duplicates(self):
        with pytest.raises(ModelError, match="duplicate"):
            StateSpace(("a", "b", "a"))

    @pytest.mark.parametrize("states, message", [
        (("a", "a", 3), "duplicate state name: 'a'"),
        ((3, "a", "a"), "state names must be nonempty strings, got 3"),
        (("a", "", "a"), "state names must be nonempty strings, got ''"),
    ])
    def test_first_bad_name_is_reported(self, states, message):
        with pytest.raises(ModelError, match=exactly(message)):
            StateSpace(states)

    def test_rejects_unknown_state_lookup(self):
        with pytest.raises(ModelError, match="'z'"):
            StateSpace(("a", "b")).index("z")

    def test_separately_built_spaces_are_equal_and_hash_alike(self):
        first, second = StateSpace(("a", "b", "c")), StateSpace(["a", "b", "c"])
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert StateSet(first, 5) == StateSet(second, 5)
        assert hash(StateSet(first, 5)) == hash(StateSet(second, 5))
        assert first.subset(["a"]) | second.subset(["b"]) == first.subset(["a", "b"])
        assert first.subset(["a"]) <= second.full()
        Model(first, {"p": VariableValuation.constant(second, second.full())})

    def test_spaces_with_other_names_or_order_differ(self):
        space = StateSpace(("a", "b", "c"))
        for other in (StateSpace(("a", "b")), StateSpace(("a", "b", "d")), StateSpace(("b", "a", "c"))):
            assert space != other
            assert {StateSet(space, 1): 0}.get(StateSet(other, 1)) is None
        assert space != ("a", "b", "c")


class TestValuesPastTheDigitLimit:
    """A value holding an int past the interpreter's int-digit limit, which
    ``repr`` cannot print, still ends in a one-line ModelError."""

    def test_state_name(self):
        message = f"state names must be nonempty strings, got <int of {digit_limit() + 1} digits>"
        with pytest.raises(ModelError, match=exactly(message)):
            StateSpace([10 ** digit_limit()])
        with pytest.raises(ModelError, match=exactly(
                "state names must be nonempty strings, got <list holding an int past the digit limit>")):
            StateSpace([[-10 ** digit_limit()]])

    def test_subset_member(self):
        with pytest.raises(UnknownStateError, match=exactly(f"unknown state: <int of {digit_limit() + 1} digits>")):
            StateSpace(("a",)).subset([10 ** digit_limit()])

    def test_valuation_member(self):
        with pytest.raises(ModelError, match=exactly(f"unknown state: <int of {digit_limit() + 1} digits>")):
            VariableValuation.from_mapping(StateSpace(("a",)), {"a": [10 ** (digit_limit() + 1) - 1]})


class TestStateSet:
    def setup_method(self):
        self.space = StateSpace(("a", "b", "c", "d"))

    def test_set_algebra_is_exact(self):
        ab = self.space.subset(["a", "b"])
        bc = self.space.subset(["b", "c"])
        assert (ab & bc) == self.space.subset(["b"])
        assert (ab | bc) == self.space.subset(["a", "b", "c"])
        assert (ab - bc) == self.space.subset(["a"])
        assert ab.complement() == self.space.subset(["c", "d"])
        assert self.space.subset(["b"]) <= ab
        assert not ab <= bc
        assert self.space.empty() <= ab <= self.space.full()

    def test_iteration_in_canonical_order(self):
        assert self.space.subset(["d", "a"]).names() == ("a", "d")
        assert str(self.space.subset(["c", "b"])) == "{b,c}"
        assert str(self.space.empty()) == "{}"

    def test_membership(self):
        ab = self.space.subset(["a", "b"])
        assert "a" in ab and "c" not in ab
        # A value that is not a state is not a member, as with a frozenset.
        assert "zz" not in ab and "" not in ab and 1 not in ab and ["a"] not in ab
        assert len(ab) == 2 and bool(ab)
        assert not self.space.empty()

    def test_mask_out_of_range(self):
        with pytest.raises(ModelError):
            StateSet(self.space, 1 << 4)

    def test_mixing_spaces_rejected(self):
        other = StateSpace(("a", "b"))
        with pytest.raises(ModelError):
            self.space.full() & other.full()

    @pytest.mark.parametrize("op", [operator.and_, operator.or_, operator.sub, operator.le, operator.ge])
    def test_mixing_equal_sized_spaces_rejected(self, op):
        other = StateSpace(("a", "b", "c", "e"))
        with pytest.raises(ModelError, match="different state spaces"):
            op(self.space.full(), other.full())

    def test_valuation_over_mixed_spaces_rejected(self):
        other = StateSpace(("a", "b", "c", "e"))
        with pytest.raises(ModelError, match="different state space"):
            VariableValuation(self.space, (other.full(),) * 4)

    def test_powerset_enumeration(self):
        small = StateSpace(("x", "y"))
        assert [s.names() for s in small.powerset()] == [(), ("x",), ("y",), ("x", "y")]

    def test_unhashable_member_is_an_unknown_state(self):
        with pytest.raises(ModelError, match=r"^unknown state: \['a'\]$"):
            self.space.subset(["a", ["a"]])

    def test_a_bare_string_is_not_a_list_of_names(self):
        with pytest.raises(ModelError, match=exactly(
                "states must be given as a collection of names, not the string 'ab'")):
            StateSpace(("a", "b")).subset("ab")
        with pytest.raises(ModelError, match=exactly(
                "states must be given as a collection of names, not the string 's1'")):
            VariableValuation.from_mapping(StateSpace(["s1", "s2"]), {"s1": "s1", "s2": ["s2"]})

    def test_a_value_of_another_type_is_unequal(self):
        assert (self.space.full() == 15) is False
        assert (self.space.full() != self.space.full().mask) is True

    def test_strict_subset_order(self):
        a, ab = self.space.subset(["a"]), self.space.subset(["a", "b"])
        assert (a < ab, ab < ab, ab < a, a < self.space.subset(["b"])) == (True, False, False, False)
        assert (ab > a, ab > ab, a > ab, self.space.subset(["b"]) > a) == (True, False, False, False)

    @pytest.mark.parametrize("op", [operator.and_, operator.or_, operator.sub, operator.le,
                                    operator.lt, operator.ge, operator.gt])
    # Fixed ids: the repr of a frozenset of strings orders them by the process's hash seed.
    @pytest.mark.parametrize("foreign", [5, frozenset(), frozenset("ab"), None],
                             ids=["5", "frozenset()", "frozenset({'b', 'a'})", "None"])
    def test_a_foreign_operand_is_a_type_error(self, op, foreign):
        ab = self.space.subset(["a", "b"])
        for left, right in ((ab, foreign), (foreign, ab)):
            with pytest.raises(TypeError, match="not supported between instances of|unsupported operand"):
                op(left, right)

    @pytest.mark.parametrize("op", [operator.lt, operator.gt])
    def test_reflected_order_rejects_another_space(self, op):
        other = StateSpace(("a", "b", "c", "e"))
        with pytest.raises(ModelError, match="^state sets belong to different state spaces$"):
            op(self.space.full(), other.full())

    @pytest.mark.parametrize("mask", [1.0, "1", None, [1]], ids=repr)
    def test_a_mask_that_is_not_an_int_is_refused(self, mask):
        with pytest.raises(ModelError, match=exactly(f"set mask must be an int, got {mask!r}")):
            StateSet(self.space, mask)

    @pytest.mark.parametrize("name", [["a"], {"a": 1}, {"a"}], ids=repr)
    def test_an_unhashable_name_is_an_unknown_state(self, name):
        with pytest.raises(UnknownStateError, match=exactly(f"unknown state: {name!r}")):
            self.space.index(name)
        with pytest.raises(UnknownStateError, match=exactly(f"unknown state: {name!r}")):
            self.space.singleton(name)


@st.composite
def sized_masks(draw):
    """A state count in 1..300 and a mask over it, often empty, full or top-bit only."""
    n = draw(st.integers(1, 300))
    full = (1 << n) - 1
    mask = draw(st.one_of(st.sampled_from([0, full, 1 << (n - 1)]), st.integers(0, full)))
    return n, mask


@given(sized_masks())
def test_rendering_matches_per_index_enumeration(case):
    n, mask = case
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    expected = [space.states[i] for i in range(n) if mask >> i & 1]
    event = StateSet(space, mask)
    assert list(event) == expected
    assert event.names() == tuple(expected)
    assert str(event) == "{" + ",".join(expected) + "}"


class TestValuation:
    def test_one_set_per_state_required(self):
        space = StateSpace(("a", "b"))
        with pytest.raises(ModelError, match=exactly("valuation must cover all 2 states, got 1")):
            VariableValuation(space, [space.full()])

    def test_constant_over_another_space_rejected(self):
        space = StateSpace(("a", "b"))
        with pytest.raises(ModelError, match=exactly("constant value is over a different state space")):
            VariableValuation.constant(space, StateSpace(("a", "c")).full())

    def test_totality_required(self):
        space = StateSpace(("a", "b"))
        with pytest.raises(ModelError, match="'b'"):
            VariableValuation.from_mapping(space, {"a": ["a"]})

    def test_unknown_state_in_mapping(self):
        space = StateSpace(("a", "b"))
        with pytest.raises(ModelError, match="'z'"):
            VariableValuation.from_mapping(space, {"a": ["a"], "b": ["a"], "z": []})

    def test_mapping_faults_are_found_in_table_order(self):
        space = StateSpace(("a", "b"))
        with pytest.raises(UnknownStateError, match=exactly("unknown state: 'y'")):
            VariableValuation.from_mapping(space, {"b": ["y"], "z": []})
        with pytest.raises(UnknownStateError, match=exactly("unknown state: 'z'")):
            VariableValuation.from_mapping(space, {"z": ["y"], "a": []})
        with pytest.raises(ModelError, match=exactly("valuation missing interpretation for state 'a'")):
            VariableValuation.from_mapping(space, {"b": ["a"]})

    def test_state_set_values_are_decoded_by_their_names(self):
        space = StateSpace(("a", "b"))
        twin = StateSpace(("b", "a"))
        valuation = VariableValuation.from_mapping(space, {"a": space.full(), "b": twin.subset(["a"])})
        assert valuation.sets == (space.full(), space.subset(["a"]))

    def test_table_decodes_in_state_order(self):
        space = StateSpace(("a", "b", "c"))
        seen = []

        def decode(state, value):
            seen.append(state)
            return value * 2

        assert space.table({"c": 3, "a": 1, "b": 2}, decode, "missing ") == (2, 4, 6)
        assert seen == ["c", "a", "b"]
        with pytest.raises(ModelError, match=exactly("missing 'b'")):
            space.table({"c": 3, "a": 1}, decode, "missing ")

    def test_table_decodes_each_distinct_text_or_list_once(self):
        space = StateSpace(("a", "b", "c", "d", "e", "f"))
        calls = []

        def decode(state, value):
            calls.append(state)
            return tuple(value)

        table = {"a": "ab", "b": ["a", "b"], "c": "ab", "d": ["a", "b"], "e": ["a", "c", "b"], "f": []}
        assert space.table(table, decode, "missing ") == (
            ("a", "b"), ("a", "b"), ("a", "b"), ("a", "b"), ("a", "c", "b"), ())
        assert calls == ["a", "b", "e", "f"]
        # Any other type is decoded every time, so 1, True and 1.0 keep their own results.
        calls.clear()
        values = (1, True, 1, 1.0, True, 1)
        decoded = space.table(dict(zip(space, values)), lambda state, value: calls.append(state) or value,
                              "missing ")
        assert list(map(type, decoded)) == list(map(type, values))
        assert calls == list(space)

    def test_table_faults_are_named_at_their_own_state(self):
        space = StateSpace(("a", "b", "c"))

        def decode(state, value):
            if "x" in value:
                raise ModelError(f"bad value at {state}")
            return value

        with pytest.raises(ModelError, match=exactly("bad value at b")):
            space.table({"a": ["a", "b"], "b": ["a", "x", "b"], "c": ["a", "x", "b"]}, decode, "missing ")
        with pytest.raises(ModelError, match=exactly("bad value at c")):
            space.table({"a": "ok", "b": "ok", "c": "x"}, decode, "missing ")
        with pytest.raises(UnknownStateError, match=exactly("unknown state: 'z'")):
            space.table({"a": "ok", "z": "ok", "b": "x"}, decode, "missing ")
        with pytest.raises(ModelError, match=exactly("bad value at a")):
            space.table({"a": [["x"], "x"], "b": [["x"], "x"]}, decode, "missing ")
        with pytest.raises(ModelError, match=exactly("missing 'c'")):
            space.table({"b": "ok", "a": "ok"}, decode, "missing ")

    def test_constant_detection(self):
        space = StateSpace(("a", "b"))
        constant = VariableValuation.constant(space, space.subset(["a"]))
        assert constant.is_constant()
        varying = VariableValuation.from_mapping(space, {"a": ["a"], "b": []})
        assert not varying.is_constant()

    def test_truth_set_of_constant_is_its_value(self):
        space = StateSpace(("a", "b", "c"))
        value = space.subset(["a", "c"])
        assert VariableValuation.constant(space, value).truth_set() == value


class TestCoinflipGolden:
    """The shipped six-state model reproduces its known truth sets and closures."""

    def test_truth_set_of_naive_report(self, coinflip):
        model = coinflip.model
        expected = model.space.subset(["H-acc", "H-sh", "T-sh"])
        assert model.atom_truth_set("p") == expected
        assert model.atom_truth_set("pbar") == expected

    def test_truth_set_of_constant_atom(self, coinflip):
        model = coinflip.model
        assert model.atom_truth_set("h") == model.space.subset(["H-acc", "H-sh", "H-st"])

    def test_coherence_judgments(self, coinflip):
        model = coinflip.model
        assert not model.is_coherent("p")
        assert model.is_coherent("pbar")
        assert model.is_coherent("h") and model.is_coherent("a")

    def test_closure_of_naive_report(self, coinflip):
        model = coinflip.model
        assert model.coherence_closure("p") == model.valuation("pbar")

    def test_closure_fixes_coherent_valuations(self, coinflip):
        model = coinflip.model
        for atom in ("pbar", "h", "a"):
            assert model.coherence_closure(atom) == model.valuation(atom)

    def test_unknown_atom(self, coinflip):
        with pytest.raises(UnknownAtomError, match="'nope'"):
            coinflip.model.valuation("nope")

    def test_unhashable_atom_name_is_unknown(self, coinflip):
        model = coinflip.model
        for query in (lambda: truth_set(model, Atom(["p"])), lambda: model.is_coherent(["p"]),
                      lambda: model.atom_truth_set(["p"])):
            with pytest.raises(UnknownAtomError, match=exactly("unknown atom: ['p']")):
                query()


class TestLiftEvent:
    def test_round_trips_through_truth_set(self, coinflip):
        space = coinflip.model.space
        event = space.subset(["H-acc", "T-acc"])
        lifted = lift_event(space, event)
        assert lifted.is_constant()
        assert lifted.truth_set() == event

    def test_degenerate_events(self, coinflip):
        space = coinflip.model.space
        assert lift_event(space, space.empty()).truth_set() == space.empty()
        assert lift_event(space, space.full()).truth_set() == space.full()


class TestCoherenceProperties:
    @given(gens.valuations())
    def test_closure_is_coherent_and_truth_preserving(self, valuation):
        closure = valuation.coherence_closure()
        assert closure.is_coherent()
        assert closure.truth_set() == valuation.truth_set()

    @given(gens.valuations())
    def test_closure_is_idempotent(self, valuation):
        closure = valuation.coherence_closure()
        assert closure.coherence_closure() == closure

    @given(gens.valuations())
    def test_subset_test_matches_membership_chasing(self, valuation):
        assert valuation.is_coherent() == oracles.pointwise_coherent(
            oracles.as_interp(valuation)
        )

    @given(gens.valuations())
    def test_truth_set_matches_membership_definition(self, valuation):
        expected = oracles.truth_set_by_membership(oracles.as_interp(valuation))
        assert frozenset(valuation.truth_set()) == expected

    @given(gens.valuations())
    def test_coherent_truth_set_is_union_of_interpretations(self, valuation):
        coherent = valuation.coherence_closure()
        union = coherent.space.empty()
        for _, value in coherent.items():
            union = union | value
        assert coherent.truth_set() == union

    @given(gens.spaces())
    def test_constant_valuations_are_coherent(self, space):
        for event in space.powerset():
            assert VariableValuation.constant(space, event).is_coherent()


def test_model_rejects_foreign_valuation():
    space = StateSpace(("a", "b"))
    other = StateSpace(("a", "b", "c"))
    valuation = VariableValuation.constant(other, other.empty())
    with pytest.raises(ModelError):
        Model(space, {"p": valuation})


def test_model_rejects_empty_atom_name():
    space = StateSpace(("a",))
    with pytest.raises(ModelError):
        Model(space, {"": VariableValuation.constant(space, space.full())})


@pytest.mark.parametrize("build, message", [
    (lambda space: Model(space, {"p": {"a": ["a"]}}),
     "valuation for atom 'p' must be a VariableValuation, got {'a': ['a']}"),
    (lambda space: VariableValuation(space, [space.full(), ["a"]]),
     "valuation sets must be StateSets, got ['a']"),
    (lambda space: lift_event(space, {"a"}), "constant value must be a StateSet, got {'a'}"),
    (lambda space: Model("abc", {}), "model needs a StateSpace and a mapping, got 'abc', {}"),
    (lambda space: Model(space, ["p"]),
     "model needs a StateSpace and a mapping, got StateSpace(states=('a', 'b')), ['p']"),
], ids=["Model", "VariableValuation", "lift_event", "Model-space", "Model-atoms"])
def test_foreign_values_are_refused_with_one_line_model_errors(build, message):
    with pytest.raises(ModelError, match=exactly(message)):
        build(StateSpace(("a", "b")))
