"""Formula parsing and printing."""

import copy
import pickle
import re

import pytest
from hypothesis import given

from evidential import (
    EXTENDED,
    STRICT,
    And,
    Atom,
    Entails,
    FormulaSyntaxError,
    Implies,
    NestedEntailmentError,
    Not,
    Or,
    format_formula,
    parse,
)
from evidential.formula import MAX_NESTING

import gens

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestParse:
    def test_negated_conjunction(self):
        assert parse("~(p & q)") == Not(And(p, q))

    def test_outer_entailment_in_strict_mode(self):
        assert parse("p => h") == Entails(p, Atom("h"))

    def test_precedence_ladder(self):
        assert parse("~p & q | r -> p") == Implies(Or(And(Not(p), q), r), p)

    def test_left_associativity(self):
        assert parse("p & q & r") == And(And(p, q), r)
        assert parse("p | q | r") == Or(Or(p, q), r)

    def test_right_associativity(self):
        assert parse("p -> q -> r") == Implies(p, Implies(q, r))
        assert parse("p => q => r", EXTENDED) == Entails(p, Entails(q, r))

    def test_parentheses_override(self):
        assert parse("p & (q | r)") == And(p, Or(q, r))
        assert parse("(p -> q) -> r") == Implies(Implies(p, q), r)

    def test_unicode_aliases(self):
        assert parse("¬p ∧ q") == And(Not(p), q)
        assert parse("p ∨ q → r") == Implies(Or(p, q), r)
        assert parse("p ⇒ q") == Entails(p, q)

    def test_atom_names(self):
        assert parse("_x9 & Zz") == And(Atom("_x9"), Atom("Zz"))

    def test_grouping_matches_precedence_and_associativity(self):
        assert parse("p -> q & r | ~p => q -> r", EXTENDED) == Entails(
            Implies(p, Or(And(q, r), Not(p))), Implies(q, r)
        )
        assert parse("p & q -> r | p & q | r", EXTENDED) == Implies(
            And(p, q), Or(Or(r, And(p, q)), r)
        )


def exactly(message, position):
    return "^" + re.escape(f"{message} (at position {position})") + "$"


def assert_syntax_errors(cases):
    for text, message, position in cases:
        with pytest.raises(FormulaSyntaxError, match=exactly(message, position)) as info:
            parse(text)
        assert info.value.position == position


class TestParseErrors:
    def test_unexpected_character_reports_position(self):
        assert_syntax_errors([
            ("p @ q", "unexpected character '@'", 3),
            ("p - q", "unexpected character '-'", 3),
        ])

    def test_truncated_input(self):
        assert_syntax_errors([
            ("p &", "unexpected end of input", 4),
            ("~", "unexpected end of input", 2),
            ("p -> (q &", "unexpected end of input", 10),
        ])

    def test_unbalanced_parenthesis(self):
        assert_syntax_errors([
            ("(p & q", "unexpected end of input (expected rparen)", 7),
            ("((p) | q", "unexpected end of input (expected rparen)", 9),
            ("(p q)", "expected rparen, found 'q'", 4),
            ("(p & q) & (r ~p)", "expected rparen, found '~'", 14),
            ("((p)(q))", "expected rparen, found '('", 5),
            ("p)", "unexpected ')' after formula", 2),
            ("()", "unexpected ')'", 2),
        ])

    def test_trailing_tokens(self):
        assert_syntax_errors([
            ("p q", "unexpected 'q' after formula", 3),
            ("(p) ~q", "unexpected '~' after formula", 5),
            ("p & q (r)", "unexpected '(' after formula", 7),
            ("p => q) & r", "unexpected ')' after formula", 7),
        ])

    def test_empty_input(self):
        assert_syntax_errors([("", "unexpected end of input", 1), ("   ", "unexpected end of input", 4)])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="^mode must be 'strict' or 'extended', got 'sloppy'$"):
            parse("p", "sloppy")


class TestEntailmentPlacement:
    def test_nested_entailment_rejected_in_strict_mode(self):
        with pytest.raises(NestedEntailmentError):
            parse("(p => q) & r")

    def test_same_text_parses_in_extended_mode(self):
        assert parse("(p => q) & r", EXTENDED) == And(Entails(p, q), r)

    def test_entailment_under_entailment_rejected(self):
        with pytest.raises(NestedEntailmentError):
            parse("p => q => r")

    def test_nesting_error_is_a_syntax_error_subtype(self):
        assert issubclass(NestedEntailmentError, FormulaSyntaxError)

    def test_parenthesized_outer_entailment_is_still_outermost(self):
        assert parse("(p => q)") == Entails(p, q)


class TestFormat:
    def test_negated_conjunction(self):
        assert format_formula(Not(And(p, q))) == "~(p & q)"

    def test_entailment(self):
        assert format_formula(Entails(p, Atom("h"))) == "p => h"

    def test_precedence_forces_parentheses(self):
        assert format_formula(And(p, Or(q, r))) == "p & (q | r)"
        assert format_formula(Or(And(p, q), r)) == "p & q | r"

    def test_associativity_parenthesization(self):
        assert format_formula(And(And(p, q), r)) == "p & q & r"
        assert format_formula(And(p, And(q, r))) == "p & (q & r)"
        assert format_formula(Implies(p, Implies(q, r))) == "p -> q -> r"
        assert format_formula(Implies(Implies(p, q), r)) == "(p -> q) -> r"

    def test_str_matches_format(self):
        assert str(Or(Not(p), q)) == "~p | q"


class TestRoundTrip:
    @given(gens.formulas())
    def test_entailment_free_round_trip_both_modes(self, f):
        text = format_formula(f)
        assert parse(text, STRICT) == f
        assert parse(text, EXTENDED) == f

    @given(gens.formulas(), gens.formulas())
    def test_outer_entailment_round_trip_both_modes(self, left, right):
        f = Entails(left, right)
        text = format_formula(f)
        assert parse(text, STRICT) == f
        assert parse(text, EXTENDED) == f

    @given(gens.formulas(allow_entails=True))
    def test_arbitrary_round_trip_extended_mode(self, f):
        assert parse(format_formula(f), EXTENDED) == f


# Text nested exactly d levels deep, one way per shape of formula.
SHAPES = {
    "negations": lambda d: "~" * d + "h",
    "conjunction chain": lambda d: " & ".join(["h"] * (d + 1)),
    "disjunction chain": lambda d: " | ".join(["h"] * (d + 1)),
    "implication chain": lambda d: " -> ".join(["h"] * (d + 1)),
    "entailment chain": lambda d: " => ".join(["h"] * (d + 1)),
    "left-nested implication": lambda d: "(" * (d - 1) + "h" + " -> h)" * (d - 1) + " -> h",
    "negated conjunctions": lambda d: "~(h & " * (d // 2) + "~" * (d % 2) + "h" + ")" * (d // 2),
    "parentheses": lambda d: "(" * d + "h" + ")" * d,
}


def depth(f):
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return 1 + depth(f.operand)
    return 1 + max(depth(f.left), depth(f.right))


class TestNestingLimit:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_limit_depth_parses_and_round_trips(self, shape):
        f = parse(SHAPES[shape](MAX_NESTING), EXTENDED)
        assert depth(f) == (0 if shape == "parentheses" else MAX_NESTING)
        assert parse(format_formula(f), EXTENDED) == f

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_level_deeper_is_a_syntax_error(self, shape):
        with pytest.raises(FormulaSyntaxError, match="^formula nested deeper than 100 levels"):
            parse(SHAPES[shape](MAX_NESTING + 1), EXTENDED)

    def test_hand_built_asts_of_any_depth_print_and_are_rejected_as_text(self):
        negations, implications = p, p
        for _ in range(10_000):
            negations, implications = Not(negations), Implies(implications, p)
        assert negations._depth == implications._depth == 10_000
        assert format_formula(negations) == "~" * 10_000 + "p"
        assert format_formula(implications) == "(" * 9_999 + "p" + " -> p)" * 9_999 + " -> p"
        for f in (negations, implications):
            text = format_formula(f)
            assert str(f) == text
            with pytest.raises(FormulaSyntaxError, match="^formula nested deeper than 100 levels"):
                parse(text, EXTENDED)


class TestRecordedShape:
    """Each node records its depth and ``=>`` count when built; neither is a field."""

    def test_depth_and_entailment_count(self):
        cases = {
            "p": (0, 0),
            "~p": (1, 0),
            "p & q": (1, 0),
            "p => q": (1, 1),
            "~(p => q) & r": (3, 1),
            "(p => q) => (r => ~~p)": (4, 3),
            "p -> q | ~r & p": (4, 0),
        }
        for text, shape in cases.items():
            f = parse(text, EXTENDED)
            assert (f._depth, f._entailments) == shape == (depth(f), count_entailments(f)), text

    @given(gens.formulas(allow_entails=True))
    def test_slots_match_a_walk_and_survive_copies(self, f):
        for twin in (f, pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert (twin._depth, twin._entailments) == (depth(f), count_entailments(f))
        assert repr(f).count("_depth") == repr(f).count("_entailments") == 0

    @pytest.mark.parametrize("build", [
        lambda: Not("x"), lambda: And(p, "x"), lambda: Or("x", p), lambda: Implies(p, "x"),
        lambda: Entails("x", p), lambda: Not(Not("x")),
    ])
    def test_a_non_formula_operand_is_refused_when_built(self, build):
        with pytest.raises(TypeError, match="^not a formula node: 'x'$"):
            build()


def count_entailments(f):
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return count_entailments(f.operand)
    return isinstance(f, Entails) + count_entailments(f.left) + count_entailments(f.right)
