"""Reference answers computed from the generated document alone.

Everything here works on plain frozensets of state names and dicts, never
on the library's bit-vector types, and formulas are the generator's own
tuples (``("atom", "a")``, ``("not", f)``, ``(op, left, right)`` with
``op`` one of ``and``, ``or``, ``implies``, ``entails``), so the library's
parser is checked too.  The Dempster-Shafer helpers come from the test
suite's oracles, which are independent of the library in the same way.
"""

from __future__ import annotations

import importlib.util
import math
import operator
from fractions import Fraction
from pathlib import Path

_ORACLES = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
_spec = importlib.util.spec_from_file_location("_bench_oracles", _ORACLES)
_oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracles)
bel_by_definition = _oracles.bel_by_definition
dempster_by_products = _oracles.dempster_by_products
mass_by_preimage = _oracles.mass_by_preimage


def contains_entailment(f) -> bool:
    if f[0] == "atom":
        return False
    return f[0] == "entails" or any(contains_entailment(g) for g in f[1:])


def _evaluate(f, atom, entails, negate, meet, join):
    """Fold a formula with the given meanings for atoms, ``=>`` and connectives."""
    kind = f[0]
    if kind == "atom":
        return atom(f[1])
    if kind == "entails":
        return entails(f)
    if kind == "not":
        return negate(_evaluate(f[1], atom, entails, negate, meet, join))
    left = _evaluate(f[1], atom, entails, negate, meet, join)
    right = _evaluate(f[2], atom, entails, negate, meet, join)
    if kind == "and":
        return meet(left, right)
    if kind == "or":
        return join(left, right)
    return join(negate(left), right)


def _no_entailment(f):
    raise ValueError(f"unexpected entailment {f!r}")


def _both(left, right):
    return left and right


def _either(left, right):
    return left or right


class Reference:
    """A model document read as frozensets: ``interp[atom][state]`` is an event."""

    def __init__(self, doc: dict):
        self.states = list(doc["states"])
        self.bit = {s: 1 << i for i, s in enumerate(self.states)}
        self.universe = frozenset(self.states)
        self.interp = {}
        for atom, raw in doc.get("atoms", {}).items():
            if "*" in raw:
                event = frozenset(raw["*"])
                self.interp[atom] = {s: event for s in self.states}
            else:
                self.interp[atom] = {s: frozenset(raw[s]) for s in self.states}
        self.atom_truth = {
            atom: frozenset(s for s in self.states if s in interp[s])
            for atom, interp in self.interp.items()
        }
        self.measures = {
            name: {s: Fraction(w) for s, w in raw.items()}
            for name, raw in doc.get("measures", {}).items()
        }
        # Each measure again as integer weights over one common denominator.
        self._scaled = {}
        for name, weights in self.measures.items():
            denominator = math.lcm(*(w.denominator for w in weights.values()))
            self._scaled[name] = (
                {s: w.numerator * (denominator // w.denominator) for s, w in weights.items()},
                denominator,
            )
        self._entailed: dict = {}
        self._cells = None
        self._valuations: dict = {}
        self._masses: dict = {}
        self._combined: dict = {}

    # --- semantics ---------------------------------------------------------

    def _complement(self, event: frozenset) -> frozenset:
        return self.universe - event

    def interpret(self, f, s) -> frozenset:
        """The interpretation of ``f`` at state ``s`` (nested ``=>`` is constant)."""
        return _evaluate(f, lambda atom: self.interp[atom][s], self.entailment_set,
                         self._complement, frozenset.__and__, frozenset.__or__)

    def truth_set(self, f) -> frozenset:
        """The states that lie in their own interpretation of ``f``.

        Whether s lies in I_f(s) is the same Boolean function of whether s
        lies in each atom's I_a(s) (or in a nested entailment's constant
        set), so truth sets combine like the formula.
        """
        return _evaluate(f, self.atom_truth.__getitem__, self.entailment_set,
                         self._complement, frozenset.__and__, frozenset.__or__)

    def entailment_set(self, f) -> frozenset:
        """States where the left operand's interpretation is inside the right's.

        For entailment-free operands both interpretations at a state are
        unions of cells of the Venn diagram of the atoms' interpretations
        there, so the inclusion fails exactly when some nonempty cell at that
        state lies under the left operand and outside the right one.
        """
        if f not in self._entailed:
            _, left, right = f
            if contains_entailment(left) or contains_entailment(right):
                result = frozenset(
                    s for s in self.states
                    if self.interpret(left, s) <= self.interpret(right, s)
                )
            else:
                cells, patterns, position = self._venn_cells()

                def under(g, pattern):
                    return _evaluate(g, lambda atom: pattern[position[atom]], _no_entailment,
                                     operator.not_, _both, _either)

                bad = {p for p in patterns if under(left, p) and not under(right, p)}
                result = frozenset(s for s in self.states if cells[s].isdisjoint(bad))
            self._entailed[f] = result
        return self._entailed[f]

    def _venn_cells(self):
        """Per state, the set of atom-membership patterns some state has there."""
        if self._cells is None:
            atoms = list(self.interp)
            self._cells = {
                s: frozenset(zip(*(
                    [x in self.interp[atom][s] for x in self.states] for atom in atoms
                )))
                for s in self.states
            }
            self._patterns = frozenset().union(*self._cells.values())
            self._position = {atom: i for i, atom in enumerate(atoms)}
        return self._cells, self._patterns, self._position

    # --- belief ------------------------------------------------------------

    def valuation(self, f) -> dict:
        """The formula's interpretation at every state, as ``{state: event}``."""
        if f not in self._valuations:
            self._valuations[f] = {s: self.interpret(f, s) for s in self.states}
        return self._valuations[f]

    def mass(self, measure: str, evidence) -> dict:
        key = (measure, evidence)
        if key not in self._masses:
            self._masses[key] = mass_by_preimage(self.measures[measure], self.valuation(evidence))
        return self._masses[key]

    def bel(self, measure: str, evidence, event: frozenset) -> Fraction:
        return bel_by_definition(self.measures[measure], self.valuation(evidence), event)

    def probability(self, measure: str, event) -> Fraction:
        weights, denominator = self._scaled[measure]
        return Fraction(sum(map(weights.__getitem__, event)), denominator)

    def degree_given(self, measure: str, of, given) -> Fraction:
        given_set = self.truth_set(given)
        return self.probability(measure, self.truth_set(of) & given_set) / self.probability(measure, given_set)

    def dempster(self, measure: str, e1, e2) -> dict:
        key = (measure, frozenset((e1, e2)))  # the rule is commutative
        if key not in self._combined:
            self._combined[key] = dempster_by_products(self.mass(measure, e1), self.mass(measure, e2))
        return self._combined[key]

    def pointwise_combine(self, measure: str, e1, e2) -> dict:
        return self.mass(measure, ("and", e1, e2))

    def pointwise_condition(self, measure: str, of, evidence) -> Fraction:
        """Average of P(of | meaning) over the evidence's meanings at all states."""
        weights = self.measures[measure]
        of_set = self.truth_set(of)
        by_meaning: dict = {}
        for s, meaning in self.valuation(evidence).items():
            by_meaning[meaning] = by_meaning.get(meaning, Fraction(0)) + weights[s]
        total = Fraction(0)
        for meaning, weight in by_meaning.items():
            prior = self.probability(measure, meaning)
            if meaning and prior:
                total += self.probability(measure, of_set & meaning) / prior * weight
        return total

    def condition(self, measure: str, event: frozenset) -> dict:
        total = self.probability(measure, event)
        return {s: (w / total if s in event else Fraction(0)) for s, w in self.measures[measure].items()}

    # --- rendering, as documented for the CLI -------------------------------

    def render(self, event) -> str:
        return "{" + ",".join(s for s in self.states if s in event) + "}"

    def mask(self, event) -> int:
        """The documented bit-vector encoding: bit i is the i-th declared state."""
        return sum(map(self.bit.__getitem__, event))
