"""Independent reference implementations used to cross-check the library.

Everything here works on plain frozensets and dicts, never on the
package's bit-vector types, so agreement is evidence rather than
tautology.  Expected values frozen into the tests were computed with
these oracles first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations

from evidential import And, Atom, Entails, Implies, Not, Or


def as_interp(valuation) -> dict:
    """Valuation as a plain {state: frozenset-of-states} map."""
    return {state: frozenset(value) for state, value in valuation.items()}


def as_weights(measure) -> dict:
    return dict(measure.items())


def as_mass_dict(mass) -> dict:
    return {frozenset(event): weight for event, weight in mass.items()}


def powerset(states) -> list:
    items = list(states)
    return [
        frozenset(c) for c in chain.from_iterable(
            combinations(items, k) for k in range(len(items) + 1)
        )
    ]


def classical_truth_set(universe: frozenset, assignment: dict, f) -> frozenset:
    """Straightforward event semantics for constant-atom models."""
    if isinstance(f, Atom):
        return assignment[f.name]
    if isinstance(f, Not):
        return universe - classical_truth_set(universe, assignment, f.operand)
    left = classical_truth_set(universe, assignment, f.left)
    right = classical_truth_set(universe, assignment, f.right)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (universe - left) | right
    raise TypeError(f"classical oracle cannot evaluate {f!r}")


def as_interps(model) -> dict:
    """Every atom's valuation as a plain {state: frozenset-of-states} map."""
    return {name: as_interp(valuation) for name, valuation in model.atoms.items()}


def interpret_by_definition(universe: frozenset, interps: dict, f, x) -> frozenset:
    """The interpretation of ``f`` at state ``x``, read off the definitions.

    ``interps`` maps each atom to its {state: frozenset} valuation.  Every
    ``=>`` node, nested or not, denotes the constant set of states where its
    left interpretation is contained in its right one, recomputed on each
    visit.
    """
    if isinstance(f, Atom):
        return interps[f.name][x]
    if isinstance(f, Not):
        return universe - interpret_by_definition(universe, interps, f.operand, x)
    if isinstance(f, Entails):
        return frozenset(
            y for y in universe
            if interpret_by_definition(universe, interps, f.left, y)
            <= interpret_by_definition(universe, interps, f.right, y)
        )
    left = interpret_by_definition(universe, interps, f.left, x)
    right = interpret_by_definition(universe, interps, f.right, x)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (universe - left) | right
    raise TypeError(f"definitional oracle cannot evaluate {f!r}")


def truth_set_by_definition(universe: frozenset, interps: dict, f) -> frozenset:
    """The states that lie in their own interpretation of ``f``."""
    return frozenset(
        x for x in universe if x in interpret_by_definition(universe, interps, f, x)
    )


def pointwise_coherent(interp: dict) -> bool:
    """Membership-chasing definition: y in p(x) forces y in p(y)."""
    return all(y in interp[y] for x in interp for y in interp[x])


def truth_set_by_membership(interp: dict) -> frozenset:
    return frozenset(x for x in interp if x in interp[x])


def event_probability(weights: dict, event: frozenset) -> Fraction:
    return sum((weights[x] for x in event), Fraction(0))


def mass_by_preimage(weights: dict, interp: dict) -> dict:
    """Group truth-set states by their interpretation; normalize by direct sums."""
    truth = truth_set_by_membership(interp)
    denominator = event_probability(weights, truth)
    assert denominator > 0, "oracle requires evidence of positive probability"
    masses: dict = {}
    for x in truth:
        event = interp[x]
        masses[event] = masses.get(event, Fraction(0)) + weights[x]
    return {e: w / denominator for e, w in masses.items() if w > 0}


def bel_by_definition(weights: dict, interp: dict, event: frozenset) -> Fraction:
    truth = truth_set_by_membership(interp)
    denominator = event_probability(weights, truth)
    assert denominator > 0
    numerator = sum(
        (weights[x] for x in truth if interp[x] <= event), Fraction(0)
    )
    return numerator / denominator


def bel_by_subset_sum(mass_dict: dict, event: frozenset) -> Fraction:
    return sum((w for e, w in mass_dict.items() if e <= event), Fraction(0))


def dempster_by_products(m1: dict, m2: dict) -> dict:
    combined: dict = {}
    normalizer = Fraction(0)
    for e1, w1 in m1.items():
        for e2, w2 in m2.items():
            meet = e1 & e2
            if not meet:
                continue
            combined[meet] = combined.get(meet, Fraction(0)) + w1 * w2
            normalizer += w1 * w2
    assert normalizer > 0, "oracle: total conflict"
    return {e: w / normalizer for e, w in combined.items()}


def pointwise_condition_by_terms(weights: dict, interp: dict, of_truth: frozenset) -> Fraction:
    """Term-by-term enumeration over the full powerset of interpretation events.

    Empty and zero-probability events contribute nothing; no renormalization.
    """
    states = list(weights)
    total = Fraction(0)
    survived = False
    for event in powerset(states):
        preimage_weight = sum(
            (weights[x] for x in states if interp[x] == event), Fraction(0)
        )
        prior = event_probability(weights, event)
        if not event or prior == 0:
            continue
        if any(interp[x] == event for x in states):
            survived = True
        total += event_probability(weights, of_truth & event) / prior * preimage_weight
    assert survived, "oracle: every term vanished"
    return total
