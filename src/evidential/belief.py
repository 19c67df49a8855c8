"""Exact-rational probability, evidentially supported belief, and mass functions.

Everything here is exact; there is no floating point anywhere, so all
identities hold exactly.  A measure keeps int numerators over one common
denominator, so the probability of an event is one int sum, and evidence
groups those ints by the bit mask of its meaning into a mass function's int
numerators, so a belief is one int sum too.  Values cross the API as
:class:`fractions.Fraction` and :class:`~evidential.model.StateSet`.

Given a prior over a model's state space and an evidence formula, the
*evidentially supported belief* in an event is the conditional probability,
given that the evidence is true, that the evidence's interpretation entails
the event.  Grouping states by which event is the evidence's correct
interpretation induces a mass function, and :func:`bel` is computed as that
mass function's belief function.  Two ways to merge evidence are provided:
classical Dempster combination of mass functions, and pointwise combination,
which conjoins the evidence formulas and only ever intersects
interpretations indexed by the same underlying state.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import mul
from types import MappingProxyType

from .errors import ModelError, TotalConflictError, UndefinedConditioningError, _set, _Value, _shown
from .formula import And, Formula, STRICT
from .model import Model, StateSet, StateSpace, _selectors
from .semantics import interpretation_masks, truth_set

__all__ = [
    "ProbabilityMeasure", "MassFunction", "degree", "degree_given", "bel", "mass_from_evidence",
    "dempster_combine", "pointwise_combine", "pointwise_condition",
]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ModelError(f"weights must be exact rationals, got float {value!r}")
    try:
        return Fraction(value)
    except (ArithmeticError, TypeError, ValueError):
        raise ModelError(f"weights must be exact rationals, got {_shown(value)}") from None


def _rational(value: Fraction, what: str) -> str:
    """``value`` as message text; past the interpreter's int-digit limit,
    where ``str`` raises ``ValueError``, ``what`` with a note instead."""
    try:
        return str(value)
    except ValueError:
        return f"{what} whose numerals exceed the integer digit limit"


def _over_common_denominator(values: Mapping) -> tuple[dict, int]:
    """Each value's numerator over the lcm of the values' denominators, by its
    key, and that lcm."""
    denominator = lcm(*(v.denominator for v in values.values()))
    return {key: v.numerator * (denominator // v.denominator) for key, v in values.items()}, denominator


def _check_sum(numerators: Iterable[int], denominator: int, what: str) -> None:
    """Check that ``numerators`` sum to ``denominator``: one int sum instead of
    a Fraction addition, each with its own gcd, per value."""
    total = sum(numerators)
    if total != denominator:
        got = _rational(Fraction(total, denominator), "a sum")
        raise ModelError(f"{what} must sum to 1, got {got}")


def _unchecked(cls, space: StateSpace, numerators, denominator: int):
    """A ``cls`` value of ints already checked: ``numerators`` summing to
    ``denominator``, for a mass function positive and keyed by nonzero mask."""
    value = object.__new__(cls)
    _set(value, "space", space)
    _set(value, "numerators", numerators)
    _set(value, "denominator", denominator)
    return value


class ProbabilityMeasure(_Value):
    """Exact nonnegative weights per state, summing to one.

    The weights are kept as int ``numerators`` over one ``denominator``, not
    as the caller's objects; ``weights`` derives them as Fractions on each read.
    """

    __slots__ = ("space", "numerators", "denominator")
    _fields = ("space", "weights")

    def __new__(cls, space: StateSpace, weights: Iterable[object]):
        # Each distinct weight object is converted, checked and scaled once: a
        # document's states share one Fraction per distinct weight text.
        weights = tuple(weights)
        distinct = dict(zip(map(id, weights), weights))
        fractions = dict(zip(distinct, map(_as_fraction, distinct.values())))
        if len(weights) != len(space):
            raise ModelError(f"measure must weight all {len(space)} states, got {len(weights)}")
        if any(w.numerator < 0 for w in fractions.values()):
            for name, w in zip(space.states, map(fractions.__getitem__, map(id, weights))):
                if w.numerator < 0:
                    raise ModelError(f"negative weight {_rational(w, 'one')} for state {_shown(name)}")
        scaled, denominator = _over_common_denominator(fractions)
        numerators = tuple(map(scaled.__getitem__, map(id, weights)))
        _check_sum(numerators, denominator, "weights")
        return _unchecked(cls, space, numerators, denominator)

    @classmethod
    def from_weights(cls, space: StateSpace, weights: Mapping[str, object]) -> ProbabilityMeasure:
        """Build a measure from a state-name to rational mapping; must be total."""
        return cls(space, space.table(weights, lambda state, weight: weight,
                                      "measure missing weight for state "))

    @property
    def weights(self) -> tuple[Fraction, ...]:
        denominator = self.denominator
        return tuple(Fraction(n, denominator) for n in self.numerators)

    def _members(self, event: StateSet) -> bytes:
        if not isinstance(event, StateSet):
            raise ModelError(f"event must be a StateSet, got {_shown(event)}")
        if event.space != self.space:
            raise ModelError("event is over a different state space")
        return _selectors(event.mask)

    def of(self, event: StateSet) -> Fraction:
        """The probability of an event: the sum of its states' weights."""
        return Fraction(sum(compress(self.numerators, self._members(event))), self.denominator)

    def of_state(self, name: str) -> Fraction:
        return Fraction(self.numerators[self.space.index(name)], self.denominator)

    def condition(self, event: StateSet) -> ProbabilityMeasure:
        """Bayesian conditioning on an event of positive probability: the
        numerators inside the event, over their sum."""
        selectors = self._members(event).ljust(len(self.space), b"\0")
        total = sum(compress(self.numerators, selectors))
        if total == 0:
            raise UndefinedConditioningError(f"cannot condition on event {event} of probability zero")
        posterior = tuple(map(mul, self.numerators, selectors))
        return _unchecked(ProbabilityMeasure, self.space, posterior, total)

    def items(self) -> Iterator[tuple[str, Fraction]]:
        return zip(self.space.states, self.weights)


class MassFunction(_Value):
    """Exact positive masses on nonempty events, summing to one.

    Only nonzero entries are stored; the empty set never carries mass.
    Equality is structural: same space, same sparse entries.  The masses are
    kept as int ``numerators`` keyed by focal-set mask over one ``denominator``,
    not as the caller's objects; ``masses`` derives its mapping on each read.
    """

    __slots__ = ("space", "numerators", "denominator")
    _fields = ("space", "masses")

    def __new__(cls, space: StateSpace, masses: Mapping[StateSet, object]):
        entries = {}
        for event, mass in masses.items():
            if not isinstance(event, StateSet):
                raise ModelError(f"mass entries must be keyed by StateSet, got {_shown(event)}")
            if event.space != space:
                raise ModelError("mass entry is over a different state space")
            mass = _as_fraction(mass)
            if mass < 0:
                raise ModelError(f"mass for {event} must be positive, got {_rational(mass, 'one')}")
            if mass == 0:
                continue
            if event.mask == 0:
                raise ModelError("the empty set cannot carry mass")
            entries[event.mask] = mass
        numerators, denominator = _over_common_denominator(entries)
        _check_sum(numerators.values(), denominator, "masses")
        return _unchecked(cls, space, MappingProxyType(numerators), denominator)

    @property
    def masses(self) -> Mapping[StateSet, Fraction]:
        space, denominator = self.space, self.denominator
        return MappingProxyType({StateSet(space, m): Fraction(n, denominator)
                                 for m, n in self.numerators.items()})

    @classmethod
    def vacuous(cls, space: StateSpace) -> MassFunction:
        """All mass on the full space: total ignorance."""
        return _unchecked(cls, space, MappingProxyType({space.full().mask: 1}), 1)

    def of(self, event: StateSet) -> Fraction:
        if event.__class__ is StateSet and event.space == self.space:
            return Fraction(self.numerators.get(event.mask, 0), self.denominator)
        return self.masses.get(event, Fraction(0))  # not a key; raises as a dict does if unhashable

    def items(self) -> list[tuple[StateSet, Fraction]]:
        """Entries sorted by bit-vector encoding, for deterministic output."""
        return sorted(self.masses.items(), key=lambda entry: entry[0].mask)

    def belief(self, event: StateSet) -> Fraction:
        """Total mass of all stored subsets of the event."""
        if not isinstance(event, StateSet):
            raise ModelError(f"event must be a StateSet, got {_shown(event)}")
        if event.space is not self.space and event.space != self.space:
            raise ModelError("state sets belong to different state spaces")
        outside = ~event.mask
        return Fraction(sum(n for m, n in self.numerators.items() if not m & outside), self.denominator)


def degree(model: Model, measure: ProbabilityMeasure, f: Formula, mode: str = STRICT) -> Fraction:
    """Degree of belief in a formula: the probability of its truth set."""
    return measure.of(truth_set(model, f, mode))


def degree_given(
    model: Model, measure: ProbabilityMeasure, of: Formula, given: Formula, mode: str = STRICT
) -> Fraction:
    """Conditional degree of belief: probability of one truth set given another."""
    evidence_set = truth_set(model, given, mode)
    return measure.condition(evidence_set).of(truth_set(model, of, mode))


def _meaning_weights(
    model: Model, measure: ProbabilityMeasure, evidence: Formula, mode: str, states: StateSet
) -> dict[int, int]:
    """The prior weight of ``states``, as numerators over the measure's
    denominator, grouped by the mask of the evidence's meaning at each."""
    if measure.space != model.space:
        raise ModelError("measure is over a different state space")
    selectors = _selectors(states.mask)
    meanings = interpretation_masks(model, evidence, mode, compress(range(len(model.space)), selectors))
    groups: dict[int, int] = {}
    for meaning, weight in zip(meanings, compress(measure.numerators, selectors)):
        groups[meaning] = groups.get(meaning, 0) + weight
    return groups


def bel(
    model: Model, measure: ProbabilityMeasure, evidence: Formula, event: StateSet, mode: str = STRICT
) -> Fraction:
    """Evidentially supported belief in an event.

    The conditional probability, given that the evidence is true, that the
    evidence's interpretation entails the event: the evidence must not
    merely accompany the event but guarantee it.  It is the belief function
    of :func:`mass_from_evidence`.
    """
    return mass_from_evidence(model, measure, evidence, mode).belief(event)


def mass_from_evidence(
    model: Model, measure: ProbabilityMeasure, evidence: Formula, mode: str = STRICT
) -> MassFunction:
    """The mass function induced by evidence under a prior.

    Each event in the image of the evidence's valuation receives the
    conditional probability that it is the correct interpretation.
    """
    evidence_set = truth_set(model, evidence, mode)
    if measure.of(evidence_set) == 0:
        raise UndefinedConditioningError(
            f"evidence {evidence} has probability zero; belief is undefined")
    groups = _meaning_weights(model, measure, evidence, mode, evidence_set)
    numerators = {m: w for m, w in groups.items() if w}  # no mask is zero: each holds its state
    return _unchecked(MassFunction, model.space, MappingProxyType(numerators), sum(numerators.values()))


def dempster_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule: normalized products over all intersecting pairs."""
    for m in (m1, m2):
        if not isinstance(m, MassFunction):
            raise ModelError(f"Dempster's rule combines MassFunctions, got {_shown(m)}")
    if m1.space != m2.space:
        raise ModelError("mass functions are over different state spaces")
    combined: dict[StateSet, Fraction] = {}
    normalizer = Fraction(0)
    masses2 = m2.masses.items()
    for e1, w1 in m1.masses.items():
        for e2, w2 in masses2:
            meet = e1 & e2
            if meet.mask == 0:
                continue
            product = w1 * w2
            combined[meet] = combined.get(meet, Fraction(0)) + product
            normalizer += product
    if normalizer == 0:
        raise TotalConflictError("total conflict: every pair of focal sets is disjoint")
    return MassFunction(m1.space, {e: w / normalizer for e, w in combined.items()})


def pointwise_combine(
    model: Model, measure: ProbabilityMeasure, evidence1: Formula, evidence2: Formula,
    mode: str = STRICT,
) -> MassFunction:
    """Combine two bodies of evidence by conjoining them.

    Interpretations are intersected pointwise, so only sets indexed by the
    same underlying state ever meet; contrast with :func:`dempster_combine`,
    where any two overlapping focal sets contribute.
    """
    return mass_from_evidence(model, measure, And(evidence1, evidence2), mode)


def pointwise_condition(
    model: Model, measure: ProbabilityMeasure, of: Formula, evidence: Formula, mode: str = STRICT
) -> Fraction:
    """EXPLORATORY: average conditional probability over interpretation events.

    Weights the probability of ``of``'s truth set conditional on each event
    the evidence might mean by the prior probability that it means it.
    Convention: the empty interpretation and interpretations of prior
    probability zero contribute nothing (their conditionals are undefined),
    and the surviving weights are NOT renormalized, so the result of a
    tautology can fall below one.  Raises when every term vanishes.
    """
    of_mask = truth_set(model, of, mode).mask
    groups = _meaning_weights(model, measure, evidence, mode, model.space.full())
    numerators = measure.numerators
    terms = []  # P(of | meaning) * P(meaning is meant) = (inside / probability) * (weight / denominator)
    for meaning, weight in groups.items():
        probability = sum(compress(numerators, _selectors(meaning)))  # zero for the empty meaning
        if probability:
            terms.append((sum(compress(numerators, _selectors(of_mask & meaning))) * weight, probability))
    if not terms:
        raise UndefinedConditioningError(
            "every interpretation of the evidence has probability zero or is empty"
        )
    common = lcm(*(probability for _, probability in terms))  # one sum over it, not a Fraction per term
    return Fraction(sum(product * (common // probability) for product, probability in terms),
                    common * measure.denominator)
