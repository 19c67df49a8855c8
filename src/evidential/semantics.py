"""Pointwise interpretation of formulas and truth-set computation.

The interpretation of a formula at a state is an event, built recursively:
an atom's interpretation comes from its valuation, negation complements,
conjunction intersects; disjunction and material implication evaluate via
their expansions.  A formula's truth set collects the states whose own
interpretation contains them.

Meaning entailment is special: ``left => right`` is true at a state exactly
when left's interpretation there is contained in right's.  Its truth set is
defined directly.  In extended mode the connective may also appear nested,
where it denotes the constant function returning that truth set; in strict
mode interpreting it pointwise is an error.

Every connective but ``=>`` acts pointwise, so the truth set of a formula
is the same Boolean combination of its atoms' truth sets as its
interpretation at a state is of their interpretations there.  One fold over
bit masks serves both: :func:`truth_set` folds the atoms' truth masks, and
:func:`interpretation_masks` folds the masks of their interpretations at a
state, once per state asked for.
Each ``=>`` node is evaluated once per call, by that same fold at every state.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import EntailmentModeError
from .formula import (
    And,
    Atom,
    Entails,
    Formula,
    Not,
    Or,
    STRICT,
    check_mode,
    contains_entailment,
    entailment_misplaced,
)
from .model import Model, StateSet

__all__ = ["interpret", "interpretation_masks", "truth_set"]

_NO_POINTWISE = "entailment (=>) has no pointwise interpretation in strict mode"


def interpret(model: Model, f: Formula, state: str, mode: str = STRICT) -> StateSet:
    """The interpretation of ``f`` at the named state."""
    check_mode(mode)
    i = model.space.index(state)
    return StateSet(model.space, interpretation_masks(model, f, mode, (i,))[0])


def interpretation_masks(model: Model, f: Formula, mode: str, indices: Iterable[int]) -> list[int]:
    """The mask of ``f``'s interpretation at each state index in ``indices``.

    The mode and the root are checked once, and the states share one
    evaluation of each nested ``=>``.
    """
    check_mode(mode)
    if contains_entailment(f) and mode == STRICT:
        raise EntailmentModeError(_NO_POINTWISE)
    memo: dict[int, int] = {}
    return [_fold(model, f, i, memo) for i in indices]


def truth_set(model: Model, f: Formula, mode: str = STRICT) -> StateSet:
    """The set of states where ``f`` is true."""
    check_mode(mode)
    if entailment_misplaced(f) and mode == STRICT:
        raise EntailmentModeError(_NO_POINTWISE)
    return StateSet(model.space, _fold(model, f, None, {}))


def _fold(model: Model, f: Formula, at: int | None, memo: dict[int, int]) -> int:
    """The mask of ``f``'s truth set when ``at`` is None, else of its
    interpretation at the state with index ``at``."""
    if isinstance(f, Atom):
        valuation = model.valuation(f.name)
        return valuation.truth_mask if at is None else valuation.sets[at].mask
    if isinstance(f, Not):
        return ((1 << len(model.space)) - 1) ^ _fold(model, f.operand, at, memo)
    if isinstance(f, Entails):
        return _entailment_mask(model, f, memo)
    left, right = _fold(model, f.left, at, memo), _fold(model, f.right, at, memo)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    return (((1 << len(model.space)) - 1) ^ left) | right


def _entailment_mask(model: Model, f: Entails, memo: dict[int, int]) -> int:
    """The states where left's interpretation is inside right's, computed
    once per node and call: ``memo`` is keyed by node identity."""
    if id(f) not in memo:
        memo[id(f)] = sum(
            1 << i
            for i in range(len(model.space))
            if _fold(model, f.left, i, memo) & ~_fold(model, f.right, i, memo) == 0
        )
    return memo[id(f)]
