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

Because every connective but ``=>`` acts pointwise, the truth set of a
formula is the same Boolean combination of its parts' truth sets, so
:func:`truth_set` folds bit masks and needs per-state interpretations only
beneath a ``=>``.  Each ``=>`` node is evaluated once per call.
"""

from __future__ import annotations

from typing import Callable

from .errors import EntailmentModeError
from .formula import (
    And,
    Atom,
    Entails,
    Formula,
    Implies,
    Not,
    Or,
    STRICT,
    check_mode,
    contains_entailment,
    entailment_misplaced,
)
from .model import Model, StateSet

__all__ = ["interpret", "interpreter", "truth_set"]

_NO_POINTWISE = "entailment (=>) has no pointwise interpretation in strict mode"


def interpret(model: Model, f: Formula, state: str, mode: str = STRICT) -> StateSet:
    """The interpretation of ``f`` at the named state."""
    check_mode(mode)
    i = model.space.index(state)
    return interpreter(model, f, mode)(i)


def interpreter(model: Model, f: Formula, mode: str = STRICT) -> Callable[[int], StateSet]:
    """``f``'s interpretation as a function of state index.

    The calls share one evaluation of each nested ``=>``.
    """
    check_mode(mode)
    if mode == STRICT and contains_entailment(f):
        raise EntailmentModeError(_NO_POINTWISE)
    memo: dict[int, StateSet] = {}
    return lambda i: _interpret(model, f, i, memo)


def truth_set(model: Model, f: Formula, mode: str = STRICT) -> StateSet:
    """The set of states where ``f`` is true."""
    check_mode(mode)
    if mode == STRICT and entailment_misplaced(f):
        raise EntailmentModeError(_NO_POINTWISE)
    full = (1 << len(model.space)) - 1
    memo: dict[int, StateSet] = {}

    def fold(g: Formula) -> int:
        if isinstance(g, Atom):
            return model.valuation(g.name).truth_mask
        if isinstance(g, Not):
            return full ^ fold(g.operand)
        if isinstance(g, Entails):
            return _entailment_set(model, g, memo).mask
        if not isinstance(g, (And, Or, Implies)):
            raise TypeError(f"not a formula node: {g!r}")
        left, right = fold(g.left), fold(g.right)
        if isinstance(g, And):
            return left & right
        if isinstance(g, Or):
            return left | right
        return (full ^ left) | right

    return StateSet(model.space, fold(f))


def _interpret(model: Model, f: Formula, i: int, memo: dict[int, StateSet]) -> StateSet:
    if isinstance(f, Atom):
        return model.valuation(f.name).sets[i]
    if isinstance(f, Not):
        return _interpret(model, f.operand, i, memo).complement()
    if isinstance(f, And):
        return _interpret(model, f.left, i, memo) & _interpret(model, f.right, i, memo)
    if isinstance(f, Or):
        return _interpret(model, f.left, i, memo) | _interpret(model, f.right, i, memo)
    if isinstance(f, Implies):
        return _interpret(model, f.left, i, memo).complement() | _interpret(model, f.right, i, memo)
    if isinstance(f, Entails):
        return _entailment_set(model, f, memo)
    raise TypeError(f"not a formula node: {f!r}")


def _entailment_set(model: Model, f: Entails, memo: dict[int, StateSet]) -> StateSet:
    """The states where left's interpretation is inside right's, computed
    once per node and call: ``memo`` is keyed by node identity."""
    result = memo.get(id(f))
    if result is None:
        mask = 0
        for i in range(len(model.space)):
            if _interpret(model, f.left, i, memo) <= _interpret(model, f.right, i, memo):
                mask |= 1 << i
        result = memo[id(f)] = StateSet(model.space, mask)
    return result
