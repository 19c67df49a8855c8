"""Variable-meaning semantics and evidentially supported belief.

Propositions are interpreted by *variable valuations*: each state of a
finite space carries its own reading of what a proposition means, so the
meaning itself is uncertain.  On top of this sit truth sets, a
meaning-entailment connective, and, given an exact-rational prior, a
conservative notion of belief supported by evidence that forms a
Dempster-Shafer belief function.
"""

import gc

# The imports allocate thousands of objects that all stay alive, so a collection that
# their allocations set off would free nothing: the collector is paused meanwhile and
# left as it was found.
_collecting = gc.isenabled()
gc.disable()
try:
    from .errors import (
        EntailmentModeError,
        EvidentialError,
        FormulaSyntaxError,
        ModelError,
        NestedEntailmentError,
        TotalConflictError,
        UndefinedConditioningError,
        UnknownAtomError,
    )
    from .formula import (
        EXTENDED,
        STRICT,
        And,
        Atom,
        Entails,
        Formula,
        Implies,
        Not,
        Or,
        format_formula,
        parse,
    )
    from .model import Model, StateSet, StateSpace, VariableValuation, lift_event
    from .semantics import interpret, truth_set
    from .belief import (
        MassFunction,
        ProbabilityMeasure,
        bel,
        degree,
        degree_given,
        dempster_combine,
        mass_from_evidence,
        pointwise_combine,
        pointwise_condition,
    )
    from .document import ModelDocument, load_document, parse_document
finally:
    if _collecting:
        gc.enable()
del gc, _collecting

__version__ = "0.1.0"

__all__ = [
    "And",
    "Atom",
    "Entails",
    "EntailmentModeError",
    "EvidentialError",
    "EXTENDED",
    "Formula",
    "FormulaSyntaxError",
    "Implies",
    "MassFunction",
    "Model",
    "ModelDocument",
    "ModelError",
    "NestedEntailmentError",
    "Not",
    "Or",
    "ProbabilityMeasure",
    "STRICT",
    "StateSet",
    "StateSpace",
    "TotalConflictError",
    "UndefinedConditioningError",
    "UnknownAtomError",
    "VariableValuation",
    "bel",
    "degree",
    "degree_given",
    "dempster_combine",
    "format_formula",
    "interpret",
    "lift_event",
    "load_document",
    "mass_from_evidence",
    "parse",
    "parse_document",
    "pointwise_combine",
    "pointwise_condition",
    "truth_set",
]
