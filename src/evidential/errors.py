"""Exception types shared across the package."""


class EvidentialError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(EvidentialError):
    """Invalid state space, valuation, model, measure, mass function, or document."""


class UnknownStateError(ModelError):
    """A state name, or a value standing for one, is not declared in the space."""

    def __init__(self, name: object):
        super().__init__(f"unknown state: {name!r}")
        self.name = name


class UnknownAtomError(EvidentialError):
    """A formula or query referenced an atom the model does not define."""

    def __init__(self, atom: str):
        super().__init__(f"unknown atom: {atom!r}")
        self.atom = atom


class FormulaSyntaxError(EvidentialError):
    """The formula text could not be parsed.

    ``position`` is the 1-based character offset of the offending token,
    or ``None`` when the error is structural rather than lexical.
    """

    def __init__(self, message: str, position: "int | None" = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NestedEntailmentError(FormulaSyntaxError):
    """Strict mode only allows the entailment connective outermost."""


class EntailmentModeError(EvidentialError):
    """An entailment connective was interpreted pointwise in strict mode."""


class UndefinedConditioningError(EvidentialError):
    """Conditioning on an event of probability zero is undefined."""


class TotalConflictError(EvidentialError):
    """Dempster combination is undefined when all mass pairs conflict."""
