"""Exception types, and the base of the value classes, shared across the package."""

from math import log10
from types import MappingProxyType

__all__ = [
    "EvidentialError",
    "ModelError",
    "UnknownAtomError",
    "FormulaSyntaxError",
    "NestedEntailmentError",
    "EntailmentModeError",
    "UndefinedConditioningError",
    "TotalConflictError",
]


def _shown(value: object) -> str:
    """``repr(value)`` cut to 60 characters, so that a message stays one short line.

    It never raises: past the interpreter's int-digit limit, where ``repr``
    raises ``ValueError``, an int shows as ``<int of N digits>`` and any other
    value as a placeholder naming its type.
    """
    try:
        text = repr(value)
    except ValueError:
        if not isinstance(value, int):
            return f"<{type(value).__name__} holding an int past the digit limit>"
        n = abs(value)
        digits = int(log10(n)) + 1  # off by at most one, from float rounding
        return f"<int of {digits + (n >= 10 ** digits) - (n < 10 ** (digits - 1))} digits>"
    return text if len(text) <= 60 else text[:57] + "..."


class _Value:
    """An immutable value whose ``_fields``, set once when it is built, decide
    its equality, hash, ``repr`` and pickling."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(dict(v) if v.__class__ is MappingProxyType else v for v in self._values())


_set = object.__setattr__  # how a value class fills its fields when it is built


class EvidentialError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(EvidentialError):
    """Invalid state space, valuation, model, measure, mass function, or document."""


class UnknownStateError(ModelError):
    """A state name, or a value standing for one, is not declared in the space."""

    def __init__(self, name: object):
        super().__init__(f"unknown state: {_shown(name)}")
        self.name = name


class UnknownAtomError(EvidentialError):
    """A formula or query referenced an atom the model does not define."""

    def __init__(self, atom: str):
        super().__init__(f"unknown atom: {_shown(atom)}")
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
