"""Model documents: JSON serialization of spaces, valuations, and measures.

Document shape::

    {
      "states": ["H-acc", "H-sh", ...],
      "atoms": {
        "h":    {"*": ["H-acc", "H-sh", "H-st"]},
        "pbar": {"H-acc": ["H-acc", "H-sh"], ...one entry per state...}
      },
      "measures": {
        "pi": {"H-acc": "3/10", ...one entry per state...}
      }
    }

State order in ``states`` is canonical.  An atom maps every state to an
interpretation list, or uses the single key ``"*"`` as constant shorthand.
Weights are rational strings ``"a/b"`` or ``"n"``; floats are rejected so
no value is ever silently corrupted.  A valuation omitting a state is
rejected rather than defaulted.  Loading reads the text once; with ``"states"`` before ``"atoms"``,
it holds one atom's distinct member-list texts at a time and decodes each once.  Any key
order gives the same document, and every error is the one decoding the whole text gives.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from types import MappingProxyType

from .errors import ModelError, UnknownStateError, _set, _Value, _shown
from .model import Model, StateSpace, VariableValuation
from .belief import ProbabilityMeasure

__all__ = ["ModelDocument", "parse_document", "load_document"]

_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?\Z", re.ASCII)
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's insignificant whitespace
# A separator, then a key up to its colon: a key holding an escape still needs decoding.
_KEY = re.compile(r'[{,][ \t\n\r]*"([^"\\\x00-\x1f]*(?:\\.[^"\\\x00-\x1f]*)*)"[ \t\n\r]*:[ \t\n\r]*')
# In an object of lists: from the "]" that ends one list to the "[" that opens the next.
_NEXT_LIST = re.compile(r"\][ \t\n\r]*" + _KEY.pattern.replace("[{,]", ",", 1) + r"\[")
_decode = json.JSONDecoder().scan_once  # raw_decode's scanner: (value, end), or StopIteration if no value


class ModelDocument(_Value):
    """A parsed model file: the model plus a read-only copy of its named measures."""

    __slots__ = _fields = ("model", "measures")

    def __init__(self, model: Model, measures: Mapping[str, ProbabilityMeasure]):
        if not isinstance(model, Model) or not isinstance(measures, Mapping):
            raise ModelError(f"a document holds a Model and a mapping of measures, "
                             f"got {_shown(model)} and {_shown(measures)}")
        for name, measure in measures.items():
            if not (isinstance(name, str) and name and isinstance(measure, ProbabilityMeasure)
                    and measure.space == model.space):
                raise ModelError(f"a document maps nonempty names to measures over its space, "
                                 f"got {_shown(name)}: {_shown(measure)}")
        _set(self, "model", model)
        _set(self, "measures", MappingProxyType(dict(measures)))

    def measure(self, name: str) -> ProbabilityMeasure:
        try:
            return self.measures[name]
        except KeyError:
            raise ModelError(f"unknown measure: {_shown(name)}") from None


def _parse_rational(where: str, state: str, text: object) -> Fraction:
    match = _RATIONAL.match(text) if isinstance(text, str) else None
    if match is None:
        reason = f"expected a rational string like '3/10' or '1', got {_shown(text)}"
    else:
        try:
            numerator, denominator = map(int, match.groups("1"))
        except ValueError:  # a numeral beyond the interpreter's int-digit limit
            reason = "numeral exceeds the integer digit limit"
        else:
            if denominator:
                return Fraction(numerator, denominator)
            reason = f"zero denominator in {_shown(text)}"
    raise ModelError(f"{where}, state {_shown(state)}: {reason}")


def _parse_interpretation(space: StateSpace, atom: str, raw: object) -> VariableValuation:
    where = f"atom {_shown(atom)}"
    if not isinstance(raw, dict):
        raise ModelError(f"{where}: interpretation must be an object")
    if "*" in raw and len(raw) != 1:
        raise ModelError(f"{where}: '*' shorthand cannot be mixed with per-state entries")
    try:
        if "*" in raw:
            return VariableValuation.constant(space, _parse_members(where, space, raw["*"]))
        sets = space.table(raw, lambda state, members: _parse_members(where, space, members),
                           f"{where}: valuation missing interpretation for state ")
    except UnknownStateError as exc:
        raise ModelError(f"{where}: undeclared state {_shown(exc.name)}") from None
    return VariableValuation(space, sets)


def _parse_members(where: str, space: StateSpace, raw: object):
    if not isinstance(raw, list):
        raise ModelError(f"{where}: interpretation values must be lists of states")
    return space.subset(raw)


def parse_document(data: dict) -> ModelDocument:
    """Validate a decoded JSON object into a model and its measures."""
    return _document(data)


def _document(data: dict, space: "StateSpace | None" = None, atoms: "dict | None" = None) -> ModelDocument:
    """The checks of parse_document, in its order; a given ``space`` and ``atoms`` are used as built."""
    if not isinstance(data, dict):
        raise ModelError("model document must be a JSON object")
    unknown = set(data) - {"states", "atoms", "measures"}
    if unknown:
        raise ModelError(f"unknown document key: {_shown(sorted(unknown)[0])}")
    if "states" not in data or not isinstance(data["states"], list):
        raise ModelError("document must declare a 'states' list")
    space = StateSpace(tuple(data["states"])) if space is None else space
    if atoms is None:
        raw_atoms = data.get("atoms", {})
        if not isinstance(raw_atoms, dict):
            raise ModelError("'atoms' must be an object")
        atoms = {atom: _parse_interpretation(space, atom, raw) for atom, raw in raw_atoms.items()}
    model = Model(space, atoms)
    measures = {}
    raw_measures = data.get("measures", {})
    if not isinstance(raw_measures, dict):
        raise ModelError("'measures' must be an object")
    for name, raw in raw_measures.items():
        if not name:
            raise ModelError("measure names must be nonempty")
        where = f"measure {_shown(name)}"
        if not isinstance(raw, dict):
            raise ModelError(f"{where} must be an object")
        try:
            weights = space.table(raw, partial(_parse_rational, where),
                                  f"{where}: measure missing weight for state ")
        except UnknownStateError as exc:
            raise ModelError(f"{where}: undeclared state {_shown(exc.name)}") from None
        try:
            measures[name] = ProbabilityMeasure(space, weights)
        except ModelError as exc:
            raise ModelError(f"{where}: {exc}") from None
    return ModelDocument(model, measures)


def _walk_object(text: str, at: int, member, raw: "dict | None" = None) -> int:
    """Return the end of the JSON object at ``text[at]``, whose keys must be unique strings.
    ``member(key, start)`` returns the end of each value it decodes; the walk decodes the others
    into ``raw``, two or more lists with no "]" or "}" in a name in C-level passes over the text."""
    first = _KEY.match(text, at) if member is None and text.startswith("{", at) else None
    if first and text.startswith("[", first.end()) and _NEXT_LIST.match(text, text.find("]", first.end())):
        # The first list's text, then each key and its list's text, up to the first "}" and its "]".
        parts = _NEXT_LIST.split(text[first.end() + 1:(close := text.find("}", at))])
        parts[-1], bracket, rest = parts[-1].rpartition("]")
        keys, listed = [first[1], *parts[1::2]], parts[::2]
        if bracket and not rest.strip(" \t\n\r") and "]" not in "".join(listed):  # each ends at its "]"
            keys = [_decode(f'"{key}"', 0)[0] for key in keys] if "\\" in "".join(keys) else keys
            lists = {body: _decode(f"[{body}]", 0)[0] for body in dict.fromkeys(listed)}
            raw.update(zip(keys, map(lists.__getitem__, listed)))
            if len(raw) == len(keys):
                return close + 1
            raise ValueError("duplicate key")
    skip, keys, separator = _WHITESPACE.match, set(), "{"
    while text.startswith(separator, at):
        match = _KEY.match(text, at)
        if match is None:
            at = skip(text, at + 1).end()
            if keys or not text.startswith("}", at):
                break
            return at + 1  # the empty object "{}"
        key = match[1] if "\\" not in match[1] else _decode(f'"{match[1]}"', 0)[0]
        if key in keys:
            break
        keys.add(key)
        at = member(key, match.end()) if member else None
        if at is None:
            raw[key], at = _decode(text, match.end())
        at = skip(text, at).end()
        if text.startswith("}", at):
            return at + 1
        separator = ","
    raise ValueError("not a walkable object")


def load_document(path: "str | os.PathLike[str]") -> ModelDocument:
    """Read and validate a model document from disk, its text read once (see the module)."""
    try:
        # No newline translation, so that the (char N) of a JSON error counts the file's characters.
        with open(path, encoding="utf-8", newline="") as file:
            text = file.read()
    except OSError as exc:
        raise ModelError(f"cannot read model document {str(path)!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ModelError(f"model document {str(path)!r} is not UTF-8: {exc}") from None
    data, space, atoms = {}, None, {}

    def atom(name: str, at: int) -> int:
        end = _walk_object(text, at, None, raw := {})
        atoms[name] = _parse_interpretation(space, name, raw)
        return end

    def member(key: str, at: int) -> "int | None":
        nonlocal space
        if key == "atoms" and isinstance(data.get("states"), list):
            space = StateSpace(data["states"])
            return _walk_object(text, at, atom)
        return None  # the walk decodes it into data

    try:
        end = _walk_object(text, _WHITESPACE.match(text).end(), member, data)
        if _WHITESPACE.match(text, end).end() == len(text):
            return _document(data, space, None if "atoms" in data else atoms)
    except (ValueError, StopIteration, RecursionError, ModelError):
        data = atoms = None  # decoding the whole text gives each error its message and precedence
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        reason = str(exc)
    except ValueError:  # a JSON integer beyond the interpreter's int-digit limit
        reason = "numeral exceeds the integer digit limit"
    except RecursionError:
        reason = "nested too deeply"
    else:
        return parse_document(data)
    raise ModelError(f"invalid JSON in model document {str(path)!r}: {reason}")
