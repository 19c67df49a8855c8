"""Finite state spaces, events as bit-vector sets, and variable valuations.

A *variable valuation* assigns to every state the event that is the correct
interpretation of a proposition at that state; constant valuations recover
classical events.  The truth set of a valuation collects the states whose
own interpretation contains them, and a valuation is *coherent* when every
interpretation entails the truth of the proposition it interprets.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from itertools import compress, repeat
from operator import is_
from types import MappingProxyType

from .errors import ModelError, UnknownAtomError, UnknownStateError, _set, _Value, _shown

__all__ = [
    "StateSpace",
    "StateSet",
    "VariableValuation",
    "Model",
    "lift_event",
]


class StateSpace(_Value):
    """An ordered, finite set of named states.

    Declaration order is canonical: it fixes each state's bit index and the
    order in which sets and measures are rendered.
    """

    __slots__ = ("states", "_bit", "_hash")
    _fields = ("states",)

    def __init__(self, states: Iterable[str]):
        states = tuple(states)
        if not states:
            raise ModelError("state space must be nonempty")
        # Each state's bit, so that decoding a member list costs one lookup a name.
        bit = {}
        for name in states:
            if not isinstance(name, str) or not name:
                raise ModelError(f"state names must be nonempty strings, got {_shown(name)}")
            if name in bit:
                raise ModelError(f"duplicate state name: {_shown(name)}")
            bit[name] = 1 << len(bit)
        _set(self, "states", states)
        _set(self, "_bit", bit)
        # Every StateSet hashes its space, so hash the names once.
        _set(self, "_hash", hash(states))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[str]:
        return iter(self.states)

    def index(self, name: str) -> int:
        try:
            return self._bit[name].bit_length() - 1
        except (KeyError, TypeError):
            raise UnknownStateError(name) from None

    def table(self, entries: Mapping, decode: Callable[[str, object], object], missing: str) -> tuple:
        """Decode a state-keyed table into state order: each key is checked, in
        table order, before ``decode(key, value)`` runs; then the first state
        without an entry raises ``missing`` followed by its name.  Each distinct
        ``str`` or nonempty ``list`` value is decoded once, at its first state;
        a value of another type, or one that fails, is never kept."""
        decoded, seen = {}, {}  # seen: a str, or a list's (length, first, last) -> (value, decoded)
        for key, value in entries.items():
            if key not in self._bit:
                raise UnknownStateError(key)
            memo = value if value.__class__ is str else None
            if value.__class__ is list and value:
                memo = len(value), value[0], value[-1]
            try:
                earlier, result = seen.get(memo, (None, None))
            except TypeError:  # an unhashable end item: decode the list, keep nothing
                earlier = memo = None
            if earlier is None or earlier is not value and earlier != value:
                result = decode(key, value)
                if memo is not None:
                    seen[memo] = value, result
            decoded[key] = result
        if len(decoded) < len(self.states):
            raise ModelError(missing + _shown(next(s for s in self.states if s not in decoded)))
        return tuple(map(decoded.__getitem__, self.states))

    def subset(self, names: Iterable[object]) -> StateSet:
        """The event containing exactly the given states.

        Raises :class:`UnknownStateError` naming the first value that is not
        a declared state, hashable or not.  A bare string is refused, not read
        as a list of one-character names.
        """
        if isinstance(names, str):
            raise ModelError(f"states must be given as a collection of names, not the string {_shown(names)}")
        bit = self._bit
        mask = 0
        for name in names:
            try:
                mask |= bit[name]
            except (KeyError, TypeError):
                raise UnknownStateError(name) from None
        return StateSet(self, mask)

    def singleton(self, name: str) -> StateSet:
        return StateSet(self, 1 << self.index(name))

    def empty(self) -> StateSet:
        return StateSet(self, 0)

    def full(self) -> StateSet:
        return StateSet(self, (1 << len(self.states)) - 1)

    def powerset(self) -> Iterator[StateSet]:
        """All 2^n subsets, in ascending bit-vector order."""
        for mask in range(1 << len(self.states)):
            yield StateSet(self, mask)


_DIGIT_TO_SELECTOR = bytes.maketrans(b"01", b"\x00\x01")


def _selectors(mask: int) -> bytes:
    """One byte per bit of ``mask``, lowest first, 1 where it is set: the
    selectors of :func:`itertools.compress`.  One C-level pass over the
    mask's binary digits; shifting the mask once per bit would cost O(n)
    per step."""
    return bin(mask)[:1:-1].encode("ascii").translate(_DIGIT_TO_SELECTOR)


class StateSet(_Value):
    """A subset of a state space, stored as a bit vector over state indices.

    All set algebra is exact.  Comparison operators are the subset order,
    as with ``frozenset``.
    """

    __slots__ = _fields = ("space", "mask")

    def __init__(self, space: StateSpace, mask: int):
        if not isinstance(mask, int):
            raise ModelError(f"set mask must be an int, got {_shown(mask)}")
        if not 0 <= mask < (1 << len(space.states)):
            raise ModelError(f"set mask {mask} out of range for {len(space)} states")
        _set(self, "space", space)
        _set(self, "mask", mask)

    # Written out, not field-driven: a StateSet is the hot dict key.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and (self.space is other.space or self.space == other.space)

    def __hash__(self) -> int:
        return hash((self.space._hash, self.mask))

    def _check_space(self, other: object) -> bool:
        """Whether ``other`` is a StateSet, which must be over this space; an
        operator returns NotImplemented for any other operand."""
        if other.__class__ is not StateSet:
            return False
        if self.space is not other.space and self.space != other.space:
            raise ModelError("state sets belong to different state spaces")
        return True

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.mask & self.space._bit.get(name, 0) != 0

    def __iter__(self) -> Iterator[str]:
        return compress(self.space.states, _selectors(self.mask))

    def indices(self) -> Iterator[int]:
        """The bit indices of the member states, ascending."""
        return compress(range(len(self.space)), _selectors(self.mask))

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __bool__(self) -> bool:
        return self.mask != 0

    def __and__(self, other: StateSet) -> StateSet:
        return StateSet(self.space, self.mask & other.mask) if self._check_space(other) else NotImplemented

    def __or__(self, other: StateSet) -> StateSet:
        return StateSet(self.space, self.mask | other.mask) if self._check_space(other) else NotImplemented

    def __sub__(self, other: StateSet) -> StateSet:
        return StateSet(self.space, self.mask & ~other.mask) if self._check_space(other) else NotImplemented

    def complement(self) -> StateSet:
        return StateSet(self.space, self.mask ^ self.space.full().mask)

    # ``>=`` and ``>`` are these, reflected.
    def __le__(self, other: StateSet) -> bool:
        return self.mask & ~other.mask == 0 if self._check_space(other) else NotImplemented

    def __lt__(self, other: StateSet) -> bool:
        return self <= other and self.mask != other.mask if self._check_space(other) else NotImplemented

    def names(self) -> tuple[str, ...]:
        return tuple(self)

    def __str__(self) -> str:
        return "{" + ",".join(self) + "}"


class VariableValuation(_Value):
    """A total map from states to events: each state's correct interpretation.

    ``sets[i]`` is the interpretation at the state with index ``i``, and
    ``truth_mask`` is the bit mask of :meth:`truth_set`, computed when the
    valuation is built.
    """

    __slots__ = ("space", "sets", "truth_mask")
    _fields = ("space", "sets")

    def __init__(self, space: StateSpace, sets: Iterable[StateSet]):
        sets = tuple(sets)
        if len(sets) != len(space):
            raise ModelError(f"valuation must cover all {len(space)} states, got {len(sets)}")
        # One set object at every state, as a constant valuation has, is checked once and is its truth set.
        shared = all(map(is_, sets, repeat(sets[0])))
        for s in sets[:1] if shared else sets:
            if not isinstance(s, StateSet):
                raise ModelError(f"valuation sets must be StateSets, got {_shown(s)}")
            if s.space is not space and s.space != space:
                raise ModelError("valuation contains a set over a different state space")
        _set(self, "space", space)
        _set(self, "sets", sets)
        _set(self, "truth_mask", sets[0].mask if shared else sum(s.mask & 1 << i for i, s in enumerate(sets)))

    @classmethod
    def from_mapping(cls, space: StateSpace, interp: Mapping[str, Iterable[str]]) -> VariableValuation:
        """Build a valuation from state name to member-name lists; must be total."""
        return cls(space, space.table(interp, lambda state, members: space.subset(members),
                                      "valuation missing interpretation for state "))

    @classmethod
    def constant(cls, space: StateSpace, value: StateSet) -> VariableValuation:
        """The valuation that interprets identically at every state."""
        if not isinstance(value, StateSet):
            raise ModelError(f"constant value must be a StateSet, got {_shown(value)}")
        if value.space != space:
            raise ModelError("constant value is over a different state space")
        return cls(space, (value,) * len(space))

    def items(self) -> Iterator[tuple[str, StateSet]]:
        return zip(self.space.states, self.sets)

    def is_constant(self) -> bool:
        return all(s == self.sets[0] for s in self.sets)

    def truth_set(self) -> StateSet:
        """The states whose own interpretation contains them."""
        return StateSet(self.space, self.truth_mask)

    def is_coherent(self) -> bool:
        """True iff every interpretation is contained in the truth set."""
        return all(s.mask & ~self.truth_mask == 0 for s in self.sets)

    def coherence_closure(self) -> VariableValuation:
        """Intersect every interpretation with the truth set.

        The result is coherent and has the same truth set; already-coherent
        valuations (constants in particular) come back unchanged.
        """
        truth = self.truth_set()
        return VariableValuation(self.space, tuple(s & truth for s in self.sets))


class Model(_Value):
    """A state space together with named atoms bound to variable valuations.

    Immutable after construction; all queries are pure.
    """

    __slots__ = _fields = ("space", "atoms")

    def __init__(self, space: StateSpace, atoms: Mapping[str, VariableValuation]):
        if not isinstance(space, StateSpace) or not isinstance(atoms, Mapping):
            raise ModelError(f"model needs a StateSpace and a mapping, got {_shown(space)}, {_shown(atoms)}")
        for name, valuation in atoms.items():
            if not isinstance(name, str) or not name:
                raise ModelError(f"atom names must be nonempty strings, got {_shown(name)}")
            if not isinstance(valuation, VariableValuation):
                raise ModelError(f"valuation for atom {_shown(name)} must be a VariableValuation, "
                                 f"got {_shown(valuation)}")
            if valuation.space != space:
                raise ModelError(f"valuation for atom {_shown(name)} is over a different state space")
        _set(self, "space", space)
        _set(self, "atoms", MappingProxyType(dict(atoms)))

    def valuation(self, atom: str) -> VariableValuation:
        try:
            return self.atoms[atom]
        except (KeyError, TypeError):
            raise UnknownAtomError(atom) from None

    def atom_truth_set(self, atom: str) -> StateSet:
        return self.valuation(atom).truth_set()

    def is_coherent(self, atom: str) -> bool:
        return self.valuation(atom).is_coherent()

    def coherence_closure(self, atom: str) -> VariableValuation:
        return self.valuation(atom).coherence_closure()


def lift_event(space: StateSpace, event: StateSet) -> VariableValuation:
    """Lift an event to the constant valuation whose truth set is that event."""
    return VariableValuation.constant(space, event)
