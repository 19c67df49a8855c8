"""Formula AST, parser, and pretty-printer.

Concrete syntax::

    atom     ::= [A-Za-z_][A-Za-z0-9_]*
    operators:   ~ (not)   & (and)   | (or)   -> (implies)   => (entails)
    precedence:  ~  >  &  >  |  >  ->  >  =>
    & and | are left-associative; -> and => are right-associative;
    parentheses override.  Unicode aliases accepted on input:
    ``¬ ∧ ∨ → ⇒``.  Formulas nested deeper than :data:`MAX_NESTING` levels,
    or inside more open parentheses than that, are a syntax error.  Parsing
    and printing are loops; the depth and placement checks walk nothing, as
    each node records its depth and ``=>`` count when it is built.

Two placement modes govern the entailment connective ``=>``:

* ``strict`` (default): ``=>`` may only be the outermost connective, and
  its operands must be entailment-free.
* ``extended``: ``=>`` may nest; it then denotes the constant-valued
  formula whose interpretation everywhere is its own truth set.
"""

from __future__ import annotations

import re

from .errors import FormulaSyntaxError, NestedEntailmentError, _set, _Value, _shown

__all__ = [
    "Formula",
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Entails",
    "STRICT",
    "EXTENDED",
    "parse",
    "format_formula",
]

STRICT = "strict"
EXTENDED = "extended"


class Formula(_Value):
    """Base class for formula AST nodes; each records its depth and ``=>`` count."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


def _node(f: object) -> Formula:
    if not isinstance(f, (Atom, Not, _Binary)):
        raise TypeError(f"not a formula node: {f!r}")
    return f


class Atom(Formula):
    __slots__ = _fields = ("name",)
    _depth = _entailments = 0

    def __init__(self, name: str):
        _set(self, "name", name)


class Not(Formula):
    __slots__ = ("operand", "_depth", "_entailments")
    _fields = ("operand",)

    def __init__(self, operand: Formula):
        _set(self, "operand", _node(operand))
        _set(self, "_depth", operand._depth + 1)
        _set(self, "_entailments", operand._entailments)


class _Binary(Formula):
    __slots__ = ("left", "right", "_depth", "_entailments")
    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", _node(left))
        _set(self, "right", _node(right))
        _set(self, "_depth", max(left._depth, right._depth) + 1)
        _set(self, "_entailments", left._entailments + right._entailments + isinstance(self, Entails))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    """Material implication; an abbreviation for ``~left | right``."""

    __slots__ = ()


class Entails(_Binary):
    """Meaning entailment: true where left's interpretation is contained in right's."""

    __slots__ = ()


def check_mode(mode: str) -> None:
    if mode not in (STRICT, EXTENDED):
        raise ValueError(f"mode must be {STRICT!r} or {EXTENDED!r}, got {_shown(mode)}")


def contains_entailment(f: Formula) -> bool:
    return _node(f)._entailments > 0


def entailment_misplaced(f: Formula) -> bool:
    """True when entailment occurs other than as the single outermost connective."""
    return _node(f)._entailments != isinstance(f, Entails)


_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<atom>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<entails>=>|⇒)
    | (?P<implies>->|→)
    | (?P<not>~|¬)
    | (?P<and>&|∧)
    | (?P<or>\||∨)
    | (?P<lparen>\()
    | (?P<rparen>\))
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos + 1)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


# Deepest nesting accepted from text, as formula depth and as open parentheses.
# It keeps the recursive evaluator in :mod:`.semantics` inside Python's limit.
MAX_NESTING = 100
_TOO_DEEP = f"formula nested deeper than {MAX_NESTING} levels"

# Binding strength, loosest first, for the parser's grouping and the printer's
# parentheses.  ``None`` is an open parenthesis on the parser's stack.
_LEVEL = {None: 0, Entails: 1, Implies: 2, Or: 3, And: 4, Not: 5, Atom: 6}
_BINARY = {"entails": Entails, "implies": Implies, "or": Or, "and": And}
_RIGHT_ASSOCIATIVE = (Entails, Implies)


def parse(text: str, mode: str = STRICT) -> Formula:
    """Parse formula text into an AST.

    Raises :class:`FormulaSyntaxError` on malformed input or nesting deeper
    than :data:`MAX_NESTING`, and :class:`NestedEntailmentError` when strict
    mode finds a nested ``=>``.
    """
    check_mode(mode)
    tokens = _tokenize(text)
    operands: list[Formula] = []
    pending: list = []  # operators and open parentheses, as in _LEVEL
    parens = 0
    want_operand = True
    for kind, value, position in tokens:
        if want_operand:
            if kind == "atom":
                operands.append(Atom(value))
                want_operand = False
            elif kind == "not":
                pending.append(Not)
            elif kind == "lparen":
                parens += 1
                if parens > MAX_NESTING:
                    raise FormulaSyntaxError(_TOO_DEEP, position)
                pending.append(None)
            elif kind == "end":
                raise FormulaSyntaxError("unexpected end of input", position)
            else:
                raise FormulaSyntaxError(f"unexpected {_shown(value)}", position)
            continue
        node = _BINARY.get(kind)
        # Join what binds tighter, and an equal left-associative operator.
        # Any other token joins everything back to the open parenthesis.
        floor = _LEVEL[node] + (node in _RIGHT_ASSOCIATIVE) if node else 1
        while pending and _LEVEL[pending[-1]] >= floor:
            operator = pending.pop()
            if operator is Not:
                operands[-1] = Not(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = operator(operands[-1], right)
        if node:
            pending.append(node)
            want_operand = True
        elif kind == "rparen" and parens:
            pending.pop()
            parens -= 1
        elif kind == "end" and parens:
            raise FormulaSyntaxError("unexpected end of input (expected rparen)", position)
        elif parens:
            raise FormulaSyntaxError(f"expected rparen, found {_shown(value)}", position)
        elif kind != "end":
            raise FormulaSyntaxError(f"unexpected {_shown(value)} after formula", position)
    f = operands[0]
    if f._depth > MAX_NESTING:
        raise FormulaSyntaxError(_TOO_DEEP)
    if mode == STRICT and entailment_misplaced(f):
        raise NestedEntailmentError(
            "entailment (=>) may only be the outermost connective in strict mode"
        )
    return f


_SYMBOL = {Entails: " => ", Implies: " -> ", Or: " | ", And: " & "}


def format_formula(f: Formula) -> str:
    """Emit minimally parenthesized text that reparses to an identical AST."""
    text = []
    # Text still to emit, and nodes with their parent's level and whether they
    # stand on its weak side, where an equal level needs parentheses.
    stack: list = [(f, 0, False)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            text.append(item)
            continue
        g, parent_level, weak_side = item
        kind = type(g)
        level = _LEVEL[kind]
        if kind is Atom:
            text.append(g.name)
        elif kind is Not:
            text.append("~")
            stack.append((g.operand, level, False))
        else:
            right_associative = kind in _RIGHT_ASSOCIATIVE
            wrap = level < parent_level or level == parent_level and weak_side
            stack += (")" if wrap else "", (g.right, level, not right_associative),
                      _SYMBOL[kind], (g.left, level, right_associative))
            text.append("(" if wrap else "")
    return "".join(text)
