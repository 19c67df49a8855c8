"""Formula AST, parser, and pretty-printer.

Concrete syntax::

    atom     ::= [A-Za-z_][A-Za-z0-9_]*
    operators:   ~ (not)   & (and)   | (or)   -> (implies)   => (entails)
    precedence:  ~  >  &  >  |  >  ->  >  =>
    & and | are left-associative; -> and => are right-associative;
    parentheses override.  Unicode aliases accepted on input:
    ``¬ ∧ ∨ → ⇒``.  Formulas nested deeper than :data:`MAX_NESTING` levels,
    or inside more open parentheses than that, are a syntax error.

Two placement modes govern the entailment connective ``=>``:

* ``strict`` (default): ``=>`` may only be the outermost connective, and
  its operands must be entailment-free.
* ``extended``: ``=>`` may nest; it then denotes the constant-valued
  formula whose interpretation everywhere is its own truth set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormulaSyntaxError, NestedEntailmentError

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


class Formula:
    """Base class for formula AST nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    """Material implication; an abbreviation for ``~left | right``."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Entails(Formula):
    """Meaning entailment: true where left's interpretation is contained in right's."""

    left: Formula
    right: Formula


def check_mode(mode: str) -> None:
    if mode not in (STRICT, EXTENDED):
        raise ValueError(f"mode must be {STRICT!r} or {EXTENDED!r}, got {mode!r}")


def contains_entailment(f: Formula) -> bool:
    if isinstance(f, Atom):
        return False
    if isinstance(f, Not):
        return contains_entailment(f.operand)
    if isinstance(f, Entails):
        return True
    if isinstance(f, (And, Or, Implies)):
        return contains_entailment(f.left) or contains_entailment(f.right)
    return False


def entailment_misplaced(f: Formula) -> bool:
    """True when entailment occurs other than as the single outermost connective."""
    operands = (f.left, f.right) if isinstance(f, Entails) else (f,)
    return any(map(contains_entailment, operands))


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


# Deepest nesting accepted from text, counted both as formula depth and as
# open parentheses.  It keeps every recursive walk of a parsed formula well
# inside Python's recursion limit.
MAX_NESTING = 100
_TOO_DEEP = f"formula nested deeper than {MAX_NESTING} levels"

# Binding strength, loosest first: it decides how the parser groups operands
# and where the printer needs parentheses.
_LEVEL = {Entails: 1, Implies: 2, Or: 3, And: 4, Not: 5, Atom: 6}
_BINARY = {kind: (node, _LEVEL[node]) for kind, node in
           (("entails", Entails), ("implies", Implies), ("or", Or), ("and", And))}
_RIGHT_ASSOCIATIVE = (Entails, Implies)
# Any other token closes a group: it binds looser than every operator.
_CLOSE = (None, 0)


class _Parser:
    """Operator-precedence parsing over a token list.

    Each parenthesized group is one shunting-yard pass, so operator chains
    and runs of ``~`` are loops and only parentheses recurse.
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.parens = 0
        self.entailments = 0

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse_group(self) -> Formula:
        """Operands joined by binary operators, up to the first other token."""
        operands = [self.parse_unary()]
        pending: list[tuple[type, int]] = []  # operator node and level
        while True:
            operator = _BINARY.get(self.tokens[self.pos][0], _CLOSE)
            node, level = operator
            # Join what binds tighter, and an equal left-associative operator.
            while pending and (
                pending[-1][1] > level
                or pending[-1][1] == level and node not in _RIGHT_ASSOCIATIVE
            ):
                right = operands.pop()
                operands[-1] = pending.pop()[0](operands[-1], right)
            if node is None:
                return operands[0]
            self.pos += 1
            if node is Entails:
                self.entailments += 1
            pending.append(operator)
            operands.append(self.parse_unary())

    def parse_unary(self) -> Formula:
        kind, text, position = self.advance()
        if kind == "atom":
            return Atom(text)
        if kind == "not":
            negations = 1
            while self.tokens[self.pos][0] == "not":
                self.pos += 1
                negations += 1
            f = self.parse_unary()
            for _ in range(negations):
                f = Not(f)
            return f
        if kind == "lparen":
            self.parens += 1
            if self.parens > MAX_NESTING:
                raise FormulaSyntaxError(_TOO_DEEP, position)
            f = self.parse_group()
            kind, text, position = self.advance()
            if kind != "rparen":
                raise FormulaSyntaxError(
                    f"expected rparen, found {text!r}" if kind != "end"
                    else "unexpected end of input (expected rparen)",
                    position,
                )
            self.parens -= 1
            return f
        if kind == "end":
            raise FormulaSyntaxError("unexpected end of input", position)
        raise FormulaSyntaxError(f"unexpected {text!r}", position)


def _depth(f: Formula) -> int:
    """The length of the longest path from ``f`` to an atom, found without recursion."""
    deepest = 0
    stack = [(f, 0)]
    while stack:
        g, depth = stack.pop()
        if isinstance(g, Atom):
            deepest = max(deepest, depth)
        elif isinstance(g, Not):
            stack.append((g.operand, depth + 1))
        else:
            stack += (g.left, depth + 1), (g.right, depth + 1)
    return deepest


def parse(text: str, mode: str = STRICT) -> Formula:
    """Parse formula text into an AST.

    Raises :class:`FormulaSyntaxError` on malformed input or nesting deeper
    than :data:`MAX_NESTING`, and :class:`NestedEntailmentError` when strict
    mode finds a nested ``=>``.
    """
    check_mode(mode)
    parser = _Parser(_tokenize(text))
    f = parser.parse_group()
    trailing = parser.tokens[parser.pos]
    if trailing[0] != "end":
        raise FormulaSyntaxError(f"unexpected {trailing[1]!r} after formula", trailing[2])
    # Every connective is a token, so only long text can nest too deep.
    if len(parser.tokens) > MAX_NESTING and _depth(f) > MAX_NESTING:
        raise FormulaSyntaxError(_TOO_DEEP)
    # Strict placement: the only `=>`, if any, is the outermost connective.
    if mode == STRICT and parser.entailments != (1 if isinstance(f, Entails) else 0):
        raise NestedEntailmentError(
            "entailment (=>) may only be the outermost connective in strict mode"
        )
    return f


_SYMBOL = {Entails: "=>", Implies: "->", Or: "|", And: "&"}


def format_formula(f: Formula) -> str:
    """Emit minimally parenthesized text that reparses to an identical AST."""
    return _format(f, 0, False)


def _format(f: Formula, parent_level: int, is_weak_side: bool) -> str:
    level = _LEVEL[type(f)]
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _format(f.operand, level, False)
    symbol = _SYMBOL[type(f)]
    if isinstance(f, _RIGHT_ASSOCIATIVE):
        text = f"{_format(f.left, level, True)} {symbol} {_format(f.right, level, False)}"
    else:
        text = f"{_format(f.left, level, False)} {symbol} {_format(f.right, level, True)}"
    if level < parent_level or (level == parent_level and is_weak_side):
        return "(" + text + ")"
    return text
