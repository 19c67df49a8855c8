"""Command-line front end.

A command is added by one entry of ``_COMMANDS``: its help text, its arguments and
the function that writes its result.  Each argument's entry in ``_ARGUMENTS`` gives its
kind (a measure name, a formula, an event, or plain text), which decides how ``run`` decodes it,
and its argparse options.  ``run`` reads a well-formed command line from these two tables
and leaves any other, such as ``--help`` or a usage error, to argparse.

Exit codes: 0 success, 2 parse/validation error, 3 undefined operation
(zero-probability conditioning or total conflict), 4 usage error.
"""

from __future__ import annotations

import gc
import os
import sys
from functools import cache, partial

from . import belief, fixtures
from .document import ModelDocument, load_document
from .errors import EvidentialError, ModelError, TotalConflictError, UndefinedConditioningError, _shown
from .formula import EXTENDED, STRICT, parse
from .semantics import interpret, truth_set

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNDEFINED = 3
EXIT_USAGE = 4

EXPLORATORY_BANNER = (
    "EXPLORATORY: pointwise conditioning averages over the evidence's possible "
    "interpretations; zero-probability interpretations are skipped and the "
    "surviving weights are not renormalized."
)

def _resolve_document(ref: str) -> ModelDocument:
    if os.path.exists(ref):  # False, not OSError, for a name past the file-name limit
        return load_document(ref)
    if ref in fixtures.FIXTURE_NAMES:
        return getattr(fixtures, ref)()
    raise ModelError(f"model {_shown(ref)} is neither a file nor a bundled fixture")


def _decode(kind: str, document: ModelDocument, text: str, mode: str):
    """An argument by its kind; an event is an inline set like ``{H-acc,H-sh}`` or a formula."""
    if kind == "measure":
        return document.measure(text)
    if kind == "formula":
        return parse(text, mode)
    stripped = text.strip()
    if stripped.startswith("{"):
        if not stripped.endswith("}"):
            raise ModelError(f"unterminated state set literal: {_shown(text)}")
        body = stripped[1:-1].strip()
        names = [n.strip() for n in body.split(",")] if body else []
        return document.model.space.subset(names)
    return truth_set(document.model, parse(text, mode), mode)


class _Output:
    """A command's result lines, written only once all of them are rendered."""

    def __init__(self, machine: bool):
        self.machine = machine
        self.lines: list[tuple[str, object]] = []  # prefix and value

    def value(self, key: str, value) -> None:
        self.lines.append((f"{key}=" if self.machine else "", value))

    def entry(self, key: str, label: str, value) -> None:
        self.lines.append((f"{key}[{label}]=" if self.machine else f"{label}: ", value))

    def render(self) -> str:
        texts: dict = {}  # each distinct (type, value) once: a closure repeats a few sets
        rendered = []
        try:
            for prefix, value in self.lines:
                key = value.__class__, value
                if key not in texts:
                    texts[key] = f"{value}"
                rendered.append(f"{prefix}{texts[key]}\n")
            return "".join(rendered)
        except ValueError:  # a numeral beyond the interpreter's int-digit limit
            raise EvidentialError("result numeral exceeds the integer digit limit") from None


def _value(key: str, result, out: _Output, document: ModelDocument, *arguments) -> None:
    """Write ``result(model, *arguments, mode)`` as one value."""
    out.value(key, result(document.model, *arguments))


def _entries(key: str, result, out: _Output, document: ModelDocument, *arguments) -> None:
    """Write ``result(model, *arguments, mode)``, a closure, measure or mass, entry by entry."""
    for label, value in result(document.model, *arguments).items():
        out.entry(key, str(label), value)


def _check(out: _Output, document: ModelDocument, mode: str) -> None:
    model = document.model
    if out.machine:
        out.value("states", len(model.space))
        out.value("atoms", len(model.atoms))
        out.value("measures", len(document.measures))
        for atom in model.atoms:
            out.entry("coherent", atom, "true" if model.is_coherent(atom) else "false")
    else:
        out.value("summary", f"ok: {len(model.space)} states, {len(model.atoms)} atoms, "
                             f"{len(document.measures)} measures")
        for atom in model.atoms:
            out.entry("coherent", f"atom {atom}", "coherent" if model.is_coherent(atom) else "incoherent")


def _condition(model, measure, on, mode):
    return measure if on is None else measure.condition(on)


def _degree(model, measure, of, given, mode):
    if given is None:
        return belief.degree(model, measure, of, mode)
    return belief.degree_given(model, measure, of, given, mode)


def _combine(model, measure, rule, e1, e2, mode):
    if rule == "dempster":
        return belief.dempster_combine(belief.mass_from_evidence(model, measure, e1, mode),
                                       belief.mass_from_evidence(model, measure, e2, mode))
    return belief.pointwise_combine(model, measure, e1, e2, mode)


def _pointwise_condition(out: _Output, document: ModelDocument, measure, of, evidence, mode) -> None:
    result = belief.pointwise_condition(document.model, measure, of, evidence, mode)
    out.value("exploratory", "true" if out.machine else EXPLORATORY_BANNER)
    out.value("pointwise_condition", result)


# Each argument: its kind, which decides how run decodes it, and its argparse options.
_ARGUMENTS = {
    "--mode": ("text", {"choices": [STRICT, EXTENDED], "default": STRICT,
                        "help": "entailment placement mode (default: strict)"}),
    "--format": ("text", {"choices": ["text", "machine"], "default": "text",
                          "help": "output format; machine is stable key=value lines"}),
    "model": ("text", {"help": "path to a model document, or a bundled fixture name"}),
    "formula": ("formula", {}),
    "state": ("text", {}),
    "atom": ("text", {}),
    "--measure": ("measure", {"required": True}),
    "--on": ("event", {"help": "formula or {state,...} set to condition on"}),
    "--evidence": ("formula", {"required": True}),
    "--event": ("event", {"required": True, "help": "formula or {state,...} set"}),
    "--of": ("formula", {"required": True}),
    "--given": ("formula", {}),
    "--rule": ("text", {"choices": ["dempster", "pointwise"], "required": True}),
    "--e1": ("formula", {"required": True}),
    "--e2": ("formula", {"required": True}),
}

# Each command: its help text, its arguments after --mode, --format and model, and its writer.
_COMMANDS = {
    "check": ("validate a model document and report per-atom coherence", (), _check),
    "truth-set": ("print the states where a formula is true", ("formula",),
                  partial(_value, "truth_set", truth_set)),
    "interpret": ("print a formula's interpretation at a state", ("formula", "state"),
                  partial(_value, "interpretation", interpret)),
    "cohere": ("print an atom's coherence closure, state by state", ("atom",),
               partial(_entries, "closure", lambda model, atom, mode: model.coherence_closure(atom))),
    "condition": ("print a measure, optionally conditioned on an event", ("--measure", "--on"),
                  partial(_entries, "weight", _condition)),
    "bel": ("evidentially supported belief in an event", ("--measure", "--evidence", "--event"),
            partial(_value, "bel", belief.bel)),
    "degree": ("degree of belief in a formula, optionally conditional", ("--measure", "--of", "--given"),
               partial(_value, "degree", _degree)),
    "mass": ("mass function induced by evidence", ("--measure", "--evidence"),
             partial(_entries, "mass", belief.mass_from_evidence)),
    "combine": ("combine two bodies of evidence into one mass function",
                ("--measure", "--rule", "--e1", "--e2"), partial(_entries, "mass", _combine)),
    "pointwise-condition": ("EXPLORATORY: pointwise conditional degree of belief",
                            ("--measure", "--of", "--evidence"), _pointwise_condition),
}


@cache  # once per process: parse_args does not change the parser
def build_parser():
    """The parser of the program and of every command, for a line that ``_read`` declines."""
    import argparse

    # Escapes for what str.splitlines() breaks at: a usage error, like every error, is one short line.
    line_breaks = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            message = message.translate(line_breaks)
            print("usage error:", message if len(message) <= 200 else message[:197] + "...",
                  file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    common = _Parser(add_help=False)  # copying its arguments is quicker than adding them again
    for argument in ("--mode", "--format", "model"):
        common.add_argument(argument, **_ARGUMENTS[argument][1])
    parser = _Parser(prog="evidential",
                     description="Variable-meaning semantics and evidentially supported belief.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (help_text, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for argument in arguments:
            p.add_argument(argument, **_ARGUMENTS[argument][1])
    return parser


def _read(argv: list) -> "dict | None":
    """What ``vars(build_parser().parse_args(argv))`` gives for a well-formed line, read
    from the tables: a command, then its own options by their full names, each once and with a
    value that does not start with ``-``, and its positionals, all present and valid.  None for
    any other line, which is left to argparse: help, a usage error, or a form argparse also
    accepts, such as ``--option=value``, an abbreviated or repeated option, or a value ``-1``."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    names = ("--mode", "--format", "model", *_COMMANDS[argv[0]][1])
    positionals = [name for name in names if not name.startswith("-")]
    values, options = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            values.append(token)
        elif token in names and token not in options:
            options[token] = next(tokens, "-")
            if options[token].startswith("-"):
                return None
        else:
            return None
    if len(values) != len(positionals):
        return None
    args = {"command": argv[0], **dict(zip(positionals, values))}
    for name in names:
        if name.startswith("-"):
            spec = _ARGUMENTS[name][1]
            value = options.get(name, spec.get("default"))
            if value is None and spec.get("required"):
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
            args[name.lstrip("-")] = value
    return args


def run(argv) -> int:
    argv = list(argv)
    args = _read(argv)
    if args is None:
        try:
            args = vars(build_parser().parse_args(argv))
        except SystemExit as exc:  # --help, or a usage error
            return int(exc.code or 0)
    _, arguments, write = _COMMANDS[args["command"]]
    values = [args[argument.lstrip("-")] for argument in arguments]
    try:
        document = _resolve_document(args["model"])
        for kind in ("measure", "formula", "event"):  # the order in which their errors take precedence
            for i, argument in enumerate(arguments):
                if _ARGUMENTS[argument][0] == kind and values[i] is not None:
                    values[i] = _decode(kind, document, values[i], args["mode"])
        out = _Output(machine=args["format"] == "machine")
        write(out, document, *values, args["mode"])
        sys.stdout.write(out.render())
        return EXIT_OK
    except (UndefinedConditioningError, TotalConflictError) as exc:
        print(f"undefined: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except EvidentialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    # One command on acyclic values, which reference counting frees; the cyclic
    # collector would only sweep the decoded document.
    gc.disable()
    try:
        code = run(sys.argv[1:])
        # Flush here, so that a reader that closed the pipe early is seen
        # inside this handler rather than at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader took what it wanted, which is not an error.  Python
        # flushes stdout again at exit; aim it at devnull to keep that quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    # Interpreter shutdown runs one full collection even with the collector off; frozen
    # objects are not scanned.  Shutdown is otherwise the usual one: atexit handlers run
    # and stdio is flushed.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
