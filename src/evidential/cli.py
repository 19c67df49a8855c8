"""Command-line front end.

Exit codes: 0 success, 2 parse/validation error, 3 undefined operation
(zero-probability conditioning or total conflict), 4 usage error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import fixtures
from .belief import (
    MassFunction,
    bel,
    degree,
    degree_given,
    dempster_combine,
    mass_from_evidence,
    pointwise_combine,
    pointwise_condition,
)
from .document import ModelDocument, load_document
from .errors import EvidentialError, ModelError, TotalConflictError, UndefinedConditioningError, _shown
from .formula import EXTENDED, STRICT, parse
from .model import StateSet
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_document(ref: str) -> ModelDocument:
    if os.path.exists(ref):  # False, not OSError, for a name past the file-name limit
        return load_document(ref)
    if ref in fixtures.FIXTURE_NAMES:
        return getattr(fixtures, ref)()
    raise ModelError(f"model {_shown(ref)} is neither a file nor a bundled fixture")


def _parse_event(document: ModelDocument, text: str, mode: str) -> StateSet:
    """An event argument: an inline state set like ``{H-acc,H-sh}``, or a
    formula whose truth set is taken."""
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


def _emit_mass(out: _Output, mass: MassFunction) -> None:
    for event, weight in mass.items():
        out.entry("mass", str(event), weight)


def _decode_arguments(args, document: ModelDocument) -> None:
    """Replace the measure name, then each formula, then each event argument
    by its value, so that every handler gets them decoded and in one order."""
    given = vars(args)
    if "measure" in given:
        given["measure"] = document.measure(given["measure"])
    for key in ("formula", "of", "given", "evidence", "e1", "e2"):
        if given.get(key) is not None:
            given[key] = parse(given[key], args.mode)
    for key in ("event", "on"):
        if given.get(key) is not None:
            given[key] = _parse_event(document, given[key], args.mode)


def _cmd_check(args, document: ModelDocument, out: _Output) -> None:
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


def _cmd_truth_set(args, document: ModelDocument, out: _Output) -> None:
    out.value("truth_set", truth_set(document.model, args.formula, args.mode))


def _cmd_interpret(args, document: ModelDocument, out: _Output) -> None:
    out.value("interpretation", interpret(document.model, args.formula, args.state, args.mode))


def _cmd_cohere(args, document: ModelDocument, out: _Output) -> None:
    closure = document.model.coherence_closure(args.atom)
    for state, value in closure.items():
        out.entry("closure", state, value)


def _cmd_condition(args, document: ModelDocument, out: _Output) -> None:
    measure = args.measure if args.on is None else args.measure.condition(args.on)
    for state, weight in measure.items():
        out.entry("weight", state, weight)


def _cmd_bel(args, document: ModelDocument, out: _Output) -> None:
    out.value("bel", bel(document.model, args.measure, args.evidence, args.event, args.mode))


def _cmd_degree(args, document: ModelDocument, out: _Output) -> None:
    if args.given is None:
        result = degree(document.model, args.measure, args.of, args.mode)
    else:
        result = degree_given(document.model, args.measure, args.of, args.given, args.mode)
    out.value("degree", result)


def _cmd_mass(args, document: ModelDocument, out: _Output) -> None:
    _emit_mass(out, mass_from_evidence(document.model, args.measure, args.evidence, args.mode))


def _cmd_combine(args, document: ModelDocument, out: _Output) -> None:
    if args.rule == "dempster":
        mass = dempster_combine(
            mass_from_evidence(document.model, args.measure, args.e1, args.mode),
            mass_from_evidence(document.model, args.measure, args.e2, args.mode),
        )
    else:
        mass = pointwise_combine(document.model, args.measure, args.e1, args.e2, args.mode)
    _emit_mass(out, mass)


def _cmd_pointwise_condition(args, document: ModelDocument, out: _Output) -> None:
    result = pointwise_condition(document.model, args.measure, args.of, args.evidence, args.mode)
    out.value("exploratory", "true" if out.machine else EXPLORATORY_BANNER)
    out.value("pointwise_condition", result)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--mode", choices=[STRICT, EXTENDED], default=STRICT,
                        help="entailment placement mode (default: strict)")
    common.add_argument("--format", choices=["text", "machine"], default="text",
                        help="output format; machine is stable key=value lines")

    parser = _Parser(prog="evidential",
                     description="Variable-meaning semantics and evidentially supported belief.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def command(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("model", help="path to a model document, or a bundled fixture name")
        p.set_defaults(handler=handler)
        return p

    command("check", _cmd_check, "validate a model document and report per-atom coherence")

    p = command("truth-set", _cmd_truth_set, "print the states where a formula is true")
    p.add_argument("formula")

    p = command("interpret", _cmd_interpret, "print a formula's interpretation at a state")
    p.add_argument("formula")
    p.add_argument("state")

    p = command("cohere", _cmd_cohere, "print an atom's coherence closure, state by state")
    p.add_argument("atom")

    p = command("condition", _cmd_condition, "print a measure, optionally conditioned on an event")
    p.add_argument("--measure", required=True)
    p.add_argument("--on", help="formula or {state,...} set to condition on")

    p = command("bel", _cmd_bel, "evidentially supported belief in an event")
    p.add_argument("--measure", required=True)
    p.add_argument("--evidence", required=True)
    p.add_argument("--event", required=True, help="formula or {state,...} set")

    p = command("degree", _cmd_degree, "degree of belief in a formula, optionally conditional")
    p.add_argument("--measure", required=True)
    p.add_argument("--of", required=True)
    p.add_argument("--given")

    p = command("mass", _cmd_mass, "mass function induced by evidence")
    p.add_argument("--measure", required=True)
    p.add_argument("--evidence", required=True)

    p = command("combine", _cmd_combine, "combine two bodies of evidence into one mass function")
    p.add_argument("--measure", required=True)
    p.add_argument("--rule", choices=["dempster", "pointwise"], required=True)
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)

    p = command("pointwise-condition", _cmd_pointwise_condition,
                "EXPLORATORY: pointwise conditional degree of belief")
    p.add_argument("--measure", required=True)
    p.add_argument("--of", required=True)
    p.add_argument("--evidence", required=True)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        document = _resolve_document(args.model)
        _decode_arguments(args, document)
        out = _Output(machine=args.format == "machine")
        args.handler(args, document, out)
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
    sys.exit(code)


if __name__ == "__main__":
    main()
