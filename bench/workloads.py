"""The three workloads: seeded inputs, the timed op, and its reference check.

Each workload builds its model document from the seed, writes it as JSON
and has the library load it; the program sees only that document and
formula texts.  Ops come in rounds of a fixed composition, so every seed
gives the same op-class mix and sizes and only the drawn atoms, formulas,
priors and states differ.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from evidential import (
    EXTENDED,
    STRICT,
    MassFunction,
    bel,
    degree_given,
    dempster_combine,
    fixtures,
    interpret,
    load_document,
    mass_from_evidence,
    parse,
    parse_document,
    pointwise_combine,
    pointwise_condition,
    truth_set,
)
from evidential.cli import EXPLORATORY_BANNER, run as cli_run

from reference import Reference, contains_entailment

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
COINFLIP_JSON = ROOT / "src" / "evidential" / "fixtures" / "coinflip.json"

# --- formulas as tuples, rendered fully parenthesized ------------------------

_SYMBOL = {"and": "&", "or": "|", "implies": "->", "entails": "=>"}


def render(f) -> str:
    if f[0] == "atom":
        return f[1]
    if f[0] == "not":
        return "~" + _operand(f[1])
    return f"{_operand(f[1])} {_SYMBOL[f[0]]} {_operand(f[2])}"


def _operand(f) -> str:
    return f[1] if f[0] == "atom" else "(" + render(f) + ")"


def random_formula(rng: random.Random, atoms, depth: int):
    """An entailment-free formula of exactly this depth: a random spine with
    shallow side branches."""
    if depth == 0:
        return ("atom", rng.choice(atoms))
    kind = rng.choice(("not", "and", "or", "implies", "and", "or"))
    deep = random_formula(rng, atoms, depth - 1)
    if kind == "not":
        return ("not", deep)
    side = random_formula(rng, atoms, rng.randint(0, min(2, depth - 1)))
    return (kind, deep, side) if rng.random() < 0.5 else (kind, side, deep)


# --- documents -----------------------------------------------------------------

def _states(n: int) -> list[str]:
    return [f"s{i}" for i in range(n)]


def _subset(rng, states, density):
    return [s for s in states if rng.random() < density]


def _random_atom(rng, states):
    """Every state has its own random reading, true at exactly half of the
    states, so that the atom has n/2 focal sets."""
    true = set(rng.sample(states, len(states) // 2))
    return {s: [x for x in states if (s in true if x == s else rng.random() < 0.5)] for s in states}


def _pooled_atom(rng, states, k, low, high):
    """Every state reads the atom as one of k pooled events; half of the
    states pick an event containing themselves where one exists."""
    pool = [sorted(rng.sample(range(len(states)), rng.randint(low, high))) for _ in range(k)]
    pool = [[states[i] for i in event] for event in pool]
    members = [set(event) for event in pool]
    interp = {}
    for s in states:
        own = [j for j in range(k) if s in members[j]]
        j = rng.choice(own) if own and rng.random() < 0.5 else rng.randrange(k)
        interp[s] = pool[j]
    return interp


def _prior(rng, states):
    weights = [rng.randint(1, 9) for _ in states]
    total = sum(weights)
    return {s: f"{w}/{total}" for s, w in zip(states, weights)}


def _write_document(doc: dict, name: str) -> tuple[Path, str]:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    return path, text


# --- results kept for checking -------------------------------------------------

def summarize(result):
    """What is kept of an op's result: masses shrink to an order-free digest."""
    if isinstance(result, MassFunction):
        return mass_digest((event.mask, weight) for event, weight in result.items())
    if isinstance(result, tuple):
        return tuple(summarize(r) for r in result)
    return result


def mass_digest(entries) -> int:
    return hash(frozenset(entries))


def reference_digest(ref: Reference, mass: dict) -> int:
    return mass_digest((ref.mask(event), weight) for event, weight in mass.items())


class Workload:
    """One workload: ``setup`` builds the program's inputs, ``round`` draws the
    next round of ops, ``execute`` is the timed op and ``check`` compares a
    kept result with the reference."""

    name = ""
    document = None
    doc_path: Path
    doc_text: str

    def __init__(self, seed: int, n: int):
        self.seed = seed
        self.n = n

    def rng(self, label) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{label}")

    def setup(self, tr) -> None:
        self.doc_path, self.doc_text = _write_document(self.generate(self.rng("doc")), f"{self.name}-model.json")
        self.document = tr.call("document.load_document", load_document, self.doc_path)
        if tr.enabled:
            tr.call("document.parse_document", parse_document, json.loads(self.doc_text))
        for op in self.warmup():
            self.execute(op, tr)

    def reference(self) -> Reference:
        return Reference(json.loads(self.doc_path.read_text(encoding="utf-8")))

    def replays(self, records) -> list[dict]:
        """CLI ops among the traced ones to replay in process."""
        return []


# --- query: formula + semantics + model ---------------------------------------

# (kind, depth) per slot: 16 entailment-free, 15 strict `=>` and 1 extended
# with a nested `=>`; every fourth slot also calls `interpret`.  The extended
# op is the slowest, and at one a round the tail percentile falls near its
# median rather than at its extremes.
QUERY_ROUND = (
    ("plain", 4), ("entails", 5), ("plain", 6), ("entails", 7),
    ("plain", 8), ("entails", 4), ("plain", 5), ("entails", 6),
    ("plain", 7), ("entails", 8), ("plain", 4), ("entails", 5),
    ("extended", 6), ("entails", 7), ("plain", 8), ("plain", 6),
    ("plain", 5), ("entails", 6), ("plain", 7), ("entails", 8),
    ("plain", 4), ("entails", 5), ("plain", 6), ("entails", 7),
    ("plain", 8), ("entails", 4), ("plain", 5), ("entails", 6),
    ("plain", 7), ("entails", 8), ("plain", 4), ("entails", 6),
)


class Query(Workload):
    name = "query"

    def __init__(self, seed: int, n: int = 512, atoms: int = 8):
        super().__init__(seed, n)
        self.atoms = [f"a{i}" for i in range(atoms)]
        self.seen: set[str] = set()

    def generate(self, rng):
        states = _states(self.n)
        return {
            "states": states,
            "atoms": {a: _random_atom(rng, states) for a in self.atoms},
            "measures": {"w": _prior(rng, states)},
        }

    def _formula(self, rng, kind, depth):
        if kind == "plain":
            return random_formula(rng, self.atoms, depth)
        if kind == "entails":
            return ("entails", random_formula(rng, self.atoms, depth - 1),
                    random_formula(rng, self.atoms, rng.randint(1, depth - 1)))
        nested = ("entails", ("atom", rng.choice(self.atoms)), ("atom", rng.choice(self.atoms)))
        rest = random_formula(rng, self.atoms, depth - 1)
        kind = rng.choice(("and", "or", "implies"))
        return (kind, nested, rest) if rng.random() < 0.5 else (kind, rest, nested)

    def _ops(self, rng, slots):
        ops = []
        for i, (kind, depth) in enumerate(slots):
            while True:
                f = self._formula(rng, kind, depth)
                text = render(f)
                if text not in self.seen:
                    break
            self.seen.add(text)
            state = f"s{rng.randrange(self.n)}" if i % 4 == 0 else None
            ops.append((kind, EXTENDED if kind == "extended" else STRICT, f, text, state))
        return ops

    def warmup(self):
        return self._ops(self.rng("warmup"), QUERY_ROUND[:4])

    def round(self, r: int):
        return self._ops(self.rng(r), QUERY_ROUND)

    def execute(self, op, tr):
        kind, mode, _, text, state = op
        model = self.document.model
        f = tr.call("formula.parse", parse, text, mode)
        span = "semantics.truth_set.plain" if kind == "plain" else "semantics.truth_set.entails"
        result = tr.call(span, truth_set, model, f, mode)
        if state is None:
            return result, None
        return result, tr.call("semantics.interpret", interpret, model, f, state, mode)

    def check(self, ref: Reference, op, kept) -> bool:
        _, _, f, _, state = op
        result, meaning = kept
        if frozenset(result) != ref.truth_set(f):
            return False
        return state is None or frozenset(meaning) == ref.interpret(f, state)


# --- evidence: belief --------------------------------------------------------

# Evidence atoms come in pairs per class: pooled from k events, or unpooled.
EVIDENCE_CLASSES = ("k4", "k16", "k64", "u")
EVIDENCE_OPS = ("bel", "mass", "degree", "dempster", "pointwise_combine", "pointwise_condition")
# Every op class on every evidence class, plus a second unpooled Dempster
# combination so that the slowest op class has at least two samples a round.
EVIDENCE_ROUND = tuple(
    (op, cls) for cls in EVIDENCE_CLASSES for op in EVIDENCE_OPS
) + (("dempster", "u"),)
EVENT_ATOMS = tuple(f"c{i}" for i in range(6))


class Evidence(Workload):
    name = "evidence"

    def __init__(self, seed: int, n: int = 256):
        super().__init__(seed, n)

    def generate(self, rng):
        states = _states(self.n)
        low, high = max(2, self.n // 8), max(2, self.n // 4)
        atoms = {}
        for cls in EVIDENCE_CLASSES:
            for suffix in "ab":
                if cls == "u":
                    atoms[cls + suffix] = _random_atom(rng, states)
                else:
                    atoms[cls + suffix] = _pooled_atom(rng, states, int(cls[1:]), low, high)
        for c in EVENT_ATOMS:
            atoms[c] = {"*": _subset(rng, states, 0.8)}
        return {
            "states": states,
            "atoms": atoms,
            "measures": {f"w{i}": _prior(rng, states) for i in range(4)},
        }

    def _ops(self, rng, slots):
        ops = []
        for kind, cls in slots:
            a, b = ("atom", cls + "a"), ("atom", cls + "b")
            evidence = rng.choice((a, b, ("and", a, b), ("or", a, b)))
            event = random_formula(rng, EVENT_ATOMS, rng.randint(1, 2))
            if kind in ("dempster", "pointwise_combine"):
                formulas = (a, b) if rng.random() < 0.5 else (b, a)
            elif kind == "mass":
                formulas = (evidence,)
            else:
                formulas = (evidence, event)
            ops.append((kind, cls, f"w{rng.randrange(4)}", formulas, tuple(render(f) for f in formulas)))
        return ops

    def warmup(self):
        return self._ops(self.rng("warmup"), [(op, "k4") for op in EVIDENCE_OPS])

    def round(self, r: int):
        return self._ops(self.rng(r), EVIDENCE_ROUND)

    def execute(self, op, tr):
        kind, _, measure_name, _, texts = op
        model = self.document.model
        measure = self.document.measure(measure_name)
        first, *rest = [tr.call("formula.parse", parse, text) for text in texts]
        if kind == "bel":
            event = tr.call("semantics.truth_set.plain", truth_set, model, rest[0])
            return tr.call("belief.bel", bel, model, measure, first, event)
        if kind == "mass":
            return tr.call("belief.mass_from_evidence", mass_from_evidence, model, measure, first)
        if kind == "degree":
            return tr.call("belief.degree_given", degree_given, model, measure, rest[0], first)
        if kind == "dempster":
            m1 = tr.call("belief.mass_from_evidence", mass_from_evidence, model, measure, first)
            m2 = tr.call("belief.mass_from_evidence", mass_from_evidence, model, measure, rest[0])
            tr.keep("belief.dempster_combine", (m1, m2))
            return tr.call("belief.dempster_combine", dempster_combine, m1, m2)
        if kind == "pointwise_combine":
            return tr.call("belief.pointwise_combine", pointwise_combine, model, measure, first, rest[0])
        return tr.call("belief.pointwise_condition", pointwise_condition, model, measure, rest[0], first)

    def check(self, ref: Reference, op, kept) -> bool:
        kind, _, m, formulas, _ = op
        first, *rest = formulas
        if kind == "bel":
            return kept == ref.bel(m, first, ref.truth_set(rest[0]))
        if kind == "mass":
            return kept == reference_digest(ref, ref.mass(m, first))
        if kind == "degree":
            return kept == ref.degree_given(m, rest[0], first)
        if kind == "dempster":
            return kept == reference_digest(ref, ref.dempster(m, first, rest[0]))
        if kind == "pointwise_combine":
            return kept == reference_digest(ref, ref.pointwise_combine(m, first, rest[0]))
        return kept == ref.pointwise_condition(m, rest[0], first)


# --- cli: document + cli, end to end ------------------------------------------

CLI_EVIDENCE = ("k4a", "k4b", "k16a", "k16b")
CLI_EVENTS = tuple(f"c{i}" for i in range(4))
COINFLIP_TOUR = (
    {"cmd": "check"},
    {"cmd": "truth-set", "formula": ("entails", ("atom", "pbar"), ("atom", "h"))},
    {"cmd": "interpret", "formula": ("and", ("atom", "pbar"), ("atom", "h")), "state": "H-sh"},
    {"cmd": "cohere", "atom": "p"},
    {"cmd": "condition", "measure": "pi", "on": ("atom", "pbar")},
    {"cmd": "degree", "measure": "pi", "of": ("atom", "h"), "given": ("atom", "pbar")},
    {"cmd": "bel", "measure": "pi", "evidence": ("atom", "pbar"), "event": ("atom", "h")},
    {"cmd": "mass", "measure": "pi", "evidence": ("atom", "pbar")},
    {"cmd": "combine", "measure": "pi", "rule": "dempster", "e1": ("atom", "pbar"), "e2": ("atom", "h")},
    {"cmd": "combine", "measure": "pi", "rule": "pointwise", "e1": ("atom", "pbar"), "e2": ("atom", "h")},
    {"cmd": "pointwise-condition", "measure": "pi", "of": ("atom", "h"), "evidence": ("atom", "pbar")},
)
_FORMULA_FIELDS = ("formula", "on", "evidence", "event", "of", "given", "e1", "e2")


def argv(op: dict) -> list[str]:
    """The command line for a CLI op; formulas are tuples in the op."""
    args = [op["cmd"], op["model"]]
    if "formula" in op:
        args.append(render(op["formula"]))
    args.extend(op[key] for key in ("state", "atom") if key in op)
    for key in ("measure", "rule", "on", "evidence", "event", "of", "given", "e1", "e2"):
        if key in op:
            value = op[key]
            args += [f"--{key}", value if isinstance(value, str) else render(value)]
    return args + ["--format", op["format"]]


def expected_output(ref: Reference, op: dict) -> str:
    """The documented stdout of a CLI op, from reference values."""
    machine = op["format"] == "machine"
    lines: list[str] = []

    def value(key, v):
        lines.append(f"{key}={v}" if machine else str(v))

    def entry(key, label, v):
        lines.append(f"{key}[{label}]={v}" if machine else f"{label}: {v}")

    def masses(mass):
        for event in sorted(mass, key=ref.mask):
            entry("mass", ref.render(event), mass[event])

    cmd, m = op["cmd"], op.get("measure")
    if cmd == "check":
        coherent = {a: all(e <= ref.atom_truth[a] for e in i.values()) for a, i in ref.interp.items()}
        if machine:
            lines += [f"states={len(ref.states)}", f"atoms={len(ref.interp)}",
                      f"measures={len(ref.measures)}"]
            lines += [f"coherent[{a}]={'true' if c else 'false'}" for a, c in coherent.items()]
        else:
            lines.append(f"ok: {len(ref.states)} states, {len(ref.interp)} atoms, "
                         f"{len(ref.measures)} measures")
            lines += [f"atom {a}: {'coherent' if c else 'incoherent'}" for a, c in coherent.items()]
    elif cmd == "truth-set":
        value("truth_set", ref.render(ref.truth_set(op["formula"])))
    elif cmd == "interpret":
        value("interpretation", ref.render(ref.interpret(op["formula"], op["state"])))
    elif cmd == "cohere":
        interp, truth = ref.interp[op["atom"]], ref.atom_truth[op["atom"]]
        for s in ref.states:
            entry("closure", s, ref.render(interp[s] & truth))
    elif cmd == "condition":
        for s, w in ref.condition(m, ref.truth_set(op["on"])).items():
            entry("weight", s, w)
    elif cmd == "bel":
        value("bel", ref.bel(m, op["evidence"], ref.truth_set(op["event"])))
    elif cmd == "degree":
        value("degree", ref.degree_given(m, op["of"], op["given"]))
    elif cmd == "mass":
        masses(ref.mass(m, op["evidence"]))
    elif cmd == "combine":
        combine = ref.dempster if op["rule"] == "dempster" else ref.pointwise_combine
        masses(combine(m, op["e1"], op["e2"]))
    elif cmd == "pointwise-condition":
        result = ref.pointwise_condition(m, op["of"], op["evidence"])
        if machine:
            lines += ["exploratory=true", f"pointwise_condition={result}"]
        else:
            lines += [EXPLORATORY_BANNER, str(result)]
    return "".join(line + "\n" for line in lines)


def library_calls(op: dict, document, tr) -> None:
    """The parse and library calls that ``run`` makes for a CLI op, each
    under its own span, so that rendering is what remains of ``run``."""
    model = document.model
    f = {key: tr.call("formula.parse", parse, render(op[key])) for key in _FORMULA_FIELDS if key in op}
    measure = document.measure(op["measure"]) if "measure" in op else None
    cmd = op["cmd"]

    def truth_span(key):
        return "semantics.truth_set.entails" if contains_entailment(op[key]) else "semantics.truth_set.plain"

    if cmd == "check":
        for atom in model.atoms:
            tr.call("model.is_coherent", model.is_coherent, atom)
    elif cmd == "truth-set":
        tr.call(truth_span("formula"), truth_set, model, f["formula"])
    elif cmd == "interpret":
        tr.call("semantics.interpret", interpret, model, f["formula"], op["state"])
    elif cmd == "cohere":
        tr.call("model.coherence_closure", model.coherence_closure, op["atom"])
    elif cmd == "condition":
        event = tr.call(truth_span("on"), truth_set, model, f["on"])
        tr.call("belief.measure.condition", measure.condition, event)
    elif cmd == "bel":
        event = tr.call(truth_span("event"), truth_set, model, f["event"])
        tr.call("belief.bel", bel, model, measure, f["evidence"], event)
    elif cmd == "degree":
        tr.call("belief.degree_given", degree_given, model, measure, f["of"], f["given"])
    elif cmd == "mass":
        tr.call("belief.mass_from_evidence", mass_from_evidence, model, measure, f["evidence"])
    elif cmd == "combine" and op["rule"] == "dempster":
        m1 = tr.call("belief.mass_from_evidence", mass_from_evidence, model, measure, f["e1"])
        m2 = tr.call("belief.mass_from_evidence", mass_from_evidence, model, measure, f["e2"])
        tr.keep("belief.dempster_combine", (m1, m2))
        tr.call("belief.dempster_combine", dempster_combine, m1, m2)
    elif cmd == "combine":
        tr.call("belief.pointwise_combine", pointwise_combine, model, measure, f["e1"], f["e2"])
    elif cmd == "pointwise-condition":
        tr.call("belief.pointwise_condition", pointwise_condition, model, measure, f["of"], f["evidence"])


def replay(op: dict, tr) -> tuple[int, str, str]:
    """Run a CLI op in process, then the same steps through the public calls."""
    with tr.span("replay"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call("cli.run", cli_run, argv(op))
        if op["model"] == "coinflip":
            document = tr.call("document.fixture", fixtures.coinflip)
        else:
            document = tr.call("document.load_document", load_document, op["model"])
        library_calls(op, document, tr)
    return code, out.getvalue(), err.getvalue()


def check_cli(refs: dict, op: dict, result) -> bool:
    """A CLI op succeeded and printed exactly the documented output."""
    return result == (0, expected_output(refs[op["model"]], op), "")


def coinflip_reference() -> Reference:
    return Reference(json.loads(COINFLIP_JSON.read_text(encoding="utf-8")))


def coinflip_tour() -> list[dict]:
    return [dict(op, model="coinflip", format="machine") for op in COINFLIP_TOUR]


class Cli(Workload):
    name = "cli"

    def __init__(self, seed: int, n: int = 1024):
        super().__init__(seed, n)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def generate(self, rng):
        states = _states(self.n)
        low, high = max(2, self.n // 32), max(2, self.n // 16)
        atoms = {a: _pooled_atom(rng, states, int(a[1:-1]), low, high) for a in CLI_EVIDENCE}
        for c in CLI_EVENTS:
            atoms[c] = {"*": _subset(rng, states, 0.8)}
        return {
            "states": states,
            "atoms": atoms,
            "measures": {f"w{i}": _prior(rng, states) for i in range(2)},
        }

    def setup(self, tr) -> None:
        self.doc_path, self.doc_text = _write_document(self.generate(self.rng("doc")), "cli-model.json")
        if tr.enabled:
            tr.call("document.parse_document", parse_document, json.loads(self.doc_text))
        for op in self.warmup():
            self.execute(op, tr)

    def _ops(self, rng):
        model = str(self.doc_path)
        atoms = CLI_EVIDENCE + CLI_EVENTS

        # Each op class has a fixed pool size, so every seed gives the same
        # sizes; the seed picks one of the two atoms of that size.
        def atom(k):
            return ("atom", f"{k}{rng.choice('ab')}")

        def either():
            return ("or", atom("k4"), atom("k16"))

        def event():
            return random_formula(rng, CLI_EVENTS, rng.randint(1, 2))

        ops = []
        for fmt in ("text", "machine"):
            measure = f"w{rng.randrange(2)}"
            drawn = [
                {"cmd": "check"},
                {"cmd": "truth-set", "formula": ("entails", random_formula(rng, atoms, 2),
                                                 random_formula(rng, atoms, 2))},
                {"cmd": "interpret", "formula": random_formula(rng, atoms, 3),
                 "state": f"s{rng.randrange(self.n)}"},
                {"cmd": "cohere", "atom": atom("k16")[1]},
                {"cmd": "condition", "measure": measure,
                 "on": ("or", ("atom", rng.choice(CLI_EVENTS)), event())},
                {"cmd": "bel", "measure": measure, "evidence": atom("k16"), "event": event()},
                {"cmd": "degree", "measure": measure, "of": event(), "given": either()},
                {"cmd": "mass", "measure": measure, "evidence": either()},
                {"cmd": "combine", "measure": measure, "rule": "dempster",
                 "e1": atom("k4"), "e2": atom("k16")},
                {"cmd": "combine", "measure": measure, "rule": "pointwise",
                 "e1": ("atom", "k16a"), "e2": ("atom", "k16b")},
                {"cmd": "pointwise-condition", "measure": measure, "of": event(),
                 "evidence": atom("k16")},
            ]
            ops += [dict(op, model=model, format=fmt) for op in drawn]
            ops += [dict(op, model="coinflip", format=fmt) for op in COINFLIP_TOUR
                    if op["cmd"] in ("bel", "degree")]
        return ops

    def warmup(self):
        return [{"cmd": "check", "model": str(self.doc_path), "format": "machine"}]

    def round(self, r: int):
        return self._ops(self.rng(r))

    def execute(self, op, tr):
        done = subprocess.run([sys.executable, "-m", "evidential", *argv(op)], cwd=ROOT,
                              env=self.env, capture_output=True, timeout=120)
        return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")

    def check(self, refs: dict, op, kept) -> bool:
        return check_cli(refs, op, kept)

    def replays(self, records) -> list[dict]:
        return [op for op, _, _, traced in records
                if traced and op["format"] == "machine" and op["model"] != "coinflip"]

    def reference(self) -> dict:
        """References by model argument: the generated document and ``coinflip``."""
        return {str(self.doc_path): super().reference(), "coinflip": coinflip_reference()}


WORKLOADS = {w.name: w for w in (Query, Evidence, Cli)}
