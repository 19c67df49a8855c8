"""Generate the CLI corpus, ``tests/cli_corpus.jsonl``.

Each line is one case: an argv run through ``evidential.cli.run`` in process,
its exit code, and what it wrote to stdout and stderr.  The cases come from a
fixed seed, so the same source gives the same file, and ``test_cli.py``
regenerates them in memory and names the first line that differs.

The cases cover every command in both formats and both modes, on the bundled
``coinflip`` and on temporary documents (an undeclared member, a
zero-probability measure, total conflict); formula and inline-set events;
unknown atoms, states and measures; and formula syntax errors.  A temporary
document's directory is written as ``<tmp>``.  argparse words its messages
differently across Python versions and terminal widths, so a usage error
(exit 4) and ``--help`` keep only the exit code and whether stdout and stderr
are empty.

A deliberate change of CLI behaviour rewrites the file:

    PYTHONPATH=src python tests/make_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from evidential.cli import EXIT_USAGE, run

CORPUS = Path(__file__).with_name("cli_corpus.jsonl")
SEED = 20261020
RANDOM_CASES = 600
PLACEHOLDER = "<tmp>"

COMMANDS = ("check", "truth-set", "interpret", "cohere", "condition", "bel",
            "degree", "mass", "combine", "pointwise-condition")
COINFLIP_STATES = ("H-acc", "H-sh", "H-st", "T-acc", "T-sh", "T-st")

DOCUMENTS = {
    # Three states read three ways; the weights make every command defined.
    "small": {
        "states": ["x", "y", "z"],
        "atoms": {"e": {"x": ["x"], "y": ["x", "y"], "z": ["x", "y", "z"]},
                  "f": {"x": ["x", "y"], "y": ["y", "z"], "z": ["x", "z"]},
                  "g": {"*": ["z"]}},
        "measures": {"u": {"x": "1/2", "y": "1/3", "z": "1/6"},
                     "v": {"x": "0", "y": "1/4", "z": "3/4"}},
    },
    "undeclared": {
        "states": ["x", "y"],
        "atoms": {"e": {"x": ["x"], "y": ["x", "w"]}},
    },
    "zero": {
        "states": ["x", "y", "z"],
        "atoms": {"e": {"*": ["x", "y"]}, "f": {"x": ["x"], "y": ["y"], "z": []}},
        "measures": {"u": {"x": "0", "y": "0", "z": "1"}},
    },
    "conflict": {
        "states": ["x", "y"],
        "atoms": {"c1": {"*": ["x"]}, "c2": {"*": ["y"]}},
        "measures": {"u": {"x": "1/2", "y": "1/2"}},
    },
}


def invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def record(argv: list[str], tmp: str) -> str:
    """One corpus line: the case with ``tmp`` written as the placeholder."""
    code, out, err = invoke(argv)
    case = {"argv": [arg.replace(tmp, PLACEHOLDER) for arg in argv], "exit": code}
    if code == EXIT_USAGE or "-h" in argv or "--help" in argv:
        case["stdout_empty"] = not out
        case["stderr_empty"] = not err
    else:
        case["stdout"] = out.replace(tmp, PLACEHOLDER)
        case["stderr"] = err.replace(tmp, PLACEHOLDER)
    return json.dumps(case)


def formula(rng: random.Random, atoms: tuple, depth: int = 3) -> str:
    """Formula text with ``=>`` anywhere, some Unicode aliases, and spare parentheses."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    if rng.random() < 0.2:
        return rng.choice(("~", "¬")) + formula(rng, atoms, depth - 1)
    op = rng.choice(("&", "|", "->", "=>", "∧", "∨", "→", "⇒"))
    text = f"{formula(rng, atoms, depth - 1)} {op} {formula(rng, atoms, depth - 1)}"
    return f"({text})" if rng.random() < 0.4 else text


def broken(rng: random.Random, text: str) -> str:
    """``text`` with one character of the formula alphabet, or junk, put in or taken out."""
    at = rng.randrange(len(text) + 1)
    if rng.random() < 0.3:
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice("()&|~=>-!$,{}é") + text[at:]


def event(rng: random.Random, atoms: tuple, states: tuple) -> str:
    kind = rng.random()
    if kind < 0.5:
        return formula(rng, atoms)
    members = rng.sample(states + ("Q-zz",) * (kind > 0.9), rng.randint(0, len(states)))
    literal = "{" + ",".join(members) + "}"
    return literal[:-1] if kind > 0.95 else literal


def random_case(rng: random.Random, model: str, atoms: tuple, states: tuple,
                measures: tuple) -> list[str]:
    atoms = atoms + ("zz",) * (rng.random() < 0.05)

    def text() -> str:
        made = formula(rng, atoms)
        return broken(rng, made) if rng.random() < 0.08 else made

    command = rng.choice(COMMANDS)
    argv = [command, model]
    measure = ["--measure", rng.choice(measures + ("zz",) * (rng.random() < 0.05))]
    if command == "truth-set":
        argv.append(text())
    elif command == "interpret":
        argv += [text(), rng.choice(states + ("Q-zz",) * (rng.random() < 0.05))]
    elif command == "cohere":
        argv.append(rng.choice(atoms))
    elif command == "condition":
        argv += measure + (["--on", event(rng, atoms, states)] if rng.random() < 0.7 else [])
    elif command == "bel":
        argv += measure + ["--evidence", text(), "--event", event(rng, atoms, states)]
    elif command == "degree":
        argv += measure + ["--of", text()] + (["--given", text()] if rng.random() < 0.5 else [])
    elif command == "mass":
        argv += measure + ["--evidence", text()]
    elif command == "combine":
        argv += measure + ["--rule", rng.choice(("dempster", "pointwise")),
                           "--e1", text(), "--e2", text()]
    elif command == "pointwise-condition":
        argv += measure + ["--of", text(), "--evidence", text()]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(("text", "machine"))]
    if rng.random() < 0.6:
        argv += ["--mode", rng.choice(("strict", "extended"))]
    return argv


def fixed_cases(documents: dict) -> list[list[str]]:
    """Every command on coinflip in both formats and modes, the temporary
    documents' undefined and invalid cases, help, and usage errors."""
    queries = [
        ["check"],
        ["truth-set", "pbar => h"],
        ["interpret", "pbar", "H-sh"],
        ["cohere", "p"],
        ["condition", "--measure", "pi", "--on", "pbar"],
        ["condition", "--measure", "piPrime"],
        ["bel", "--measure", "pi", "--evidence", "pbar", "--event", "h"],
        ["bel", "--measure", "pi", "--evidence", "pbar", "--event", "{H-acc,H-sh,H-st}"],
        ["degree", "--measure", "pi", "--of", "h"],
        ["degree", "--measure", "pi", "--of", "h", "--given", "pbar"],
        ["mass", "--measure", "pi", "--evidence", "pbar"],
        ["combine", "--measure", "pi", "--rule", "dempster", "--e1", "pbar", "--e2", "h"],
        ["combine", "--measure", "pi", "--rule", "pointwise", "--e1", "pbar", "--e2", "p"],
        ["pointwise-condition", "--measure", "pi", "--of", "h", "--evidence", "pbar"],
    ]
    cases = []
    for command, *rest in queries:
        for output in ("text", "machine"):
            for mode in ("strict", "extended"):
                cases.append([command, "coinflip", *rest, "--format", output, "--mode", mode])
    undeclared, zero, conflict = documents["undeclared"], documents["zero"], documents["conflict"]
    for output in ("text", "machine"):
        tail = ["--format", output]
        cases += [
            ["check", undeclared, *tail],
            ["condition", zero, "--measure", "u", "--on", "e", *tail],
            ["bel", zero, "--measure", "u", "--evidence", "e", "--event", "e", *tail],
            ["degree", zero, "--measure", "u", "--of", "e", "--given", "f", *tail],
            ["mass", zero, "--measure", "u", "--evidence", "e", *tail],
            ["pointwise-condition", zero, "--measure", "u", "--of", "e", "--evidence", "e", *tail],
            ["combine", conflict, "--measure", "u", "--rule", "dempster", "--e1", "c1", "--e2", "c2", *tail],
            ["combine", conflict, "--measure", "u", "--rule", "pointwise", "--e1", "c1", "--e2", "c2", *tail],
            ["check", "no-such-model", *tail],
        ]
    cases += [["--help"], ["-h"]] + [[command, "--help"] for command in COMMANDS]
    cases += [
        [], ["frobnicate"], ["check"], ["check", "coinflip", "extra"],
        ["truth-set", "coinflip"], ["interpret", "coinflip", "h"],
        ["bel", "coinflip", "--evidence", "pbar"], ["degree", "coinflip", "--of", "h"],
        ["combine", "coinflip", "--measure", "pi", "--rule", "sideways", "--e1", "h", "--e2", "h"],
        ["check", "coinflip", "--mode", "loose"], ["check", "coinflip", "--format", "json"],
        ["check", "coinflip", "--measure", "pi"], ["condition", "coinflip", "--measure"],
        ["check", "coinflip", "a\nb"],
    ]
    return cases


def generate() -> list[str]:
    """The corpus lines, in order."""
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        documents = {}
        for name, data in DOCUMENTS.items():
            path = Path(tmp, f"{name}.json")
            path.write_text(json.dumps(data), encoding="utf-8")
            documents[name] = str(path)
        cases = fixed_cases(documents)
        small = DOCUMENTS["small"]
        for _ in range(RANDOM_CASES):
            if rng.random() < 0.7:
                cases.append(random_case(rng, "coinflip", ("p", "pbar", "h", "a"), COINFLIP_STATES,
                                         ("pi", "piPrime")))
            else:
                cases.append(random_case(rng, documents["small"], tuple(small["atoms"]),
                                         tuple(small["states"]), tuple(small["measures"])))
        return [record(argv, tmp) for argv in cases]


def main() -> None:
    lines = generate()
    CORPUS.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} cases to {CORPUS}")


if __name__ == "__main__":
    main()
