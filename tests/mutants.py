"""Check that the corpora, the oracle properties and the document and value tests catch faults.

Each mutant changes one line of ``src/evidential``.  The script copies
``src/`` and ``tests/`` to a temporary directory, applies one mutant at a
time there, and runs the library corpus test, the test modules that check
the library against ``tests/oracles.py``, the document tests, the
value-contract tests and the CLI corpus test.  A mutant is killed when a test
fails.  The unmutated copy must pass first, and each mutant's original
text must occur exactly once in its file, so that a stale mutant is an
error rather than a quiet survivor.  The script prints each mutant's fate
and exits with status 1 if any survives, 2 if the unmutated copy fails or
a mutant is stale.

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_corpus.py", "tests/test_semantics.py", "tests/test_belief.py",
         "tests/test_model.py", "tests/test_acceptance.py", "tests/test_document.py",
         "tests/test_values.py", "tests/test_cli.py::test_cli_corpus_is_reproduced"]

# (name, file under src/evidential, original text, mutated text)
MUTANTS = [
    ("& for | in _fold", "semantics.py", "return left & right", "return left | right"),
    ("| for & in _fold", "semantics.py", "return left | right", "return left & right"),
    ("dropped full ^ under ~", "semantics.py",
     "return ((1 << len(model.space)) - 1) ^ _fold(model, f.operand, at, memo)",
     "return _fold(model, f.operand, at, memo)"),
    ("dropped full ^ under ->", "semantics.py",
     "return (((1 << len(model.space)) - 1) ^ left) | right", "return left | right"),
    ("< for <= in _entailment_mask", "semantics.py",
     "if _fold(model, f.left, i, memo) & ~_fold(model, f.right, i, memo) == 0",
     "if _fold(model, f.left, i, memo) & ~_fold(model, f.right, i, memo) == 0"
     " != _fold(model, f.left, i, memo) ^ _fold(model, f.right, i, memo)"),
    ("strict mode tested before the placement in truth_set", "semantics.py",
     "if entailment_misplaced(f) and mode == STRICT:", "if mode == STRICT and entailment_misplaced(f):"),
    ("strict mode tested before the placement in interpretation_masks", "semantics.py",
     "if contains_entailment(f) and mode == STRICT:", "if mode == STRICT and contains_entailment(f):"),
    ("an atom's truth mask at every state", "semantics.py",
     "return valuation.truth_mask if at is None else valuation.sets[at].mask",
     "return valuation.truth_mask"),
    ("normalizer left out of Dempster", "belief.py",
     "{e: w / normalizer for e, w in combined.items()}", "{e: w for e, w in combined.items()}"),
    ("empty meets kept by Dempster", "belief.py", "if meet.mask == 0:", "if meet.mask < 0:"),
    ("zero-weight groups kept as focal sets", "belief.py",
     "numerators = {m: w for m, w in groups.items() if w}", "numerators = dict(groups)"),
    ("belief counts sets that leave the event", "belief.py",
     "if not m & outside)", "if m & outside)"),
    ("weights view without its denominator", "belief.py",
     "tuple(Fraction(n, denominator) for n in self.numerators)",
     "tuple(Fraction(n, 1) for n in self.numerators)"),
    ("masses view without its denominator", "belief.py",
     "StateSet(space, m): Fraction(n, denominator)", "StateSet(space, m): Fraction(n, 1)"),
    ("degree_given ignores the evidence", "belief.py",
     "return measure.condition(evidence_set).of(", "return measure.of("),
    ("off-by-one in _selectors", "model.py", "bin(mask)[:1:-1]", "bin(mask)[:2:-1]"),
    ("off-by-one in truth_mask", "model.py",
     "enumerate(sets)))", "enumerate(sets, 1)))"),
    ("no ~ in is_coherent", "model.py", "s.mask & ~self.truth_mask", "s.mask & self.truth_mask"),
    ("coherence closure by union", "model.py",
     "tuple(s & truth for s in self.sets)", "tuple(s | truth for s in self.sets)"),
    ("an atom's undeclared state without its atom", "document.py",
     'as exc:\n        raise ModelError(f"{where}: undeclared state',
     'as exc:\n        raise ModelError(f"undeclared state'),
    ("a Model's fields without its atoms", "model.py",
     '__slots__ = _fields = ("space", "atoms")', '__slots__ = ("space", "atoms"); _fields = ("space",)'),
    ("read-only fields pickled as they are", "errors.py",
     "tuple(dict(v) if v.__class__ is MappingProxyType else v for v in self._values())", "self._values()"),
    ("a document's measures not copied", "document.py",
     "MappingProxyType(dict(measures))", "MappingProxyType(measures)"),
    ("no event check in _members", "belief.py",
     "-> bytes:\n        if not isinstance(event, StateSet):", "-> bytes:\n        if False:"),
    ("no string check in subset", "model.py", "if isinstance(names, str):", "if False:"),
    ("no space check in Model", "model.py",
     "if not isinstance(space, StateSpace) or not isinstance(atoms, Mapping):",
     "if not isinstance(atoms, Mapping):"),
    ("an object of lists split though a list's text holds a ]", "document.py",
     """if bracket and not rest.strip(" \\t\\n\\r") and "]" not in "".join(listed):""",
     """if bracket and not rest.strip(" \\t\\n\\r"):"""),
    ("an object of lists walked in one pass though a key repeats", "document.py",
     "if len(raw) == len(keys):", "if True:"),
    ("a backslashed key in an object of lists taken verbatim", "document.py",
     """keys = [_decode(f'"{key}"', 0)[0] for key in keys] if "\\\\" in "".join(keys) else keys""",
     "keys = keys"),
    ("no sign check of a measure's distinct weights", "belief.py",
     "if any(w.numerator < 0 for w in fractions.values()):", "if False:"),
    ("the parser of another command", "cli.py",
     "for name in _COMMANDS if command is None else (command,):",
     "for name in _COMMANDS if command is None else tuple(_COMMANDS)[:1]:"),
    ("a backslashed key taken verbatim", "document.py",
     """key = match[1] if "\\\\" not in match[1] else _decode(f'"{match[1]}"', 0)[0]""", "key = match[1]"),
    ("no + 1 in a negation's depth", "formula.py", "operand._depth + 1", "operand._depth"),
    ("no + 1 in a binary node's depth", "formula.py",
     "max(left._depth, right._depth) + 1", "max(left._depth, right._depth)"),
    ("=> not counted", "formula.py",
     "left._entailments + right._entailments + isinstance(self, Entails)",
     "left._entailments + right._entailments"),
]


def run_tests(copy: Path) -> str | None:
    """The first failing test in ``copy``, or None when every test passes."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *TESTS],
        cwd=copy, env=env, capture_output=True, text=True)
    if result.returncode == 0:
        return None
    failed = [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else result.stdout.strip().splitlines()[-1]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        failure = run_tests(copy)
        if failure:
            print(f"the unmutated copy fails: {failure}")
            return 2
        survivors = 0
        for name, file, original, mutated in MUTANTS:
            path = copy / "src" / "evidential" / file
            source = path.read_text(encoding="utf-8")
            if source.count(original) != 1:
                print(f"stale mutant {name!r}: {original!r} is not in {file} exactly once")
                return 2
            path.write_text(source.replace(original, mutated), encoding="utf-8")
            try:
                failure = run_tests(copy)
            finally:
                path.write_text(source, encoding="utf-8")
            survivors += failure is None
            print(f"{'SURVIVED' if failure is None else 'killed  '} {name}"
                  + (f"  ({failure})" if failure else ""), flush=True)
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
