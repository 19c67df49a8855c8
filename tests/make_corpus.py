"""Generate the library corpus, ``tests/corpus.jsonl``.

Each line is one case: its inputs, and for each library call the exact text
of the result, or the error class and message.  The cases come from a fixed
seed, so the same source gives the same file, and ``test_corpus.py``
regenerates them in memory and names the first line that differs.

Three kinds of case:

* ``random``: a model of 1–8 states drawn with the seeded builders of
  ``gens.py`` (random, coherent or constant valuations), a prior, two mass
  functions, a mode and two formulas, plain, strict or with ``=>`` anywhere,
  some with an unknown atom ``zz``.  Every library entry point runs on them:
  ``parse`` of the printed formula, ``truth_set``, ``interpret``,
  ``degree``, ``degree_given``, ``bel``, ``mass_from_evidence``,
  ``dempster_combine``, ``pointwise_combine``, ``pointwise_condition``,
  ``Model.is_coherent`` and ``Model.coherence_closure``.
* ``text``: malformed or too deeply nested formula text, parsed in both modes.
* ``node``: a formula whose root or an operand is not a formula node.  The
  node is built inside each call, so the line is the same whether the error
  comes when the node is built or when it is evaluated.

A deliberate change of library behaviour rewrites the file:

    PYTHONPATH=src python tests/make_corpus.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from evidential import (
    EXTENDED,
    STRICT,
    And,
    Atom,
    Entails,
    Formula,
    Implies,
    MassFunction,
    Not,
    Or,
    StateSpace,
    VariableValuation,
    bel,
    degree,
    degree_given,
    dempster_combine,
    interpret,
    mass_from_evidence,
    parse,
    pointwise_combine,
    pointwise_condition,
    truth_set,
)
from evidential.formula import MAX_NESTING
from gens import (
    ATOM_NAMES,
    coherent_model,
    constant_model,
    random_extended_formula,
    random_formula,
    random_mass_function,
    random_measure,
    random_model,
    random_set,
    random_space,
    random_strict_formula,
)

CORPUS = Path(__file__).with_name("corpus.jsonl")
SEED = 20261021
RANDOM_CASES = 320
TEXT_CASES = 150
MODES = (STRICT, EXTENDED)
MODELS = (random_model, coherent_model, constant_model)
FORMULAS = (random_formula, random_strict_formula, random_extended_formula)

# Text at and one past the nesting limit, by depth and by open parentheses.
DEEP_TEXTS = (
    "~" * MAX_NESTING + "p",
    "~" * (MAX_NESTING + 1) + "p",
    " & ".join(["p"] * (MAX_NESTING + 1)),
    " & ".join(["p"] * (MAX_NESTING + 2)),
    " => ".join(["p"] * (MAX_NESTING + 2)),
    "(" * MAX_NESTING + "p" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1),
)
FIXED_TEXTS = ("", " ", "p", "p &", "& p", "(p", "p)", "()", "~", "p q", "p => q => r",
               "(p => q) & r", "~(p => q)", "p -> (q => r)", "p ⇒ q ∧ ¬r", "p $ q", "p = > q")

# Builders of nodes with a value that is not a formula node, as the root or
# as an operand.  Those with an entailment are not interpreted in strict mode,
# where a misplaced ``=>`` may be reported before the bad operand.
BAD_NODES = {
    "'x'": lambda: "x",
    "5": lambda: 5,
    "None": lambda: None,
    "Formula()": Formula,
    "Not('x')": lambda: Not("x"),
    "Not(Not([1]))": lambda: Not(Not([1])),
    "And(p, 5)": lambda: And(Atom("p"), 5),
    "Or(None, q)": lambda: Or(None, Atom("q")),
    "Implies(p, 'q')": lambda: Implies(Atom("p"), "q"),
    "And(~p, Or(q, 'x'))": lambda: And(Not(Atom("p")), Or(Atom("q"), "x")),
}
BAD_ENTAILMENTS = {
    "Entails('p', q)": lambda: Entails("p", Atom("q")),
    "Entails(p, Not(3))": lambda: Entails(Atom("p"), Not(3)),
}


def text(value: object) -> str:
    """A result as exact text: a mass function as its entries in mask order,
    a valuation as its interpretations in state order."""
    if isinstance(value, MassFunction):
        return " ".join(f"{event}={weight}" for event, weight in value.items())
    if isinstance(value, VariableValuation):
        return " ".join(map(str, value.sets))
    return str(value)


def outcome(call) -> str:
    try:
        return text(call())
    except Exception as error:
        return f"{type(error).__name__}: {error}"


def random_case(rng: random.Random) -> dict:
    space = random_space(rng, 1, 8)
    model = rng.choice(MODELS)(rng, space)
    measure = random_measure(rng, space)
    m1, m2 = random_mass_function(rng, space), random_mass_function(rng, space)
    mode = rng.choice(MODES)
    atoms = ATOM_NAMES + ("zz",) * (rng.random() < 0.1)
    f = rng.choice(FORMULAS)(rng, 4, atoms)
    g = rng.choice(FORMULAS)(rng, 3, atoms)
    event = random_set(rng, space)
    state = rng.choice(space.states + ("zz",) * (rng.random() < 0.05))
    atom = rng.choice(atoms)
    calls = {
        "format_formula": lambda: f,
        "parse": lambda: parse(str(f), mode),
        "truth_set": lambda: truth_set(model, f, mode),
        "interpret": lambda: interpret(model, f, state, mode),
        "degree": lambda: degree(model, measure, f, mode),
        "degree_given": lambda: degree_given(model, measure, f, g, mode),
        "bel": lambda: bel(model, measure, g, event, mode),
        "mass_from_evidence": lambda: mass_from_evidence(model, measure, g, mode),
        "dempster_combine": lambda: dempster_combine(m1, m2),
        "pointwise_combine": lambda: pointwise_combine(model, measure, f, g, mode),
        "pointwise_condition": lambda: pointwise_condition(model, measure, f, g, mode),
        "is_coherent": lambda: model.is_coherent(atom),
        "coherence_closure": lambda: model.coherence_closure(atom),
    }
    inputs = {
        "states": len(space),
        "atoms": {name: [s.mask for s in v.sets] for name, v in model.atoms.items()},
        "measure": " ".join(map(str, measure.weights)),
        "m1": text(m1),
        "m2": text(m2),
        "mode": mode,
        "g": str(g),
        "event": str(event),
        "state": state,
        "atom": atom,
    }
    return {"kind": "random", "inputs": inputs,
            "results": {name: outcome(call) for name, call in calls.items()}}


def broken(rng: random.Random, formula: str) -> str:
    """``formula`` with one character put in or taken out."""
    at = rng.randrange(len(formula) + 1)
    if rng.random() < 0.3:
        return formula[:at] + formula[at + 1:]
    return formula[:at] + rng.choice("()&|~=>-!$,é¬⇒ ") + formula[at:]


def text_case(formula: str) -> dict:
    return {"kind": "text", "text": formula,
            "results": {mode: outcome(lambda: parse(formula, mode)) for mode in MODES}}


def node_case(name: str, build, model, modes_interpreted) -> dict:
    results = {}
    for mode in MODES:
        results[f"truth_set {mode}"] = outcome(lambda: truth_set(model, build(), mode))
        if mode in modes_interpreted:
            results[f"interpret {mode}"] = outcome(lambda: interpret(model, build(), "s0", mode))
    return {"kind": "node", "node": name, "results": results}


def generate() -> list[str]:
    """The corpus lines, in order."""
    rng = random.Random(SEED)
    cases = [random_case(rng) for _ in range(RANDOM_CASES)]
    texts = FIXED_TEXTS + DEEP_TEXTS + tuple(
        broken(rng, str(rng.choice(FORMULAS)(rng, 4))) for _ in range(TEXT_CASES))
    cases += map(text_case, texts)
    model = random_model(rng, StateSpace(("s0", "s1", "s2")))
    cases += [node_case(name, build, model, MODES) for name, build in BAD_NODES.items()]
    cases += [node_case(name, build, model, (EXTENDED,)) for name, build in BAD_ENTAILMENTS.items()]
    return [json.dumps(case, ensure_ascii=False) for case in cases]


def main() -> None:
    lines = generate()
    CORPUS.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} cases to {CORPUS}")


if __name__ == "__main__":
    main()
