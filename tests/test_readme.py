"""The README's library example runs and gives the results its comments state."""

import ast
import re
from pathlib import Path

from evidential import MassFunction, StateSet

README = Path(__file__).resolve().parent.parent / "README.md"


def shown(value):
    """A result written as the README's comments write it."""
    if isinstance(value, StateSet):
        return f"StateSet({value})"
    if isinstance(value, MassFunction):
        return ", ".join(f"{event}: {mass}" for event, mass in value.items())
    return repr(value)


def test_library_example_gives_its_commented_results():
    text = README.read_text(encoding="utf-8")
    code = re.search(r"^## Library use\n+```python\n(.*?)^```", text, re.S | re.M).group(1)
    lines = code.splitlines()
    namespace, results = {}, []
    for statement in ast.parse(code).body:
        source = ast.get_source_segment(code, statement)
        if isinstance(statement, ast.Expr):
            comment = lines[statement.lineno - 1].partition("#")[2].strip()
            results.append((shown(eval(source, namespace)), comment))
        else:
            exec(source, namespace)
    values, comments = zip(*results)
    assert values == comments == (
        "StateSet({H-acc,H-st,T-acc,T-st})",
        "Fraction(3, 5)",
        "{H-acc,H-sh}: 3/5, {H-acc,H-sh,T-sh}: 2/5",
    )
