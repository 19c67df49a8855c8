"""CLI behavior: outputs, formats, exit codes."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidential import EXTENDED, parse, truth_set
from evidential.cli import _ARGUMENTS, _COMMANDS, _Output, _read, build_parser, run
from evidential.formula import MAX_NESTING
from make_cli_corpus import CORPUS, DOCUMENTS, PLACEHOLDER, command_lines, generate
from make_cli_corpus import invoke as invoke_in_process
from test_document import digit_limit, long_numeral
from test_formula import SHAPES


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, data, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def subprocess_env():
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))


def open_fixture():
    from importlib import resources

    return resources.files("evidential.fixtures").joinpath("coinflip.json").read_text()


class TestQueries:
    def test_bel_prints_bare_rational(self, capsys):
        code, out, err = invoke(capsys, "bel", "coinflip", "--measure", "pi",
                                "--evidence", "pbar", "--event", "h")
        assert (code, out, err) == (0, "3/5\n", "")

    def test_degree_conditional(self, capsys):
        code, out, _ = invoke(capsys, "degree", "coinflip", "--measure", "pi",
                              "--of", "h", "--given", "pbar")
        assert (code, out) == (0, "4/5\n")

    def test_degree_unconditional(self, capsys):
        code, out, _ = invoke(capsys, "degree", "coinflip", "--measure", "pi", "--of", "h")
        assert (code, out) == (0, "1/2\n")

    def test_truth_set(self, capsys):
        code, out, _ = invoke(capsys, "truth-set", "coinflip", "pbar")
        assert (code, out) == (0, "{H-acc,H-sh,T-sh}\n")

    def test_truth_set_machine(self, capsys):
        code, out, _ = invoke(capsys, "truth-set", "coinflip", "pbar => h",
                              "--format", "machine")
        assert (code, out) == (0, "truth_set={H-acc,H-st,T-acc,T-st}\n")

    def test_interpret(self, capsys):
        code, out, _ = invoke(capsys, "interpret", "coinflip", "pbar", "T-st")
        assert (code, out) == (0, "{}\n")

    def test_cohere_prints_closure(self, capsys):
        code, out, _ = invoke(capsys, "cohere", "coinflip", "p", "--format", "machine")
        assert code == 0
        assert out.splitlines() == [
            "closure[H-acc]={H-acc,H-sh}",
            "closure[H-sh]={H-acc,H-sh,T-sh}",
            "closure[H-st]={}",
            "closure[T-acc]={H-acc,H-sh}",
            "closure[T-sh]={H-acc,H-sh,T-sh}",
            "closure[T-st]={}",
        ]

    def test_check_reports_coherence(self, capsys):
        code, out, _ = invoke(capsys, "check", "coinflip")
        assert code == 0
        assert "atom p: incoherent" in out
        assert "atom pbar: coherent" in out

    def test_condition_prints_posterior(self, capsys):
        code, out, _ = invoke(capsys, "condition", "coinflip", "--measure", "pi",
                              "--on", "pbar", "--format", "machine")
        assert code == 0
        assert out.splitlines() == [
            "weight[H-acc]=3/5",
            "weight[H-sh]=1/5",
            "weight[H-st]=0",
            "weight[T-acc]=0",
            "weight[T-sh]=1/5",
            "weight[T-st]=0",
        ]

    def test_condition_without_event_prints_prior(self, capsys):
        code, out, _ = invoke(capsys, "condition", "coinflip", "--measure", "pi")
        assert code == 0
        assert out.splitlines()[0] == "H-acc: 3/10"

    def test_mass(self, capsys):
        code, out, _ = invoke(capsys, "mass", "coinflip", "--measure", "pi",
                              "--evidence", "pbar", "--format", "machine")
        assert code == 0
        assert out.splitlines() == [
            "mass[{H-acc,H-sh}]=3/5",
            "mass[{H-acc,H-sh,T-sh}]=2/5",
        ]

    def test_combine_dempster(self, capsys):
        code, out, _ = invoke(capsys, "combine", "coinflip", "--measure", "pi",
                              "--rule", "dempster", "--e1", "pbar", "--e2", "pbar")
        assert code == 0
        assert out.splitlines() == [
            "{H-acc,H-sh}: 21/25",
            "{H-acc,H-sh,T-sh}: 4/25",
        ]

    def test_combine_pointwise_self_is_fixed_point(self, capsys):
        _, combined, _ = invoke(capsys, "combine", "coinflip", "--measure", "pi",
                                "--rule", "pointwise", "--e1", "pbar", "--e2", "pbar")
        _, single, _ = invoke(capsys, "mass", "coinflip", "--measure", "pi",
                              "--evidence", "pbar")
        assert combined == single

    def test_event_as_inline_state_set(self, capsys):
        code, out, _ = invoke(capsys, "bel", "coinflip", "--measure", "pi",
                              "--evidence", "pbar",
                              "--event", "{H-acc,H-sh,H-st}")
        assert (code, out) == (0, "3/5\n")

    def test_pointwise_condition_banner_and_value(self, capsys):
        code, out, _ = invoke(capsys, "pointwise-condition", "coinflip",
                              "--measure", "pi", "--of", "h", "--evidence", "pbar")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("EXPLORATORY")
        assert lines[-1] == "19/25"

    def test_pointwise_condition_machine(self, capsys):
        code, out, _ = invoke(capsys, "pointwise-condition", "coinflip",
                              "--measure", "pi", "--of", "h", "--evidence", "pbar",
                              "--format", "machine")
        assert (code, out) == (0, "exploratory=true\npointwise_condition=19/25\n")

    def test_extended_mode_allows_nesting(self, capsys):
        code, out, _ = invoke(capsys, "truth-set", "coinflip", "(pbar => h) & h",
                              "--mode", "extended")
        assert code == 0
        assert out == "{H-acc,H-st}\n"


def test_output_renders_equal_values_by_their_own_types():
    for machine, prefix in ((False, ""), (True, "v=")):
        out = _Output(machine)
        for value in (1, True, Fraction(1), 1.0, 1, True, Fraction(1), 1.0, "1"):
            out.value("v", value)
        texts = ("1", "True", "1", "1.0") * 2 + ("1",)
        assert out.render() == "".join(f"{prefix}{text}\n" for text in texts)


def test_cli_corpus_is_reproduced():
    committed = CORPUS.read_text(encoding="utf-8").splitlines()
    generated = generate()
    for number, (line, now) in enumerate(zip(committed, generated), 1):
        assert now == line, f"{CORPUS.name} line {number} differs:\ncommitted: {line}\nnow:       {now}"
    assert len(generated) == len(committed)
    assert CORPUS.stat().st_size < 500_000


# --- the table read of a well-formed line is argparse's ----------------------

CORPUS_LINES = command_lines({name: f"{PLACEHOLDER}/{name}.json" for name in DOCUMENTS})


def argparse_reading(argv):
    """``vars`` of the namespace from the parser that run builds, or None for help or a usage error."""
    parser = build_parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def test_the_table_reads_the_corpus_lines_as_argparse_does():
    read = 0
    for argv in CORPUS_LINES:
        table, expected = _read(argv), argparse_reading(argv)
        assert table is None or table == expected, argv
        # Only a value that starts with - leaves a line argparse accepts to argparse here.
        if expected is not None and all(a in _ARGUMENTS or not a.startswith("-") for a in argv):
            assert table == expected, argv
        read += table is not None
    assert read > len(CORPUS_LINES) // 2


OPTIONS_WITH_CHOICES = [name for name, (_, spec) in _ARGUMENTS.items() if "choices" in spec]


@st.composite
def command_line_variants(draw):
    """A corpus line changed one to three times: options reordered, joined to their values by
    =, abbreviated or repeated; help or -- put in; a value replaced by one starting with - or by
    an empty string; a positional dropped or added; a choice replaced by another word."""
    argv = list(draw(st.sampled_from(CORPUS_LINES)))
    for change in draw(st.lists(st.integers(0, 7), min_size=1, max_size=3)):
        options = [i for i in range(1, len(argv) - 1) if argv[i] in _ARGUMENTS and argv[i].startswith("-")]
        at = draw(st.sampled_from(options)) if options else None
        if change == 0:  # each option with its value is one unit
            units, i = [], 1
            while i < len(argv):
                units.append(argv[i:i + 1 + (i in options)])
                i += len(units[-1])
            argv[1:] = [token for unit in draw(st.permutations(units)) for token in unit]
        elif change == 1 and at is not None:
            argv[at:at + 2] = [f"{argv[at]}={argv[at + 1]}"]
        elif change == 2 and at is not None:
            argv[at] = argv[at][:draw(st.integers(3, len(argv[at]) - 1))]
        elif change == 3 and at is not None:
            argv += [argv[at], draw(st.sampled_from([argv[at + 1], "h", "strict", "machine"]))]
        elif change == 4:
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help", "--"])))
        elif change == 5 and len(argv) > 1:
            argv[draw(st.integers(1, len(argv) - 1))] = draw(st.sampled_from(
                ["", "-", "-1", "-x", "-h", "--", "- h", "-> h", "--mode", "--zz"]))
        elif change == 6 and len(argv) > 1:
            if draw(st.booleans()):
                del argv[draw(st.integers(1, len(argv) - 1))]
            else:
                argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["extra", "h", ""])))
        elif change == 7:
            option = draw(st.sampled_from(OPTIONS_WITH_CHOICES))
            argv += [option, draw(st.sampled_from(["", "Strict", "json", "sideways", "text", "dempster"]))]
    return argv


@settings(max_examples=500)
@given(argv=command_line_variants())
def test_the_table_reads_a_line_as_argparse_does_or_not_at_all(argv):
    table = _read(argv)
    assert table is None or table == argparse_reading(argv)


class TestModelResolution:
    def test_file_path(self, capsys, tmp_path):
        path = write_model(tmp_path, json.loads(open_fixture()))
        code, out, _ = invoke(capsys, "truth-set", path, "pbar")
        assert (code, out) == (0, "{H-acc,H-sh,T-sh}\n")

    def test_unknown_reference(self, capsys):
        code, _, err = invoke(capsys, "check", "not-a-fixture")
        assert code == 2
        assert "not-a-fixture" in err

    @pytest.mark.parametrize("ref", ["a" * 5000, "n" * 200], ids=["past-the-file-name-limit", "long"])
    def test_long_reference_is_one_short_error_line(self, capsys, ref):
        code, out, err = invoke(capsys, "check", ref)
        assert (code, out) == (2, "")
        assert err == f"error: model '{ref[:56]}... is neither a file nor a bundled fixture\n"
        assert len(err.encode()) < 120


# A valid value on coinflip of each argument that some command requires.
REQUIRED_VALUES = {"formula": "h", "state": "H-sh", "atom": "p", "--measure": "pi", "--evidence": "pbar",
                   "--event": "h", "--of": "h", "--rule": "dempster", "--e1": "h", "--e2": "pbar"}


class TestExitCodes:
    def test_validation_error_names_state(self, capsys, tmp_path):
        data = json.loads(open_fixture())
        data["atoms"]["p"]["H-acc"] = ["H-acc", "H-zz"]
        path = write_model(tmp_path, data)
        code, _, err = invoke(capsys, "check", path)
        assert code == 2
        assert "H-zz" in err

    @pytest.mark.parametrize("data, message", [
        ({"states": ["a", "b"], "atoms": {"p": {"a": ["a"]}}},
         "atom 'p': valuation missing interpretation for state 'b'"),
        ({"states": ["a", "b"], "measures": {"u": {"a": "1"}}},
         "measure 'u': measure missing weight for state 'b'"),
    ], ids=["atom", "measure"])
    def test_missing_state_names_its_table(self, capsys, tmp_path, data, message):
        code, out, err = invoke(capsys, "check", write_model(tmp_path, data))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["bel", "--evidence", "pbar &", "--event", "h"],
        ["bel", "--evidence", "pbar", "--event", "{H-acc"],
        ["mass", "--evidence", "pbar &"],
    ], ids=["bel-formula", "bel-event", "mass"])
    def test_an_unknown_measure_is_reported_before_a_bad_formula_or_event(self, capsys, argv):
        code, out, err = invoke(capsys, argv[0], "coinflip", "--measure", "zz", *argv[1:])
        assert (code, out, err) == (2, "", "error: unknown measure: 'zz'\n")

    def test_unterminated_state_set_literal(self, capsys):
        code, out, err = invoke(capsys, "bel", "coinflip", "--measure", "pi",
                                "--evidence", "pbar", "--event", "{H-acc")
        assert (code, out, err) == (2, "", "error: unterminated state set literal: '{H-acc'\n")

    def test_unhashable_member_names_itself(self, capsys, tmp_path):
        data = json.loads(open_fixture())
        data["atoms"]["h"] = {"*": [["H-acc"]]}
        path = write_model(tmp_path, data)
        code, out, err = invoke(capsys, "check", path)
        assert (code, out, err) == (2, "", "error: atom 'h': undeclared state ['H-acc']\n")

    def test_non_utf8_document(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = invoke(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: model document {str(path)!r} is not UTF-8: ")
        assert err.count("\n") == 1

    def test_numerals_beyond_the_digit_limit(self, capsys, tmp_path):
        numeral = long_numeral()
        for weight in (f'"{numeral}/{numeral}"', numeral):
            path = tmp_path / "model.json"
            path.write_text('{"states": ["a"], "measures": {"u": {"a": %s}}}' % weight)
            code, out, err = invoke(capsys, "check", str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert err.endswith("numeral exceeds the integer digit limit\n")

    def test_sum_beyond_the_digit_limit(self, capsys, tmp_path):
        digits = digit_limit() * 3 // 4
        weights = {"a": "1/1" + "0" * digits, "b": "1/" + "3" * digits}
        path = write_model(tmp_path, {"states": ["a", "b"], "measures": {"u": weights}})
        code, out, err = invoke(capsys, "check", path)
        assert (code, out) == (2, "")
        assert err == ("error: measure 'u': weights must sum to 1, "
                       "got a sum whose numerals exceed the integer digit limit\n")

    def test_result_beyond_the_digit_limit(self, capsys, tmp_path):
        # Weights over one denominator of just over half the limit's digits:
        # a mass prints, while Dempster's products pass the limit.
        d = 10 ** (digit_limit() // 2) + 1
        path = write_model(tmp_path, {
            "states": ["a", "b", "c"],
            "atoms": {"e": {"a": ["a"], "b": ["a", "b"], "c": ["a", "b", "c"]},
                      "f": {"a": ["a", "b"], "b": ["b", "c"], "c": ["a", "c"]}},
            "measures": {"u": {"a": f"1/{d}", "b": f"2/{d}", "c": f"{d - 3}/{d}"}},
        })
        code, out, err = invoke(capsys, "mass", path, "--measure", "u", "--evidence", "e")
        assert (code, err) == (0, "")
        for output in ("text", "machine"):
            code, out, err = invoke(capsys, "combine", path, "--measure", "u", "--rule", "dempster",
                                    "--e1", "e", "--e2", "f", "--format", output)
            assert (code, out, err) == (2, "", "error: result numeral exceeds the integer digit limit\n")

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"states": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        code, out, err = invoke(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: invalid JSON in model document {str(path)!r}: nested too deeply\n"

    def test_long_values_are_cut_in_error_lines(self, capsys, tmp_path):
        nested = "[" * 500 + ", ".join(['"s"'] * 20_000) + "]" * 500
        documents = [
            (json.dumps({"states": ["a"], "atoms": {"p": {"*": ["x" * 1_000_000]}}}),
             f"error: atom 'p': undeclared state '{'x' * 56}...\n"),
            ('{"states": ["a", %s]}' % nested,
             f"error: state names must be nonempty strings, got {'[' * 57}...\n"),
        ]
        for text, message in documents:
            path = tmp_path / "model.json"
            path.write_text(text, encoding="utf-8")
            code, out, err = invoke(capsys, "check", str(path))
            assert (code, out, err) == (2, "", message)
            assert len(err.encode()) < 300
        code, out, err = invoke(capsys, "truth-set", "coinflip", "h " + "y" * 100_000)
        assert (code, out) == (2, "")
        assert err == f"error: unexpected '{'y' * 56}... after formula (at position 3)\n"

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # nor typing, pathlib or importlib.resources; -S keeps site hooks from adding any
        modules = "{'dataclasses', 'inspect', 'typing', 'pathlib', 'importlib.resources'}"
        code = f"import sys, evidential.cli; print(sorted({modules} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                                env=subprocess_env(), check=True)
        assert result.stdout == "[]\n"

    def test_a_well_formed_line_imports_no_argparse(self):
        code = ("import sys; from evidential.cli import run; "
                "code = run(['bel', 'coinflip', '--measure', 'pi', '--evidence', 'pbar', '--event', 'h']); "
                "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                                env=subprocess_env(), check=True)
        assert (result.stdout, result.stderr) == ("3/5\n0 []\n", "")
        usage = subprocess.run([sys.executable, "-S", "-m", "evidential", "bel", "coinflip",
                                "--evidence", "pbar"], capture_output=True, text=True, env=subprocess_env())
        assert (usage.returncode, usage.stdout) == (4, "")
        assert usage.stderr.startswith("usage error: ") and usage.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["bel", "coinflip", "--measure", "pi", "--evidence", "pbar", "--event", "h"],
        ["cohere", "coinflip", "p", "--format", "machine"],
        ["truth-set", "coinflip", "&"],
        ["combine", "conflict", "--measure", "u", "--rule", "dempster", "--e1", "c1", "--e2", "c2"],
        ["bel", "coinflip", "--evidence", "pbar"],
    ], ids=["success", "entries", "error", "undefined", "usage error"])
    def test_main_exits_through_the_usual_shutdown(self, tmp_path, argv):
        # An atexit handler registered before the program runs still runs, after its output.
        argv = [write_model(tmp_path, DOCUMENTS["conflict"]) if a == "conflict" else a for a in argv]
        code = ("import atexit, runpy; atexit.register(print, 'atexit handler ran'); "
                "runpy.run_module('evidential', run_name='__main__')")
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                                env=subprocess_env(), timeout=60)
        exit_code, out, err = invoke_in_process(argv)
        assert (result.returncode, result.stderr) == (exit_code, err)
        assert result.stdout == out + "atexit handler ran\n"

    def test_import_leaves_the_cyclic_collector_as_it_found_it(self):
        for enabled in (True, False):
            code = (f"import gc; gc.{'enable' if enabled else 'disable'}(); "
                    "import evidential; print(gc.isenabled())")
            result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    env=subprocess_env(), check=True)
            assert result.stdout == f"{enabled}\n"

    def test_closed_stdout_is_quiet_success(self, tmp_path):
        # Output far beyond a pipe buffer, so the reader closes mid-write.
        states = [f"s{i}" for i in range(300)]
        path = write_model(tmp_path, {"states": states, "atoms": {"a": {"*": states}}})
        proc = subprocess.Popen(
            [sys.executable, "-m", "evidential", "cohere", path, "a", "--format", "machine"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
        )
        assert proc.stdout.readline().startswith(b"closure[s0]={s0,s1,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")

    def test_run_leaves_the_cyclic_collector_as_it_found_it(self, capsys):
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                assert invoke(capsys, "check", "coinflip")[0] == 0
                assert invoke(capsys, "truth-set", "coinflip", "&")[0] == 2
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_syntax_error(self, capsys):
        code, _, err = invoke(capsys, "truth-set", "coinflip", "pbar &&& h")
        assert code == 2
        assert "position" in err

    def test_unknown_atom(self, capsys):
        code, _, err = invoke(capsys, "truth-set", "coinflip", "zz")
        assert code == 2
        assert "zz" in err

    @pytest.mark.parametrize("text", [
        "(" * 200 + "h" + ")" * 200,
        "~" * 1200 + "h",
        " -> ".join(["h"] * 1200),
        " & ".join(["h"] * 1200),
    ], ids=["200 parentheses", "1200 negations", "1200-term implication", "1200-term conjunction"])
    def test_deep_formula_is_a_one_line_syntax_error(self, text):
        proc = subprocess.run(
            [sys.executable, "-m", "evidential", "truth-set", "coinflip", text],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: formula nested deeper than 100 levels")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("shape", SHAPES)
    def test_formulas_at_the_nesting_limit_evaluate(self, capsys, coinflip, shape):
        text = SHAPES[shape](MAX_NESTING)
        code, out, err = invoke(capsys, "truth-set", "coinflip", text, "--mode", "extended")
        expected = truth_set(coinflip.model, parse(text, EXTENDED), EXTENDED)
        assert (code, out, err) == (0, f"{expected}\n", "")

    def test_strict_mode_nesting(self, capsys):
        code, _, err = invoke(capsys, "truth-set", "coinflip", "(pbar => h) & h")
        assert code == 2
        assert "outermost" in err

    def test_unknown_measure(self, capsys):
        code, _, err = invoke(capsys, "degree", "coinflip", "--measure", "zz", "--of", "h")
        assert code == 2
        assert "zz" in err

    def test_zero_probability_evidence(self, capsys, tmp_path):
        data = json.loads(open_fixture())
        data["measures"]["piZero"] = {
            "H-acc": "0", "H-sh": "0", "H-st": "1/2",
            "T-acc": "0", "T-sh": "0", "T-st": "1/2",
        }
        path = write_model(tmp_path, data)
        code, _, err = invoke(capsys, "bel", path, "--measure", "piZero",
                              "--evidence", "pbar", "--event", "h")
        assert code == 3
        assert "undefined" in err

    def test_total_conflict(self, capsys, tmp_path):
        data = {
            "states": ["x", "y"],
            "atoms": {"c1": {"*": ["x"]}, "c2": {"*": ["y"]}},
            "measures": {"u": {"x": "1/2", "y": "1/2"}},
        }
        path = write_model(tmp_path, data)
        code, _, err = invoke(capsys, "combine", path, "--measure", "u",
                              "--rule", "dempster", "--e1", "c1", "--e2", "c2")
        assert code == 3
        assert "conflict" in err

    def test_usage_error_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 4
        assert "usage error" in err

    @pytest.mark.parametrize("argv", [
        ["check", "coinflip", "a\nb"],
        ["check", "coinflip", "x" * 100_000],
        ["check", "coinflip", "--mode", "x" * 100_000],
        ["x" * 100_000],
    ], ids=["line-break", "long-unrecognized", "long-mode", "long-command"])
    def test_usage_error_is_one_short_line(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("usage error: ") and err.endswith("\n") and len(err.splitlines()) == 1
        assert len(err.encode()) < 300

    def test_short_usage_error_is_kept_whole(self, capsys):
        for argument, shown in (("extra", "extra"), ("a\r\nb\u2028", "a\\r\\nb\\u2028")):
            assert invoke(capsys, "check", "coinflip", argument) == (
                4, "", f"usage error: unrecognized arguments: {shown}\n")

    def test_usage_error_missing_required(self, capsys):
        code, _, err = invoke(capsys, "bel", "coinflip", "--evidence", "pbar")
        assert code == 4

    def test_usage_error_bad_rule(self, capsys):
        code, _, _ = invoke(capsys, "combine", "coinflip", "--measure", "pi",
                            "--rule", "sideways", "--e1", "h", "--e2", "h")
        assert code == 4

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "command" in out

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_help_of_every_command(self, capsys, command):
        code, out, err = invoke(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: evidential {command} ")
        for argument in ("--mode", "--format", "model", *_COMMANDS[command][1]):
            assert argument in out, argument

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_usage_error_of_every_command(self, capsys, command):
        required = [argument for argument in _COMMANDS[command][1]
                    if not argument.startswith("-") or _ARGUMENTS[argument][1].get("required")]
        complete = [command, "coinflip"]
        for argument in required:
            value = REQUIRED_VALUES[argument]
            complete += [argument, value] if argument.startswith("-") else [value]
        assert invoke(capsys, *complete, "--zz") == (4, "", "usage error: unrecognized arguments: --zz\n")
        if required:  # argparse names what is missing before what it does not know
            assert invoke(capsys, command, "coinflip", "--zz") == (
                4, "", f"usage error: the following arguments are required: {', '.join(required)}\n")


class TestMachineDeterminism:
    COMMANDS = [
        ("check", "coinflip"),
        ("truth-set", "coinflip", "pbar & h | ~a"),
        ("condition", "coinflip", "--measure", "pi", "--on", "pbar"),
        ("mass", "coinflip", "--measure", "pi", "--evidence", "pbar"),
        ("combine", "coinflip", "--measure", "pi", "--rule", "dempster",
         "--e1", "pbar", "--e2", "h"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_two_runs_are_byte_identical(self, capsys, argv):
        first = invoke(capsys, *argv, "--format", "machine")
        second = invoke(capsys, *argv, "--format", "machine")
        assert first == second
        assert first[0] == 0


# --- fuzzing: no input ends in a traceback or a multi-line error -------------

NAMES = ("coinflip", "pi", "piPrime", "h", "p", "pbar", "a", "H-acc", "T-st", "u", "q", "b", "zz",
         "strict", "extended", "text", "machine", "dempster", "pointwise", "{H-acc,H-sh}", "{a,b}",
         "{H-acc", "{}", "--", "-", "")
JUNK_CHARACTERS = "\n\x00\r\u2028é✓"  # line breaks, NUL and other non-ASCII characters
FORMULA_CHARACTERS = JUNK_CHARACTERS + "pqhab_0 ~¬&∧|∨->→=⇒(){},\t"  # and the tokenizer's alphabet
OPTIONS = ("--mode", "--format", "--measure", "--on", "--evidence", "--event", "--of", "--given",
           "--rule", "--e1", "--e2", "--help", "--zz", "--")
JUNK = ('[null]', 'null', 'true', '1', '1.5', '-0.0', '"1/0"', '"1/3"', '"x"', '""', '[]', '{}', '[[["a"]]]',
        '{"*": 1}', '"@HUGE@"')  # as JSON text, so that each draw is a new value


def values():
    return st.one_of(st.sampled_from(NAMES), st.text(FORMULA_CHARACTERS, max_size=24))


FORMULAS = st.recursive(
    st.sampled_from(("p", "q", "h", "a", "pbar")),
    lambda inner: st.one_of(inner.map("~{}".format),
                            st.tuples(inner, st.sampled_from(("&", "|", "->", "=>")), inner).map(" ".join)),
    max_leaves=4)
SENSIBLE = {  # by the argument's kind
    "measure": st.sampled_from(("pi", "piPrime", "u")),
    "formula": FORMULAS,
    "event": FORMULAS | st.sampled_from(("{a,b}", "{c}", "{H-acc,H-sh}", "{T-st}", "{}")),
    "text": st.sampled_from(("a", "b", "p", "q", "h", "pbar", "H-acc", "T-sh", "dempster", "pointwise")),
}


@st.composite
def invocations(draw, model):
    """A command with its declared arguments, now and then one dropped, and a stray option or value."""
    command = draw(st.sampled_from([*_COMMANDS, "frobnicate"]))
    argv = [command, model]
    for argument in _COMMANDS.get(command, ("", ()))[1]:
        if draw(st.integers(0, 9)) < 9:
            value = draw(values() if draw(st.integers(0, 4)) == 4 else SENSIBLE[_ARGUMENTS[argument][0]])
            argv += [argument, value] if argument.startswith("-") else [value]
    for option in ("--mode", "--format"):
        if draw(st.booleans()):
            choices = _ARGUMENTS[option][1]["choices"]
            argv += [option, draw(values() if draw(st.integers(0, 9)) == 9 else st.sampled_from(choices))]
    if draw(st.booleans()):
        stray = st.sampled_from(OPTIONS) | st.text(JUNK_CHARACTERS, min_size=1, max_size=3) | values()
        argv.insert(draw(st.integers(0, len(argv))), draw(stray))
    return argv


def slots(node):
    """Every (container, key) under ``node``."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return []
    return [slot for key in keys for slot in [(node, key), *slots(node[key])]]


@st.composite
def documents(draw):
    """The bytes of a document drawn from the schema in document.py, then mutated:
    wrong types, missing keys, floats, "1/0", huge numerals, nested lists, bad bytes."""
    states = draw(st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=3, unique=True))
    subsets = st.lists(st.sampled_from(states), unique=True)
    atoms = {}
    for name in draw(st.lists(st.sampled_from(("p", "q")), unique=True)):
        atoms[name] = {"*": draw(subsets)} if draw(st.booleans()) else {s: draw(subsets) for s in states}
    weights = [draw(st.integers(0, 2)) for _ in states]
    weights[0] += not any(weights)
    data = {"states": states, "atoms": atoms,
            "measures": {"u": {s: f"{w}/{sum(weights)}" for s, w in zip(states, weights)}}}
    for _ in range(draw(st.integers(0, 2))):
        node, key = draw(st.sampled_from(slots(data)))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = json.loads(draw(st.sampled_from(JUNK)))
    text = json.dumps(data, indent=draw(st.sampled_from([None, 1]))).replace('"@HUGE@"', "9" * 5000)
    raw = text.encode("utf-8")
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(st.sampled_from([b"", b"", b"\xff", b"\xc3", b"\r\n", b"\x00", b"]"])) + raw[at:]


@settings(max_examples=300)
@given(document=documents(), data=st.data())
def test_any_input_exits_with_a_known_code_and_at_most_one_error_line(tmp_path_factory, document, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(document)
    argv = data.draw(invocations(data.draw(st.sampled_from(["coinflip", str(path)]))))
    code, out, err = invoke_in_process(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
    else:
        assert err.endswith("\n") and len(err.splitlines()) == 1
