"""Model document parsing and validation."""

import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest

from evidential import (
    Model,
    ModelDocument,
    ModelError,
    ProbabilityMeasure,
    StateSpace,
    VariableValuation,
    load_document,
    parse_document,
)
from evidential import document
from evidential.errors import _shown
from evidential.fixtures import coinflip

import gens


def exactly(message):
    return "^" + re.escape(message) + "$"


def minimal_document():
    return {
        "states": ["a", "b"],
        "atoms": {
            "p": {"a": ["a"], "b": ["a", "b"]},
            "c": {"*": ["b"]},
        },
        "measures": {"u": {"a": "1/2", "b": "1/2"}},
    }


def one_state_document(weight):
    return {"states": ["a"], "measures": {"u": {"a": weight}}}


def digit_limit():
    """The interpreter's int-digit limit; the test is skipped where there is none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter has no int-digit limit")
    return limit


def long_numeral():
    """A numeral one digit beyond the interpreter's int-digit limit."""
    return "1" + "0" * digit_limit()


class TestParseDocument:
    def test_minimal_document(self):
        doc = parse_document(minimal_document())
        assert doc.model.space.states == ("a", "b")
        assert doc.model.valuation("c").is_constant()
        assert doc.measure("u").of_state("a") == doc.measure("u").of_state("b")

    def test_state_order_preserved(self):
        data = minimal_document()
        data["states"] = ["b", "a"]
        data["atoms"] = {}
        doc = parse_document(data)
        assert doc.model.space.states == ("b", "a")

    def test_integer_weight_strings(self):
        data = minimal_document()
        data["measures"] = {"point": {"a": "1", "b": "0"}}
        doc = parse_document(data)
        assert doc.measure("point").of_state("a") == 1

    def test_measures_are_optional(self):
        data = minimal_document()
        del data["measures"]
        assert parse_document(data).measures == {}

    def test_large_per_state_document_matches_its_json(self):
        rng = random.Random(20250319)
        states = [f"s{i}" for i in range(300)]
        atoms = {}
        for atom in ("p", "q", "r"):
            interp = {}
            for state in states:
                members = rng.sample(states, rng.randrange(0, 60))
                interp[state] = members + members[: rng.randrange(0, 5)]
            atoms[atom] = interp
        weights = [rng.randint(0, 9) for _ in states]
        weights[0] += 1
        prior = [Fraction(w, sum(weights)) for w in weights]
        doc = parse_document({
            "states": states,
            "atoms": atoms,
            "measures": {"w": {s: str(p) for s, p in zip(states, prior)}},
        })
        for atom, interp in atoms.items():
            parsed = {
                state: frozenset(s for i, s in enumerate(states) if value.mask >> i & 1)
                for state, value in doc.model.valuation(atom).items()
            }
            assert parsed == {state: frozenset(members) for state, members in interp.items()}
        assert doc.measure("w").weights == tuple(prior)

    def test_lists_with_the_same_length_and_ends_decode_apart(self):
        states = ["a", "b", "c", "d"]
        readings = [["a", "b", "d"], ["a", "c", "d"], ["a", "b", "d"], ["a", "c", "d"]]
        doc = parse_document({"states": states, "atoms": {"p": dict(zip(states, readings))}})
        sets = doc.model.valuation("p").sets
        assert [s.names() for s in sets] == [("a", "b", "d"), ("a", "c", "d")] * 2
        assert sets[0] != sets[1]

    def test_repeated_lists_decode_like_frozensets(self):
        rng = random.Random(20261018)
        states = [f"s{i}" for i in range(200)]
        atoms = {}
        for atom, pool in (("p", 3), ("q", 12), ("r", 200)):
            events = [rng.sample(states, rng.randrange(0, 9)) for _ in range(pool)]
            # Each state gets its own copy, in a shuffled order, of a pooled reading.
            atoms[atom] = {state: rng.sample(event, len(event))
                           for state, event in zip(states, rng.choices(events, k=len(states)))}
        doc = parse_document({"states": states, "atoms": atoms})
        for atom, interp in atoms.items():
            parsed = {state: frozenset(value) for state, value in doc.model.valuation(atom).items()}
            assert parsed == {state: frozenset(members) for state, members in interp.items()}

    def test_pooled_document_decodes_like_its_states_one_by_one(self):
        # 1,024 states whose readings repeat a few member lists (some with the
        # same length and ends) and whose weights repeat a few texts, two of
        # them equal in value; the expected values are built state by state.
        rng = random.Random(20261019)
        states = [f"s{i}" for i in range(1024)]
        atoms = {}
        for atom, pool in (("k4", 4), ("k16", 16)):
            events = [rng.sample(states, rng.randrange(2, 64)) for _ in range(pool)]
            events += [event[:1] + rng.sample(states, 3) + event[-1:] for event in events]
            # Copies, not shared lists, in shuffled table order.
            atoms[atom] = {state: list(rng.choice(events))
                           for state in rng.sample(states, len(states))}
        atoms["c"] = {"*": rng.sample(states, 700)}
        weights = [rng.randint(1, 9) for _ in states]
        measures = {
            "w": {state: f"{w}/{sum(weights)}" for state, w in zip(states, weights)},
            "u": {state: ("1/1024", "2/2048")[i % 2] for i, state in enumerate(states)},
        }
        doc = parse_document({"states": states, "atoms": atoms, "measures": measures})

        space = StateSpace(states)
        expected_atoms = {
            atom: VariableValuation(space, [space.subset(interp[state]) for state in states])
            for atom, interp in atoms.items() if atom != "c"
        }
        expected_atoms["c"] = VariableValuation.constant(space, space.subset(atoms["c"]["*"]))
        assert dict(doc.model.atoms) == expected_atoms
        assert doc.measures == {
            name: ProbabilityMeasure(space, [Fraction(table[state]) for state in states])
            for name, table in measures.items()
        }

    @pytest.mark.parametrize("atoms, message", [
        # A list that repeats an earlier one's length and ends, with a stranger inside.
        ({"p": {"a": ["a", "c", "b"], "b": ["a", "z", "b"], "c": ["a", "y", "b"]}},
         "atom 'p': undeclared state 'z'"),
        # The same bad list at two states: the first one is named.
        ({"p": {"a": ["a"], "b": ["a", "z"], "c": ["a", "z"]}}, "atom 'p': undeclared state 'z'"),
        ({"p": {"a": ["a", "b"], "b": ["a", ["x"], "b"], "c": ["a", "b"]}},
         "atom 'p': undeclared state ['x']"),
        ({"p": {"a": [{"x": 1}], "b": [{"x": 1}], "c": []}}, "atom 'p': undeclared state {'x': 1}"),
        # The first atom in document order is named, not the first to repeat a list.
        ({"p": {"a": ["a"], "b": ["b"], "c": ["c", ["w"]]},
          "q": {"a": ["a", "b"], "b": ["a", "b"], "c": ["a", "x", "b"]}},
         "atom 'p': undeclared state ['w']"),
    ])
    def test_bad_members_in_repeated_lists_raise_the_first_error(self, atoms, message):
        with pytest.raises(ModelError, match=exactly(message)):
            parse_document({"states": ["a", "b", "c"], "atoms": atoms})


class TestDocumentRejections:
    @pytest.mark.parametrize("data, message", [
        ([], "model document must be a JSON object"),
        ({"states": ["a"], "atoms": []}, "'atoms' must be an object"),
        ({"states": ["a"], "measures": []}, "'measures' must be an object"),
        ({"states": ["a"], "measures": {"": {"a": "1"}}}, "measure names must be nonempty"),
        ({"states": ["a"], "measures": {"u": ["1"]}}, "measure 'u' must be an object"),
        ({"states": ["a"], "atoms": {"p": ["a"]}}, "atom 'p': interpretation must be an object"),
        ({"states": ["a"], "atoms": {"p": {"a": "a"}}},
         "atom 'p': interpretation values must be lists of states"),
    ], ids=["document", "atoms", "measures", "measure-name", "measure", "interpretation", "members"])
    def test_wrong_shapes_rejected(self, data, message):
        with pytest.raises(ModelError, match=exactly(message)):
            parse_document(data)

    @pytest.mark.parametrize("data, message", [
        ({"states": ["a", "b"], "atoms": {"p": {"a": ["a"]}}},
         "atom 'p': valuation missing interpretation for state 'b'"),
        ({"states": ["a", "b"], "measures": {"u": {"a": "1"}}},
         "measure 'u': measure missing weight for state 'b'"),
        # Entries are checked in document order, each key before its value.
        ({"states": ["a", "b"], "atoms": {"p": {"a": ["zz"], "ghost": []}}},
         "atom 'p': undeclared state 'zz'"),
        ({"states": ["a", "b"], "atoms": {"p": {"ghost": ["zz"], "a": []}}},
         "atom 'p': undeclared state 'ghost'"),
        ({"states": ["a", "b"], "atoms": {"p": {"b": ["zz"]}}}, "atom 'p': undeclared state 'zz'"),
        ({"states": ["a", "b"], "measures": {"u": {"a": "1/0", "ghost": "1"}}},
         "measure 'u', state 'a': zero denominator in '1/0'"),
        ({"states": ["a", "b"], "measures": {"u": {"ghost": "1/0"}}}, "measure 'u': undeclared state 'ghost'"),
        ({"states": ["a", "b"], "measures": {"u": {"b": "x"}}},
         "measure 'u', state 'b': expected a rational string like '3/10' or '1', got 'x'"),
    ], ids=["atom-missing", "measure-missing", "member-before-key", "key-before-member",
            "member-before-missing", "weight-before-key", "key-before-weight", "weight-before-missing"])
    def test_first_fault_in_a_table_is_named_with_its_table(self, data, message):
        with pytest.raises(ModelError, match=exactly(message)):
            parse_document(data)

    def test_undeclared_state_in_interpretation_named(self):
        data = minimal_document()
        data["atoms"]["p"]["a"] = ["a", "ghost"]
        with pytest.raises(ModelError, match="'ghost'"):
            parse_document(data)

    def test_undeclared_state_key_named(self):
        data = minimal_document()
        data["atoms"]["p"]["ghost"] = []
        with pytest.raises(ModelError, match="'ghost'"):
            parse_document(data)

    def test_partial_interpretation_rejected(self):
        data = minimal_document()
        del data["atoms"]["p"]["b"]
        with pytest.raises(ModelError, match="'b'"):
            parse_document(data)

    def test_star_mixed_with_states_rejected(self):
        data = minimal_document()
        data["atoms"]["c"]["a"] = []
        with pytest.raises(ModelError, match="shorthand"):
            parse_document(data)

    def test_duplicate_states_rejected(self):
        data = minimal_document()
        data["states"] = ["a", "a"]
        with pytest.raises(ModelError, match="duplicate"):
            parse_document(data)

    def test_float_weight_rejected(self):
        data = minimal_document()
        data["measures"]["u"]["a"] = "0.5"
        with pytest.raises(ModelError, match="rational"):
            parse_document(data)

    def test_numeric_weight_rejected(self):
        data = minimal_document()
        data["measures"]["u"]["a"] = 0.5
        with pytest.raises(ModelError, match="rational"):
            parse_document(data)

    @pytest.mark.parametrize("weight", ["\u0663/\u0661\u0660", "\uff17/10"], ids=["arabic-indic", "fullwidth"])
    def test_weights_are_ascii_numerals(self, weight):
        with pytest.raises(ModelError, match=exactly(
            f"measure 'u', state 'a': expected a rational string like '3/10' or '1', got {weight!r}"
        )):
            parse_document(one_state_document(weight))

    def test_zero_denominator_rejected(self):
        data = minimal_document()
        data["measures"]["u"]["a"] = "1/0"
        with pytest.raises(ModelError, match=exactly("measure 'u', state 'a': zero denominator in '1/0'")):
            parse_document(data)

    def test_weights_not_summing_to_one_rejected(self):
        data = minimal_document()
        data["measures"]["u"]["a"] = "2/5"
        with pytest.raises(ModelError, match=exactly("measure 'u': weights must sum to 1, got 9/10")):
            parse_document(data)

    def test_negative_weight_rejected(self):
        data = minimal_document()
        data["measures"]["u"] = {"a": "-2/4", "b": "3/2"}
        with pytest.raises(ModelError, match=exactly("measure 'u': negative weight -1/2 for state 'a'")):
            parse_document(data)

    @pytest.mark.parametrize("member", [["b"], {"b": 1}], ids=["list", "object"])
    def test_unhashable_member_is_an_undeclared_state(self, member):
        data = minimal_document()
        data["atoms"]["c"] = {"*": ["a", member]}
        with pytest.raises(ModelError, match=exactly(f"atom 'c': undeclared state {member!r}")):
            parse_document(data)

    def test_numeral_beyond_the_digit_limit_rejected(self):
        data = one_state_document(f"{long_numeral()}/{long_numeral()}")
        with pytest.raises(ModelError, match=exactly(
            "measure 'u', state 'a': numeral exceeds the integer digit limit"
        )):
            parse_document(data)

    def test_long_numerals_are_valid_without_the_digit_limit(self):
        numeral = long_numeral()
        data = one_state_document(f"{numeral}/{numeral}")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert parse_document(data).measure("u").of_state("a") == 1
        finally:
            sys.set_int_max_str_digits(limit)

    def test_undeclared_state_in_measure_named(self):
        data = minimal_document()
        data["measures"]["u"]["ghost"] = "0"
        with pytest.raises(ModelError, match="'ghost'"):
            parse_document(data)

    def test_unknown_top_level_key_rejected(self):
        data = minimal_document()
        data["priors"] = {}
        with pytest.raises(ModelError, match="'priors'"):
            parse_document(data)

    def test_missing_states_rejected(self):
        with pytest.raises(ModelError, match="states"):
            parse_document({"atoms": {}})

    def test_unknown_measure_lookup(self):
        doc = parse_document(minimal_document())
        with pytest.raises(ModelError, match="'missing'"):
            doc.measure("missing")


def test_a_document_is_a_model_and_measures_over_its_space():
    doc = coinflip()
    model, pi, other = doc.model, doc.measure("pi"), ProbabilityMeasure(StateSpace(["a"]), [1])
    holds = "a document holds a Model and a mapping of measures, got "
    maps = "a document maps nonempty names to measures over its space, got "
    for args, message in [
        (("x", {}), holds + "'x' and {}"),
        ((model, [1]), holds + f"{_shown(model)} and [1]"),
        ((model, {"pi": 3}), maps + "'pi': 3"),
        ((model, {"": pi}), maps + f"'': {_shown(pi)}"),
        ((model, {1: pi}), maps + f"1: {_shown(pi)}"),
        ((model, {"u": other}), maps + f"'u': {_shown(other)}"),
    ]:
        with pytest.raises(ModelError, match=exactly(message)):
            ModelDocument(*args)
    assert ModelDocument(model, {"pi": pi}).measure("pi") is pi


class TestLoadDocument:
    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(minimal_document()), encoding="utf-8")
        doc = load_document(path)
        assert doc.model.space.states == ("a", "b")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError, match="cannot read"):
            load_document(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ModelError, match="invalid JSON"):
            load_document(path)

    def test_crlf_error_offset_counts_the_files_characters(self, tmp_path):
        path = tmp_path / "crlf.json"
        text = '{\r\n  "states": ["a"],\r\n  "atoms": {"p": {"*": ["a"]}}\r\n  "measures": {}\r\n}\r\n'
        path.write_bytes(text.encode("utf-8"))
        fault = text.index('"measures"')  # no comma before it
        message = f"invalid JSON in model document {str(path)!r}: Expecting ',' delimiter: line 4 column 3 (char {fault})"
        with pytest.raises(ModelError, match=exactly(message)):
            load_document(path)

    def test_bare_integer_beyond_the_digit_limit(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"states": ["a"], "measures": {"u": {"a": %s}}}' % long_numeral())
        message = f"invalid JSON in model document {str(path)!r}: numeral exceeds the integer digit limit"
        with pytest.raises(ModelError, match=exactly(message)):
            load_document(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ModelError, match="is not UTF-8"):
            load_document(path)


def pooled_model(rng, space):
    """Atoms whose readings are drawn from two events that every atom shares."""
    pool = [gens.random_set(rng, space) for _ in range(2)]
    return Model(space, {name: VariableValuation(space, [rng.choice(pool) for _ in space])
                         for name in gens.ATOM_NAMES})


FAULTS = ("negative", "sum", "duplicate", "unknown", "missing")


def serialized(rng, model, measures, fault=None):
    """A document for ``model`` and ``measures``, in a random key order, member
    order and layout; atoms before states included.  State names may hold a "]",
    a "," or characters that JSON escapes; member lists may be pooled, each set
    written alike wherever it occurs, and may hold whitespace after "[", before
    "]" and around ","; an atom's entries may come in state order, reversed or
    shuffled; weight texts repeat with their values or are written apart; and
    keys may be written with escapes.  ``fault``, one of ``FAULTS``, puts one
    fault in the document where it has the parts for it."""
    affixes = ["", "]", "],", ",", '"', "\\", "\u00e9", "\u2603"] if rng.random() < 0.5 else [""]
    name = {state: rng.choice(affixes) + state + rng.choice(affixes) for state in model.space.states}
    pooled, orders = rng.random() < 0.5, {}  # when pooled, each set's mask -> its one member order
    spaced, lists, rendered = rng.random() < 0.5, [], {}  # lists: member lists, written in after dumping

    def members(s):
        order = rng.sample([name[state] for state in s], len(s))
        lists.append(orders.setdefault(s.mask, order) if pooled else order)
        return f"\x01{len(lists) - 1}"  # a placeholder, which json.dumps writes as "\u0001<index>"

    def written(match):
        listed = lists[int(match[1])]
        if not spaced:
            return json.dumps(listed, ensure_ascii=ensure_ascii, separators=separators)
        if pooled and id(listed) in rendered:
            return rendered[id(listed)]
        names = [json.dumps(n, ensure_ascii=ensure_ascii) for n in listed]
        rendered[id(listed)] = "[" + gap() + "".join(
            f"{n}{gap()},{gap()}" for n in names[:-1]) + "".join(names[-1:]) + gap() + "]"
        return rendered[id(listed)]

    def gap():
        return rng.choice(["", " ", "  ", "\n", "\t", "\r\n "])

    atoms = {}
    for atom, valuation in model.atoms.items():
        atom = rng.choice([atom, atom, "states", "atoms", "*"])
        if valuation.is_constant() and rng.random() < 0.5:
            atoms[atom] = {"*": members(valuation.sets[0])}
        else:
            entries = [(name[state], members(s)) for state, s in valuation.items()]
            order = rng.choice([entries, entries[::-1], rng.sample(entries, len(entries))])
            atoms[atom] = dict(order)

    def weight(w):  # its own text, or an equal value written apart
        k = rng.choice([1, 1, 2, 3])
        return str(w) if k == 1 else f"{w.numerator * k}/{w.denominator * k}"

    data = {
        "states": [name[state] for state in model.space.states],
        "atoms": atoms,
        "measures": {m: {name[state]: weight(w) for state, w in measure.items()} for m, measure in measures.items()},
    }
    tables = [t for t in [*atoms.values(), *data["measures"].values()] if "*" not in t]
    weighted = [t for t in data["measures"].values() if len(t) > 1]
    if fault == "negative" and weighted:  # one negative weight text at two states
        table = rng.choice(weighted)
        for state in rng.sample(list(table), 2):
            table[state] = "-1/7"
    elif fault == "sum" and weighted:
        table = rng.choice(weighted)
        table[rng.choice(list(table))] = "1/1000003"
    elif fault == "unknown" and tables:
        rng.choice(tables)["nowhere"] = "0" if rng.random() < 0.5 else []
    elif fault == "missing" and tables:
        table = rng.choice(tables)
        del table[rng.choice(list(table))]
    elif fault == "duplicate" and tables:  # written in as the key of an earlier entry after dumping
        table = rng.choice(tables)
        table["\x02"] = table[rng.choice(list(table))]
        duplicated = json.dumps(rng.choice(list(table)[:-1]))
    keys = [key for key in rng.sample(list(data), 3) if rng.random() < 0.95]
    ensure_ascii = rng.random() < 0.5
    separators = rng.choice([None, (",", ":"), (" ,\r\n", " : ")])
    text = json.dumps({key: data[key] for key in keys}, ensure_ascii=ensure_ascii,
                      indent=rng.choice([None, 0, 2, "\t"]), separators=separators)
    text = re.sub(r'"\\u0001(\d+)"', written, text)
    if fault == "duplicate" and tables:
        text = text.replace('"\\u0002"', duplicated)

    def escaped(key):  # one character of the key as a \u escape, which json.dumps never writes
        at = rng.randrange(len(key[1]))
        return f'"{key[1][:at]}\\u{ord(key[1][at]):04x}{key[1][at + 1:]}"' if rng.random() < 0.5 else key[0]

    return re.sub(r'(?<=[{,\s])"([^"\\]+)"(?=\s*:)', escaped, text) if rng.random() < 0.3 else text


def mutated(rng, text):
    """``text`` with one seeded fault, or none."""
    at = rng.randrange(len(text) + 1)
    span = text[at:at + rng.randint(1, 12)]
    kind = rng.randrange(8)
    if kind == 0:
        return text
    if kind == 1:
        return text[:at] + rng.choice(['{', '}', '"', ',', ':', ' ', '[', ']', '1', 'null', '"s0"']) + text[at:]
    if kind == 2:
        return text[:at] + text[at + len(span):]
    if kind == 3:
        return text[:at] + span + text[at:]
    if kind == 4:  # a duplicate top-level key
        return "{" + rng.choice(['"states": ["s0"], ', '"atoms": {}, ', '"measures": {}, ']) + text[1:]
    if kind == 5 and '"atoms"' in text:  # a duplicate atom key, or an empty atom name
        brace = text.index("{", text.index('"atoms"')) + 1
        return text[:brace] + rng.choice(['"p": {"*": []}, ', '"q": 1, ', '"": {"*": []}, ']) + text[brace:]
    if kind == 6:
        return text + rng.choice([" ", "\n", "x", "{}", " 1", "\u00a0"])
    end = text.rindex("}")  # a key after the others, "atoms" included
    return text[:end] + rng.choice([', "priors": {}', ', "atoms": {}', ', "states": []']) + text[end:]


def loaded_or_message(load, *args):
    try:
        doc = load(*args)
    except ModelError as exc:
        return str(exc)
    space = doc.model.space
    assert all(s.space is space for v in doc.model.atoms.values() for s in v.sets)
    assert all(m.space is space for m in doc.measures.values())
    return space, list(doc.model.atoms.items()), list(doc.measures.items())


def decoded_whole(path):
    """The document as ``parse_document(json.loads(text))`` reads it."""
    try:
        data = json.loads(path.read_bytes().decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON in model document {str(path)!r}: {exc}") from None
    return parse_document(data)


def test_load_document_matches_decoding_the_whole_text(tmp_path):
    rng = random.Random(20261020)
    path = tmp_path / "model.json"
    outcomes = {str: 0, tuple: 0}
    for _ in range(400):
        space = gens.random_space(rng, 1, 6)
        model = rng.choice([gens.random_model, gens.coherent_model, gens.constant_model, pooled_model])(rng, space)
        measures = {name: gens.random_measure(rng, space) for name in rng.sample(["u", "w"], rng.randint(0, 2))}
        text = serialized(rng, model, measures, rng.choice([None, None, *FAULTS]))
        for variant in range(5):
            if variant:
                text = mutated(rng, text)
            path.write_text(text, encoding="utf-8")
            expected = loaded_or_message(decoded_whole, path)
            assert loaded_or_message(load_document, path) == expected, text
            outcomes[type(expected)] += 1
    assert min(outcomes.values()) > 300, outcomes


def peak(call):
    """The most memory ``call()`` held at once, as tracemalloc traces it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_holds_one_atom_of_decoded_lists_at_a_time(tmp_path):
    rng = random.Random(20261021)
    states = [f"s{i}" for i in range(128)]
    atoms = {f"a{k}": {s: rng.sample(states, rng.randrange(128)) for s in states} for k in range(8)}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"states": states, "atoms": atoms}), encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    del atoms

    assert peak(lambda: load_document(path)) < 0.5 * peak(lambda: json.loads(text))


class TestAtomWalk:
    """Each branch of load_document's walk over an atom's entries, each against
    decoding the whole text."""

    def load(self, tmp_path, monkeypatch, text):
        """The outcome of loading ``text``, each member-list text that was decoded
        on its own, and whether the load fell back to decoding the whole text."""
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        lists, whole = [], []
        decode, parse = document._decode, document.parse_document

        def counted(s, at):
            value, end = decode(s, at)
            if isinstance(value, list):
                lists.append(s[at:end])
            return value, end

        monkeypatch.setattr(document, "_decode", counted)
        monkeypatch.setattr(document, "parse_document", lambda data: whole.append(data) or parse(data))
        outcome = loaded_or_message(load_document, path)
        assert outcome == loaded_or_message(decoded_whole, path)
        return outcome, lists, bool(whole)

    def test_a_repeated_list_text_is_decoded_once_an_atom(self, tmp_path, monkeypatch):
        text = ('{"states": ["s0", "s1", "s2"], "atoms": {'
                '"p": {"s0": ["s0", "s1"], "s1": ["s2"], "s2": ["s0", "s1"]}, '
                '"q": {"s0": ["s0", "s1"], "s1": ["s0", "s1"], "s2": ["s0", "s1"]}}}')
        (space, atoms, _), lists, whole = self.load(tmp_path, monkeypatch, text)
        assert not whole
        assert lists.count('["s0", "s1"]') == 2 and lists.count('["s2"]') == 1
        p = dict(atoms)["p"]
        assert p.sets[0] is p.sets[2] and p.sets[0].names() == ("s0", "s1")

    def test_a_new_list_text_is_decoded_even_for_a_set_seen_before(self, tmp_path, monkeypatch):
        text = '{"states": ["s0", "s1"], "atoms": {"p": {"s0": ["s0", "s1"], "s1": ["s1", "s0"]}}}'
        (space, atoms, _), lists, whole = self.load(tmp_path, monkeypatch, text)
        assert not whole
        assert lists == ['["s0", "s1"]', '["s0", "s1"]', '["s1", "s0"]']  # the states, then p's two
        assert dict(atoms)["p"].sets == (space.full(), space.full())

    def test_a_list_whose_first_bracket_is_in_a_name_is_decoded_each_time(self, tmp_path, monkeypatch):
        text = ('{"states": ["x]", "a", "b"], "atoms": {'
                '"p": {"x]": ["x]", "a"], "a": ["x]", "a"], "b": ["x]", "b"]}}}')
        (space, atoms, _), lists, whole = self.load(tmp_path, monkeypatch, text)
        assert not whole
        assert lists.count('["x]", "a"]') == 2
        assert [s.names() for s in dict(atoms)["p"].sets] == [("x]", "a"), ("x]", "a"), ("x]", "b")]

    def test_a_bracket_in_a_later_list_s_name_walks_the_atom_entry_by_entry(self, tmp_path, monkeypatch):
        # Past the first list, a "]" in a name shows only once the atom's text is split.
        text = ('{"states": ["a", "x]", "b"], "atoms": {'
                '"p": {"a": ["a"], "x]": ["x]", "b"], "b": ["x]", "b"]}}}')
        (space, atoms, _), lists, whole = self.load(tmp_path, monkeypatch, text)
        assert not whole
        assert lists.count('["x]", "b"]') == 2
        assert [s.names() for s in dict(atoms)["p"].sets] == [("a",), ("x]", "b"), ("x]", "b")]

    def test_an_escaped_key_is_decoded(self, tmp_path, monkeypatch):
        text = r'{"st\u0061tes": ["s0", "s1"], "atoms": {"p": {"s\u0030": ["s1"], "s\u0031": ["s0", "s1"]}}}'
        (space, atoms, _), lists, whole = self.load(tmp_path, monkeypatch, text)
        assert not whole
        assert [s.names() for s in dict(atoms)["p"].sets] == [("s1",), ("s0", "s1")]

    @pytest.mark.parametrize("entries, expected", [
        ('"s0": ["s0"], "s1": [], "s0": ["s1"]', [("s1",), ()]),  # the last entry for "s0" stands
        ('"s0": ["s0"], "s1": "s1"', "atom 'p': interpretation values must be lists of states"),
    ], ids=["duplicate-key", "not-a-list"])
    def test_an_irregular_atom_falls_back_to_the_whole_text(self, tmp_path, monkeypatch, entries, expected):
        text = '{"states": ["s0", "s1"], "atoms": {"p": {%s}}}' % entries
        outcome, lists, whole = self.load(tmp_path, monkeypatch, text)
        assert whole
        assert (outcome if isinstance(outcome, str) else [s.names() for s in dict(outcome[1])["p"].sets]) == expected

    def test_a_pooled_load_peaks_well_below_decoding_the_whole_text(self, tmp_path):
        rng = random.Random(20261022)
        states = [f"s{i}" for i in range(1024)]
        atoms = {}
        for k in range(4):
            pool = [rng.sample(states, rng.randrange(32, 64)) for _ in range(4)]
            atoms[f"a{k}"] = {state: rng.choice(pool) for state in states}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"states": states, "atoms": atoms}), encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        del atoms
        # Reading the file alone peaks near twice its text; one atom's decoded lists come on top.
        assert peak(lambda: load_document(path)) < peak(lambda: json.loads(text)) / 3


class TestBundledFixture:
    def test_coinflip_shape(self):
        doc = coinflip()
        assert doc.model.space.states == (
            "H-acc", "H-sh", "H-st", "T-acc", "T-sh", "T-st"
        )
        assert set(doc.model.atoms) == {"p", "pbar", "h", "a"}
        assert set(doc.measures) == {"pi", "piPrime"}

    def test_reload_is_stable(self):
        first, second = coinflip(), coinflip()
        assert first.model.space == second.model.space
        for atom in first.model.atoms:
            assert first.model.valuation(atom) == second.model.valuation(atom)
        for name in first.measures:
            assert first.measure(name) == second.measure(name)
