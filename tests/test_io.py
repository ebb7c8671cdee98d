"""File format tests: canonical JSON, round-trips, error context."""

import contextlib
import copy
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktwist import cli
from ktwist import io as io_module
from ktwist.cocycles import PullbackCocycle, TableCocycle, cocycle_value
from ktwist.io import (
    FileFormatError,
    canonical_json,
    digest_text,
    graph_to_jsonable,
    load_cocycle,
    loads_cocycle,
    loads_graph,
    report_document,
    resolve_graph,
    serialize_cocycle,
    serialize_graph,
    serialize_report,
)
from ktwist.kgraph import builtin
from ktwist.phases import PhaseExponent

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    from test_cocycles import corrupted_t2_table
finally:
    sys.path.pop(0)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SCHEMAS = os.path.join(os.path.dirname(__file__), "..", "schemas")

GRAPH_FIXTURES = ["T2", "B2", "B2xT1", "B2xT3", "DISJOINT2"]
COCYCLE_FIXTURES = {
    "pullback_theta": "T2",
    "pullback_half": "T2",
    "pullback_b2": "B2",
    "phi_theta": "B2xT1",
    "phi_zero": "B2xT1",
    "b2t3": "B2xT3",
    "t2_table": "T2",
}


def _read(dirname, stem):
    with open(os.path.join(dirname, stem + ".json"), "r", encoding="utf-8") as fh:
        return fh.read()


# --- canonical form ----------------------------------------------------------


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert canonical_json({"a": [2, 3], "b": 1}) == text


def reference_json(obj) -> str:
    """The stdlib call whose text canonical_json must equal."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# the builtin graphs that the tests and the bench resolve
BUILTINS = ["T1", "T2", "T3", "T4", "B2", "B3", "B4", "C2", "C3", "DISJOINT2", "B2xT0", "B2xT1", "B2xT2",
            "B3xT1", "B4xT1", "B2xT3", "C2xT1", "C2xT2", "C3xT1", "C3xT2", "DISJOINT2xT1"]


def _documents():
    """Every structured stdout of the golden reports, the golden oracle
    report, and every file under fixtures/ and schemas/, parsed."""
    with open(os.path.join(GOLDEN, "reports.json"), encoding="utf-8") as fh:
        records = json.load(fh)
    docs = {name: json.loads(r["stdout"]) for name, r in records.items() if r["stdout"]}
    for path in [os.path.join(GOLDEN, "oracle_report.json"),
                 *(os.path.join(d, f) for d in (FIXTURES, SCHEMAS) for f in sorted(os.listdir(d)))]:
        with open(path, encoding="utf-8") as fh:
            docs[os.path.basename(path)] = json.load(fh)
    return docs


def test_canonical_json_equals_the_stdlib_on_every_document():
    for name, doc in _documents().items():
        assert canonical_json(doc) == reference_json(doc), name


@pytest.mark.parametrize("name", BUILTINS)
def test_serialized_builtin_equals_the_stdlib(name):
    g = builtin(name)
    assert serialize_graph(g) == reference_json(graph_to_jsonable(g))


# quotes, backslashes, control characters, non-ASCII and astral text
_json_text = st.text(st.sampled_from(list('"\\/\x00\x1f\x7f\n\t\u00e9\u03b8\u2028\U0001f600')) | st.characters())
_json_scalar = st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -(2**64) - 1]) | _json_text
_json_value = st.recursive(
    _json_scalar,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_json_value)
def test_canonical_json_equals_the_stdlib(obj):
    assert canonical_json(obj) == reference_json(obj)


def test_canonical_json_writes_numbers_as_the_stdlib():
    obj = [2**64, -(2**100), 0.5, -2.0, 1e300, 1e-7, float("inf"), float("-inf"), float("nan")]
    assert canonical_json(obj) == reference_json(obj)


@pytest.mark.parametrize("obj", [{"a": Fraction(1, 2)}, [Fraction(1, 2)], {("a", "b"): 1}, {1: "a"}, {"a"}],
                         ids=["Fraction value", "Fraction item", "tuple key", "int key", "set"])
def test_canonical_json_rejects_other_types(obj):
    with pytest.raises(TypeError):
        canonical_json(obj)


def test_graph_roundtrip_is_byte_identical():
    for name in GRAPH_FIXTURES:
        text = serialize_graph(builtin(name))
        again = serialize_graph(loads_graph(text))
        assert again == text, name


def test_graph_fixtures_are_canonical():
    for name in GRAPH_FIXTURES:
        text = _read(FIXTURES, name)
        assert serialize_graph(loads_graph(text)) == text, name


def test_cocycle_fixtures_are_canonical():
    for stem, gname in COCYCLE_FIXTURES.items():
        g = builtin(gname)
        text = _read(FIXTURES, stem)
        assert serialize_cocycle(loads_cocycle(text, g)) == text, stem


def test_table_cocycle_roundtrip():
    g = builtin("T2")
    theta = PhaseExponent(Fraction(0), (("theta", Fraction(1)),))
    c = TableCocycle(
        (1, 1),
        (
            (("v", ("a",)), ("v", ("b",)), PhaseExponent(Fraction(0), ())),
            (("v", ("b",)), ("v", ("a",)), theta),
        ),
    )
    text = serialize_cocycle(c)
    back = loads_cocycle(text, g)
    assert isinstance(back, TableCocycle)
    assert serialize_cocycle(back) == text


def test_table_word_in_another_colour_order_is_matched(tmp_path):
    g = builtin("T2")
    text = canonical_json(_table([{"mu": {"range": "v", "word": ["b", "a"]},
                                   "nu": {"range": "v", "word": ["a"]}, "value": "1/3"}]))
    path = tmp_path / "table.json"
    path.write_text(text, encoding="utf-8")
    c, digest = load_cocycle(str(path), g)
    assert cocycle_value(c, g.make_path("v", ["a", "b"]), g.edge_path("a")) == PhaseExponent.of(Fraction(1, 3))
    assert digest == digest_text(text)


def test_table_side_is_normalized_once_per_load(monkeypatch):
    # the benchmark's shape: a T2 table to bound (8, 8) has 6,561 entries,
    # so 13,122 sides, of which 81 differ; a repeated side is neither
    # checked nor normalized again
    g = builtin("T2")
    table = corrupted_t2_table((8, 8))
    text = serialize_cocycle(table)
    sides = {side for mu, nu, _ in table.entries for side in (mu, nu)}
    calls, checks = [], []
    make_path = g.make_path
    monkeypatch.setattr(g, "make_path", lambda v, word: calls.append((v, word)) or make_path(v, word))
    check = io_module._as_str_list
    monkeypatch.setattr(io_module, "_as_str_list", lambda x, where: checks.append(where) or check(x, where))
    assert loads_cocycle(text, g).entries == table.entries
    words = [where for where in checks if where.endswith(".word")]
    assert len(calls) == len(words) == len(sides) == 81 and len(table.entries) == 6561


def test_table_side_that_is_no_path_names_its_own_entry():
    g = builtin("T2")
    side = {"range": "v", "word": ["a"]}
    bad = {"range": "v", "word": ["a", "z"]}
    entries = [{"mu": side, "nu": side, "value": "0"}, {"mu": side, "nu": side, "value": "0"},
               {"mu": side, "nu": bad, "value": "0"}, {"mu": bad, "nu": side, "value": "0"}]
    with pytest.raises(FileFormatError, match=r"^cocycle\.entries\[2\]\.nu: not a path"):
        loads_cocycle(canonical_json(_table(entries)), g)


def test_table_literal_is_parsed_once_per_load(monkeypatch):
    g = builtin("T2")
    with open(os.path.join(FIXTURES, "t2_table.json"), encoding="utf-8") as fh:
        text = fh.read()
    literals = [ent["value"] for ent in json.loads(text)["entries"]]
    expected = loads_cocycle(text, g).entries
    calls = []
    parse = io_module.parse_phase
    monkeypatch.setattr(io_module, "parse_phase", lambda t, symbols: calls.append(t) or parse(t, symbols))
    assert loads_cocycle(text, g).entries == expected
    # 81 entries hold 5 distinct literals
    assert sorted(calls) == sorted(set(literals)) and len(calls) == 5 < len(literals) == 81


@pytest.mark.parametrize("value, message", [
    ("1/0", "zero denominator"), (7, "expected a phase literal string"),
    ("1/2 + 1*rho", "undeclared symbol 'rho'"), ("1/3 +", "malformed phase literal"),
])
def test_repeated_bad_table_literal_names_its_first_entry(value, message):
    g = builtin("T2")
    side = {"range": "v", "word": ["a"]}
    entries = [{"mu": side, "nu": side, "value": v} for v in ("0", value, "1/2", value)]
    with pytest.raises(FileFormatError, match=rf"^cocycle\.entries\[1\]\.value: {message}"):
        loads_cocycle(canonical_json(_table(entries)), g)


def test_table_literals_are_read_against_each_file_s_own_symbols(tmp_path, capsys):
    # the same file loaded twice in one process: a literal read under the
    # first load's declaration must not be reused under the second
    doc = json.loads(_read(FIXTURES, "t2_table"))
    path = tmp_path / "table.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    assert cli.main(["validate", "builtin:T2", "--cocycle", str(path), "--depth", "2"]) == 0
    capsys.readouterr()
    first = next(i for i, ent in enumerate(doc["entries"]) if "theta" in ent["value"])
    doc["symbols"] = ["rho"]
    path.write_text(canonical_json(doc), encoding="utf-8")
    assert cli.main(["validate", "builtin:T2", "--cocycle", str(path), "--depth", "2"]) == 1
    value = doc["entries"][first]["value"]
    assert capsys.readouterr() == (
        "", f"error: cocycle.entries[{first}].value: undeclared symbol 'theta' in {value!r}\n")


# --- the collector over a load -----------------------------------------------


@contextlib.contextmanager
def _collector(enabled: bool):
    """Run the block with the collector on or off, then put back its state."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


# the frames of a table load: the JSON parse and the build of the table
LOAD_CODE = {json.decoder.JSONDecoder.raw_decode.__code__, io_module.cocycle_from_jsonable.__code__}


def test_table_load_makes_no_collector_pass():
    # 625 entries make about 3,000 JSON containers and more built objects,
    # several passes' worth at the default young-generation threshold of
    # 700.  A pass counts when the parse or the build is on the stack, so
    # the one pass that may run when the load has put the collector back
    # does not.
    g = builtin("T2")
    text = serialize_cocycle(corrupted_t2_table((4, 4)))
    passes = []

    def count(phase, info):
        frame = sys._getframe(1) if phase == "start" else None
        while frame is not None and frame.f_code not in LOAD_CODE:
            frame = frame.f_back
        if frame is not None:
            passes.append(info["generation"])

    with _collector(True):
        gc.collect()
        gc.callbacks.append(count)
        try:
            table = loads_cocycle(text, g)
        finally:
            gc.callbacks.remove(count)
    assert len(table.entries) == 625 and passes == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_load_puts_back_the_collector_state(enabled):
    g = builtin("T2")
    text = serialize_cocycle(corrupted_t2_table((2, 2)))
    doc = json.loads(text)
    doc["entries"][40]["value"] = "1/0"
    with _collector(enabled):
        loads_graph(serialize_graph(g))
        assert gc.isenabled() is enabled
        loads_cocycle(text, g)
        assert gc.isenabled() is enabled
        with pytest.raises(FileFormatError, match=r"^cocycle\.entries\[40\]\.value: zero denominator"):
            loads_cocycle(canonical_json(doc), g)
        assert gc.isenabled() is enabled
        with pytest.raises(FileFormatError, match="invalid JSON"):
            loads_graph("{")
        assert gc.isenabled() is enabled


def test_a_load_leaves_no_cyclic_garbage():
    # with the collector off throughout, no pass can free a cycle before
    # the count: a load makes none, so pausing the collector over it
    # delays no collection
    graph_text = serialize_graph(builtin("B2xT3"))
    t2 = builtin("T2")
    table_text = serialize_cocycle(corrupted_t2_table((4, 4)))
    with _collector(False):
        gc.collect()
        g = loads_graph(graph_text)
        assert gc.collect() == 0
        table = loads_cocycle(table_text, t2)
        assert gc.collect() == 0
    assert g.k == 4 and len(table.entries) == 625


# --- validation and error context -------------------------------------------


def test_loads_graph_rejects_invalid_json():
    with pytest.raises(FileFormatError, match="invalid JSON"):
        loads_graph("{not json")


def test_loads_graph_names_bad_edge():
    obj = graph_to_jsonable(builtin("T2"))
    obj["edges"][0]["source"] = "nowhere"
    with pytest.raises(FileFormatError, match="unknown source vertex 'nowhere'"):
        loads_graph(canonical_json(obj))


def test_loads_graph_names_bad_color():
    obj = graph_to_jsonable(builtin("T2"))
    obj["edges"][0]["color"] = 7
    eid = obj["edges"][0]["id"]
    with pytest.raises(FileFormatError, match=f"edge '{eid}'.*color 7"):
        loads_graph(canonical_json(obj))


def test_loads_graph_missing_key():
    with pytest.raises(FileFormatError, match="missing key 'vertices'"):
        loads_graph(canonical_json({"k": 1, "edges": []}))


def test_loads_graph_validation_gate():
    obj = graph_to_jsonable(builtin("T2"))
    obj["squares"] = []
    text = canonical_json(obj)
    with pytest.raises(FileFormatError, match="fails validation"):
        loads_graph(text)
    g = loads_graph(text, validate=False)
    assert g.k == 2 and not g.squares


def test_cocycle_unknown_edge():
    g = builtin("B2")
    bad = {"variant": "phi_omega", "l": 1, "symbols": [],
           "phi": {"zz": ["0"]}, "omega": [["0"]]}
    with pytest.raises(FileFormatError, match="unknown edge 'zz'"):
        loads_cocycle(canonical_json(bad), g)


def test_cocycle_bad_phase_literal_names_location():
    g = builtin("B2")
    bad = {"variant": "phi_omega", "l": 1, "symbols": [],
           "phi": {"e": ["0"], "f": ["1*oops"]}, "omega": [["0"]]}
    with pytest.raises(FileFormatError, match=r"cocycle\.phi\['f'\]\[0\]"):
        loads_cocycle(canonical_json(bad), g)


def test_cocycle_wrong_matrix_shape():
    g = builtin("T2")
    bad = {"variant": "pullback", "symbols": [], "theta_matrix": [["0"]]}
    with pytest.raises(FileFormatError, match="expected 2 rows"):
        loads_cocycle(canonical_json(bad), g)
    ragged = {"variant": "pullback", "symbols": [], "theta_matrix": [["0", "0"], ["0"]]}
    with pytest.raises(FileFormatError, match=re.escape("cocycle.theta_matrix[1]: expected 2 entries")):
        loads_cocycle(canonical_json(ragged), g)


def test_cocycle_phase_literal_with_rational_and_symbol():
    g = builtin("B2")
    obj = {"variant": "pullback", "symbols": ["theta"],
           "theta_matrix": [["1/3 + 2*theta"]]}
    c = loads_cocycle(canonical_json(obj), g)
    assert isinstance(c, PullbackCocycle)
    x = c.theta[0][0]
    assert x.rat == Fraction(1, 3)
    assert x.coeff("theta") == Fraction(2)


def _malformed_square():
    obj = graph_to_jsonable(builtin("T2"))
    obj["squares"][0]["from"] = ["a", ["b"]]
    return obj


def _table(entries, bound=(1, 1)):
    return {"variant": "table", "symbols": [], "bound": list(bound), "entries": entries}


def _with_booleans(name, k=False, color=False, ij=False):
    """The builtin graph with true in place of the integer 1 in the named fields."""
    obj = graph_to_jsonable(builtin(name))
    if k:
        obj["k"] = True
    if color:
        for e in obj["edges"]:
            if e["color"] == 1:
                e["color"] = True
    if ij:
        for sq in obj["squares"]:
            sq["ij"][0] = True
    return obj


MALFORMED = {
    "edges not a list": ("graph", {"k": 1, "vertices": ["v"], "edges": 5}),
    "edge id not a string": ("graph", {"k": 1, "vertices": ["v"],
                                       "edges": [{"id": ["e"], "color": 1, "range": "v", "source": "v"}]}),
    "square edge not a string": ("graph", _malformed_square()),
    "table entries not a list": ("cocycle", _table(5)),
    "table path not an object": ("cocycle", _table([{"mu": "range", "nu": {"range": "v", "word": []},
                                                     "value": "0"}])),
    "table range not a vertex": ("cocycle", _table([{"mu": {"range": "nowhere", "word": []},
                                                     "nu": {"range": "v", "word": []}, "value": "0"}])),
    "table range not a string": ("cocycle", _table([{"mu": {"range": 5, "word": []},
                                                     "nu": {"range": "v", "word": []}, "value": "0"}])),
    "k and color booleans": ("graph", _with_booleans("B2", k=True, color=True)),
    "color a boolean": ("graph", _with_booleans("T2", color=True)),
    "ij a boolean": ("graph", _with_booleans("T2", ij=True)),
    "l a boolean": ("cocycle", {"variant": "phi_omega", "symbols": [], "l": True,
                                "phi": {}, "omega": [["0"]]}),
    "bound a boolean": ("cocycle", _table([], bound=(True, 1))),
    "zero denominator": ("cocycle", {"variant": "pullback", "symbols": [],
                                     "theta_matrix": [["0", "1/0"], ["0", "0"]]}),
    "symbol not a name": ("cocycle", {"variant": "pullback", "symbols": ["1x"],
                                      "theta_matrix": [["0", "0"], ["0", "0"]]}),
    "symbol declared twice": ("cocycle", {"variant": "pullback", "symbols": ["theta", "theta"],
                                          "theta_matrix": [["0", "0"], ["0", "0"]]}),
}


@pytest.mark.parametrize("kind, obj", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_input_exits_1(tmp_path, capsys, kind, obj):
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(obj), encoding="utf-8")
    if kind == "graph":
        argv = ["validate", str(path)]
    else:
        argv = ["validate", "builtin:T2", "--cocycle", str(path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _side(word, rng="v"):
    return {"range": rng, "word": word}


_AB = {"mu": _side(["a", "b"]), "nu": _side(["a"]), "value": "1/3"}
_GOOD = [{"mu": _side(w), "nu": _side(["b"]), "value": f"{i}/101"}
         for i, w in enumerate([["a"], ["b"], ["a", "b"], ["b", "a"]] * 25)]

# The exact `error:` line of each way a table entry can fail, most of them
# after a valid entry whose side or literal a lookup could wrongly reuse.
TABLE_ERRORS = {
    "entries not a list": (5, "cocycle.entries: expected a list"),
    "entry not an object": ([_AB, 5], "cocycle.entries[1]: expected an object"),
    "missing mu": ([_AB, {"nu": _side(["a"]), "value": "0"}], "cocycle.entries[1]: missing key 'mu'"),
    "side not an object": ([_AB, {"mu": "range", "nu": _side([]), "value": "0"}],
                           "cocycle.entries[1].mu: expected an object"),
    "side a list": ([_AB, {"mu": ["v", ["a", "b"]], "nu": _side(["a"]), "value": "0"}],
                    "cocycle.entries[1].mu: expected an object"),
    "missing range": ([_AB, {"mu": {"word": ["a", "b"]}, "nu": _side(["a"]), "value": "0"}],
                      "cocycle.entries[1].mu: missing key 'range'"),
    "range not a vertex": ([{"mu": _side([], "nowhere"), "nu": _side([]), "value": "0"}],
                           "cocycle.entries[0].mu.range: expected a vertex of the graph"),
    "range not a string": ([{"mu": _side([], 5), "nu": _side([]), "value": "0"}],
                           "cocycle.entries[0].mu.range: expected a vertex of the graph"),
    "range a list": ([_AB, {"mu": _side(["a", "b"], ["v"]), "nu": _side(["a"]), "value": "0"}],
                     "cocycle.entries[1].mu.range: expected a vertex of the graph"),
    "missing word": ([_AB, {"mu": {"range": "v"}, "nu": _side(["a"]), "value": "0"}],
                     "cocycle.entries[1].mu: missing key 'word'"),
    "word a string": ([_AB, {"mu": _side("ab"), "nu": _side(["a"]), "value": "1/3"}],
                      "cocycle.entries[1].mu.word: expected a list of strings"),
    "word holds an int": ([_AB, {"mu": _side(["a", "b"]), "nu": _side(["a", 1]), "value": "0"}],
                          "cocycle.entries[1].nu.word: expected a list of strings"),
    "word holds a dict": ([_AB, {"mu": _side(["a", {"b": 1}]), "nu": _side(["a"]), "value": "0"}],
                          "cocycle.entries[1].mu.word: expected a list of strings"),
    "word not a path": ([_AB, {"mu": _side(["a", "z"]), "nu": _side(["a"]), "value": "0"}],
                        "cocycle.entries[1].mu: not a path ('z')"),
    "value a list": ([{"mu": _side(["a"]), "nu": _side(["b"]), "value": []}],
                     "cocycle.entries[0].value: expected a phase literal string"),
    "value an object": ([{"mu": _side(["a"]), "nu": _side(["b"]), "value": {}}],
                        "cocycle.entries[0].value: expected a phase literal string"),
    "missing value": ([_AB, {"mu": _side(["a", "b"]), "nu": _side(["a"])}],
                      "cocycle.entries[1]: missing key 'value'"),
    "bad literal": ([_AB, {"mu": _side(["a", "b"]), "nu": _side(["a"]), "value": "1/3 +"}],
                    "cocycle.entries[1].value: malformed phase literal '1/3 +'"),
    "bad side after 100 entries": (_GOOD + [{"mu": _side(["b"]), "nu": _side(["b", "z"]), "value": "0"}],
                                   "cocycle.entries[100].nu: not a path ('z')"),
    "bad word after 100 entries": (_GOOD + [{"mu": _side(["a"]), "nu": _side("b"), "value": "0"}],
                                   "cocycle.entries[100].nu.word: expected a list of strings"),
    "nonzero vertex entry": ([_AB, {"mu": _side([]), "nu": _side(["a"]), "value": "1/2"}],
                             "cocycle.entries[1]: a side is a vertex path, so the value must be 0, not 1/2"),
    "pair listed twice": ([_AB, {"mu": _side(["b", "a"]), "nu": _side(["a"]), "value": "1/2"}],
                          "cocycle.entries[1]: lists the pair of cocycle.entries[0] again"),
    "entry with an unknown key": ([_AB, {**_AB, "weight": 1, "note": ""}],
                                  "cocycle.entries[1]: unknown key 'note'"),
    "side with an unknown key": ([{"mu": {**_side(["a"]), "zz": 0}, "nu": _side([]), "value": "0"}],
                                 "cocycle.entries[0].mu: unknown key 'zz'"),
    "known side with an unknown key": ([_AB, {**_AB, "nu": {**_side(["a"]), "zz": 0}}],
                                       "cocycle.entries[1].nu: unknown key 'zz'"),
    "unknown key and no word": ([_AB, {**_AB, "mu": {"range": "v", "zz": 0}}],
                                "cocycle.entries[1].mu: missing key 'word'"),
}


@pytest.mark.parametrize("entries, line", TABLE_ERRORS.values(), ids=list(TABLE_ERRORS))
def test_table_error_line(tmp_path, capsys, entries, line):
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(_table(entries, bound=(2, 2))), encoding="utf-8")
    assert cli.main(["validate", "builtin:T2", "--cocycle", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_table_listing_a_pair_twice_exits_1(tmp_path, capsys):
    # the pair (a, a.b) again, its second side in the other colour order and
    # valued 1/2: the table used to keep the first value and pass at depth 2
    doc = json.loads(_read(FIXTURES, "t2_table"))
    first = next(i for i, e in enumerate(doc["entries"])
                 if (e["mu"]["word"], e["nu"]["word"]) == (["a"], ["a", "b"]))
    doc["entries"].append({"mu": _side(["a"]), "nu": _side(["b", "a"]), "value": "1/2"})
    path = tmp_path / "twice.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    assert cli.main(["validate", "builtin:T2", "--cocycle", str(path), "--depth", "2"]) == 1
    last = len(doc["entries"]) - 1
    assert capsys.readouterr() == (
        "", f"error: cocycle.entries[{last}]: lists the pair of cocycle.entries[{first}] again\n")


def _graph_doc(k, vertices, edges, squares=()):
    """A graph file: edges as (id, color, range, source), squares as (i, j, f, g, gp, fp)."""
    return {"k": k, "vertices": vertices,
            "edges": [{"id": e, "color": c, "range": r, "source": s} for e, c, r, s in edges],
            "squares": [{"ij": [i, j], "from": [f, g], "to": [gp, fp]} for i, j, f, g, gp, fp in squares]}


T2_EDGES = [("a", 1, "v", "v"), ("b", 2, "v", "v")]


# Input errors of each kind, as file text, and the error line each gives.
# The kind is "graph" for a graph file, else the builtin graph that a
# cocycle file is read against.
INPUT_ERRORS = {
    "graph not an object": ("graph", "[1, 2]\n", "graph: expected a JSON object"),
    "cocycle not an object": ("T2", '"table"\n', "cocycle: expected a JSON object"),
    "edge not an object": ("graph", canonical_json({"k": 1, "vertices": ["v"], "edges": [5]}),
                           "graph.edges[0]: expected an object"),
    "edge with an unknown range": ("graph", canonical_json(_graph_doc(1, ["v"], [("a", 1, "w", "v")])),
                                   "graph.edges[0] (edge 'a'): unknown range vertex 'w'"),
    "square not an object": ("graph", canonical_json({**_graph_doc(2, ["v"], T2_EDGES), "squares": [5]}),
                             "graph.squares[0]: expected an object"),
    "square from one edge": ("graph", canonical_json({**_graph_doc(2, ["v"], T2_EDGES), "squares": [
                                 {"ij": [1, 2], "from": ["a"], "to": ["b", "a"]}]}),
                             "graph.squares[0]: 'from' and 'to' must be edge pairs"),
    "name not a string": ("graph", canonical_json({**_graph_doc(2, ["v"], T2_EDGES), "name": 5}),
                          "graph.name: expected a string"),
    "duplicate edge id": ("graph", canonical_json(_graph_doc(2, ["v"], [("a", 1, "v", "v"), ("a", 2, "v", "v")])),
                          "graph: duplicate edge id 'a'"),
    "phi not an object": ("T2", canonical_json({"variant": "phi_omega", "symbols": [], "l": 1,
                                                "phi": [], "omega": [["0"]]}),
                          "cocycle.phi: expected an object"),
    "phi vector of the wrong length": ("B2xT1", canonical_json({"variant": "phi_omega", "symbols": [], "l": 1,
                                                                "phi": {"e": ["0", "0"]}, "omega": [["0"]]}),
                                       "cocycle.phi['e']: expected 1 phase literals"),
    "table word that does not compose": ("C3xT1", canonical_json(_table([{"mu": _side(["c1"], "v0"),
                                                                          "nu": _side([], "v1"), "value": "0"}])),
                                         "cocycle.entries[0].mu: not a path (edge 'c1' has range 'v1', expected 'v0')"),
    "unknown variant": ("T2", canonical_json({"variant": "twisted"}), "cocycle.variant: unknown variant 'twisted'"),
    "table bound negative": ("T2", canonical_json(_table([], bound=(-1, 2))),
                             "cocycle.bound: entry 0 is -1; a bound is a non-negative integer"),
    "table bound negative in its second entry": ("T2", canonical_json(_table([], bound=(2, -3))),
                                                 "cocycle.bound: entry 1 is -3; a bound is a non-negative integer"),
    "table bound of the wrong length": ("T2", canonical_json(_table([], bound=(1, 1, 1))),
                                        "cocycle.bound: expected 2 integers"),
    "table bound a boolean": ("T2", canonical_json(_table([], bound=(1, False))), "cocycle.bound: expected 2 integers"),
    "table bound a float": ("T2", canonical_json(_table([], bound=(1.5, 1))), "cocycle.bound: expected 2 integers"),
    "table bound a string": ("T2", canonical_json(_table([], bound=("1", 1))), "cocycle.bound: expected 2 integers"),
    "table bound not a list": ("T2", canonical_json({**_table([]), "bound": 2}), "cocycle.bound: expected 2 integers"),
    "symbol not a name": ("T2", canonical_json({"variant": "pullback", "symbols": ["theta", "x\n"],
                                                "theta_matrix": [["0", "0"], ["0", "0"]]}),
                          "cocycle.symbols[1]: 'x\\n' is not a symbol name"),
    "symbol declared twice": ("T2", canonical_json({"variant": "pullback", "symbols": ["theta", "theta"],
                                                    "theta_matrix": [["0", "0"], ["0", "0"]]}),
                              "cocycle.symbols[1]: 'theta' is declared again, first at cocycle.symbols[0]"),
    "graph with an unknown key": ("graph", canonical_json({**_graph_doc(1, ["v"], [("a", 1, "v", "v")]), "bogus": 3}),
                                  "graph: unknown key 'bogus'"),
    "edge with an unknown key": ("graph", canonical_json({**_graph_doc(1, ["v"], [("a", 1, "v", "v")]), "edges": [
                                     {"id": "a", "color": 1, "range": "v", "source": "v", "weight": 2}]}),
                                 "graph.edges[0]: unknown key 'weight'"),
    "square with an unknown key": ("graph", canonical_json({**_graph_doc(2, ["v"], T2_EDGES), "squares": [
                                       {"ij": [1, 2], "from": ["a", "b"], "to": ["b", "a"], "zz": 0, "i": 1}]}),
                                   "graph.squares[0]: unknown key 'i'"),
    "pullback with an unknown key": ("T2", canonical_json({"variant": "pullback", "symbols": [], "extra": 1,
                                                           "theta_matrix": [["0", "0"], ["0", "0"]]}),
                                     "cocycle: unknown key 'extra'"),
    "pullback with a phi_omega key": ("T2", canonical_json({"variant": "pullback", "symbols": [], "l": 1,
                                                            "theta_matrix": [["0", "0"], ["0", "0"]]}),
                                      "cocycle: unknown key 'l'"),
    "phi_omega with an unknown key": ("B2xT1", canonical_json({"variant": "phi_omega", "symbols": [], "l": 1,
                                                               "phi": {}, "omega": [["0"]], "theta_matrix": []}),
                                      "cocycle: unknown key 'theta_matrix'"),
    "table with an unknown key": ("T2", canonical_json({**_table([]), "depth": 2}), "cocycle: unknown key 'depth'"),
    "unknown variant with an unknown key": ("T2", canonical_json({"variant": "twisted", "zz": 1}),
                                            "cocycle.variant: unknown variant 'twisted'"),
    "edge with an unknown key and no source": ("graph", canonical_json({**_graph_doc(1, ["v"], []), "edges": [
                                                   {"id": "a", "color": 1, "range": "v", "zz": "v"}]}),
                                               "graph.edges[0]: missing key 'source'"),
    "cocycle not JSON": ("T2", "{\n", "cocycle: invalid JSON "
                         "(Expecting property name enclosed in double quotes: line 2 column 1 (char 2))"),
    "graph with no squares": ("graph", canonical_json({"k": 1, "vertices": ["v"], "edges": [
                                  {"id": "a", "color": 1, "range": "v", "source": "v"}]}),
                              "graph: missing key 'squares'"),
    "phase literal with an integer past the digit limit": (
        "T2", canonical_json({"variant": "pullback", "symbols": [],
                              "theta_matrix": [["1/" + "3" * 5000, "0"], ["0", "0"]]}),
        f"cocycle.theta_matrix[0][0]: integer of 5000 digits exceeds the limit of {sys.get_int_max_str_digits()} digits"),
    "graph with more colors than edges": ("graph", canonical_json(_graph_doc(10**20, ["v"], [("a", 1, "v", "v")])),
                                          "graph.k: 100000000000000000000 exceeds the edge count 1; "
                                          "every color needs an edge"),
}


@pytest.mark.parametrize("kind, text, line", INPUT_ERRORS.values(), ids=list(INPUT_ERRORS))
def test_input_error_names_its_field(tmp_path, capsys, kind, text, line):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    if kind == "graph":
        argv = ["validate", str(path)]
    else:
        argv = ["validate", f"builtin:{kind}", "--cocycle", str(path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")


# Each builtin name that parses but names no graph, and its error line.
BAD_BUILTINS = {
    "T9": "unsupported rank in 'T9'",
    "B1": "unsupported loop count in 'B1'",
    "C0": "bad cycle length in 'C0'",
    "C99999999999999999999": "unsupported cycle length in 'C99999999999999999999'",
    "B2xT99999999999999999": "unsupported rank in 'B2xT99999999999999999'",
    "NOPE": "unknown builtin graph 'NOPE'",
}
# digit runs past the interpreter's limit on int(), 4,300 digits by default
ONES = "1" * 5000
BAD_BUILTINS.update({f"{form}{ONES}": f"unsupported {what} in '{form}{ONES}'"
                     for form, what in (("T", "rank"), ("B", "loop count"), ("C", "cycle length"),
                                        ("B2xT", "rank"))})


@pytest.mark.parametrize("name", list(BAD_BUILTINS),
                         ids=[name.replace(ONES, "<5000 ones>") for name in BAD_BUILTINS])
def test_bad_builtin_name_exits_1(capsys, name):
    assert cli.main(["per", f"builtin:{name}"]) == 1
    assert capsys.readouterr() == ("", f"error: {BAD_BUILTINS[name]}\n")


def test_product_with_no_torus_colors_is_the_base(capsys):
    assert serialize_graph(builtin("B2xT0")) == serialize_graph(builtin("B2"))
    assert cli.main(["per", "builtin:B2xT0", "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert cli.main(["per", "builtin:B2", "--format", "structured"]) == 0
    assert capsys.readouterr().out == out


# values of the wrong type, or of the right type but out of place
ODD_VALUES = (None, True, False, 0, -1, 3, 1.5, "", "x", "1/0", [], {}, [1], {"x": 1})
FUZZ_PAIRINGS = (("T2", "pullback_theta"), ("T2", "t2_table"), ("B2", "pullback_b2"),
                 ("B2xT1", "phi_theta"), ("DISJOINT2", "pullback_b2"))


def _locations(node, at=()):
    """The path of every value below the root of a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield at + (key,)
        yield from _locations(child, at + (key,))


@st.composite
def _mutated(draw, doc):
    """doc with one or two values set to an odd value, deleted, or repeated in their list."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        where = draw(st.sampled_from(list(_locations(doc))))
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        key = where[-1]
        how = draw(st.sampled_from(["set", "delete" if isinstance(parent, dict) else "repeat"]))
        if how == "set":
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif how == "delete":
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


@st.composite
def _fuzzed_inputs(draw):
    gname, cname = draw(st.sampled_from(FUZZ_PAIRINGS))
    docs = [json.loads(_read(FIXTURES, gname)), json.loads(_read(FIXTURES, cname))]
    which = draw(st.integers(0, 1))
    docs[which] = draw(_mutated(docs[which]))
    return docs


@settings(max_examples=60, deadline=None)
@given(_fuzzed_inputs())
def test_mutated_input_gives_a_report_or_an_error_line(docs):
    # a mutated fixture either still makes a report or exits 1 with one
    # `error:` line; no command lets an exception escape
    with tempfile.TemporaryDirectory() as tmp:
        gpath, cpath = os.path.join(tmp, "graph.json"), os.path.join(tmp, "cocycle.json")
        for path, doc in ((gpath, docs[0]), (cpath, docs[1])):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for command in ("validate", "analyze", "per", "omega", "simplicity"):
            argv = [command, gpath, "--format", "structured"]
            if command in ("validate", "omega", "simplicity"):
                argv += ["--cocycle", cpath]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if err.getvalue():
                assert code == 1 and out.getvalue() == "", argv
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
            else:
                assert json.loads(out.getvalue())["command"] == command


@pytest.mark.parametrize("command", ["validate", "analyze", "per", "omega", "simplicity", "oracle"])
def test_graph_with_no_vertices_exits_1(tmp_path, capsys, command):
    # it used to pass validation and fail later with "max() arg is an empty sequence"
    path = tmp_path / "empty.json"
    path.write_text(canonical_json({"k": 1, "vertices": [], "edges": [], "squares": []}), encoding="utf-8")
    argv = [command, str(path)]
    if command in ("omega", "simplicity", "oracle"):
        argv += ["--cocycle", os.path.join(FIXTURES, "pullback_b2.json")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "graph has no vertices" in captured.out + captured.err
    assert "Traceback" not in captured.err


def test_boolean_rank_is_named_as_the_rank():
    # with k = true the color-2 edges of T2 used to take the blame
    with pytest.raises(FileFormatError, match=r"graph\.k: expected a positive integer"):
        loads_graph(canonical_json(_with_booleans("T2", k=True)))


@pytest.mark.parametrize("command", ["simplicity", "omega"])
def test_resolution_dependent_cocycle_exits_1(tmp_path, capsys, command):
    # the corrupted table is not a 2-cocycle, so two resolutions of one
    # isotropy pair disagree: an input error, not a traceback
    path = tmp_path / "table.json"
    path.write_text(serialize_cocycle(corrupted_t2_table((2, 2))), encoding="utf-8")
    assert cli.main([command, "builtin:T2", "--cocycle", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "resolution" in err and "Traceback" not in err
    assert err.count("\n") == 1


def test_oracle_reports_a_resolution_dependent_cocycle(tmp_path, capsys):
    # the suites count each check that the corrupted table fails, and the
    # report is written, rather than the run stopping at the first one
    path = tmp_path / "table.json"
    path.write_text(serialize_cocycle(corrupted_t2_table((3, 3))), encoding="utf-8")
    emit = tmp_path / "report.json"
    argv = ["oracle", "builtin:T2", "--cocycle", str(path), "--depth", "1", "--emit", str(emit)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == ""
    suites = {s["name"]: s for s in json.loads(emit.read_text(encoding="utf-8"))["suites"]}
    assert not suites["cocycle_identity"]["ok"]
    assert not suites["resolution_independence"]["ok"]
    assert suites["resolution_independence"]["checked"] == 64


def test_negative_validate_depth_exits_1(tmp_path, capsys):
    # at depth -1 no pair was checked, so the corrupted table passed
    path = tmp_path / "table.json"
    path.write_text(serialize_cocycle(corrupted_t2_table((2, 2))), encoding="utf-8")
    assert cli.main(["validate", "builtin:T2", "--cocycle", str(path), "--depth", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: depth must be >= 0, got -1\n"


def test_negative_validate_depth_exits_1_without_cocycle(capsys):
    # the graph alone used to be checked and pass with exit 0
    assert cli.main(["validate", "builtin:T2", "--depth", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: depth must be >= 0, got -1\n"


def _validate_lines(capsys, argv):
    """Human and structured validate output: (exit code, lines, problems by section)."""
    code = cli.main(["validate", *argv])
    lines = capsys.readouterr().out.splitlines()
    assert cli.main(["validate", *argv, "--format", "structured"]) == code
    doc = json.loads(capsys.readouterr().out)
    return code, lines, {key: doc[key]["problems"] for key in ("graph", "cocycle") if key in doc}


def test_validate_counts_the_problems_it_leaves_out(tmp_path, capsys):
    table = os.path.join(FIXTURES, "t2_table.json")
    code, lines, problems = _validate_lines(capsys, ["builtin:T2", "--cocycle", table, "--depth", "4"])
    assert code == 1 and len(problems["cocycle"]) == 16
    assert lines[1:] == (
        ["cocycle: INVALID (depth 4)"]
        + [f"  problem: {p}" for p in problems["cocycle"][:5]]
        + ["  ... 11 more problems not shown (see --format structured)"]
    )
    # at depth 3 the four failing triples are all printed
    code, lines, problems = _validate_lines(capsys, ["builtin:T2", "--cocycle", table, "--depth", "3"])
    assert len(problems["cocycle"]) == 4
    assert lines[2:] == [f"  problem: {p}" for p in problems["cocycle"]]
    # fourteen vertices that are the range of no edge of either colour, one
    # problem each, and a vertex w with a loop of each colour, so that the
    # file has an edge per colour
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"k": 2, "vertices": [f"v{i}" for i in range(14)] + ["w"], "squares": [],
                                "edges": [{"id": "a", "color": 1, "range": "w", "source": "w"},
                                          {"id": "b", "color": 2, "range": "w", "source": "w"}]}),
                    encoding="utf-8")
    code, lines, problems = _validate_lines(capsys, [str(path)])
    assert code == 1 and len(problems["graph"]) == 14
    assert lines == (
        ["graph: INVALID"]
        + [f"  problem: {p}" for p in problems["graph"][:5]]
        + ["  ... 9 more problems not shown (see --format structured)"]
    )


def test_validate_writes_one_source_problem_per_vertex(tmp_path, capsys):
    # 600 colours, a loop of each at v0 and 599 vertices that are the range
    # of no edge: one problem per vertex, not per (vertex, colour)
    k = 600
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"k": k, "vertices": [f"v{i}" for i in range(k)], "squares": [],
                                "edges": [{"id": f"e{c}", "color": c, "range": "v0", "source": "v0"}
                                          for c in range(1, k + 1)]}), encoding="utf-8")
    assert cli.main(["validate", str(path), "--format", "structured"]) == 1
    out = capsys.readouterr().out
    problems = json.loads(out)["graph"]["problems"]
    assert problems == [f"vertex 'v{i}' is not the range of any color-1 edge, nor of any edge of 599 more colors (source)"
                        for i in range(1, k)]
    assert out.count("\n") < 2 * k


# a loop of each colour at each of two vertices u and w
LOOPS2 = [("a_u", 1, "u", "u"), ("a_w", 1, "w", "w"), ("b_u", 2, "u", "u"), ("b_w", 2, "w", "w")]
SQUARE_W = (1, 2, "a_w", "b_w", "b_w", "a_w")
# three colour-1-then-2 paths but two colour-2-then-1 paths
UNEVEN = [("a", 1, "u", "u"), ("a2", 1, "u", "w"), ("x", 1, "w", "u"), ("b", 2, "u", "w"), ("y", 2, "w", "w")]

# Each graph problem that a file which loads can have, and one problem it gives.
GRAPH_PROBLEMS = {
    "empty vertex name": (_graph_doc(1, [""], [("e", 1, "", "")]), "bad vertex name ''"),
    "duplicate vertex": (_graph_doc(1, ["v", "v"], [("e", 1, "v", "v")]), "duplicate vertex 'v'"),
    "square colours out of order": (_graph_doc(2, ["v"], T2_EDGES, [(2, 1, "a", "b", "b", "a")]),
                                    "square (a,b)->(b,a): colors must satisfy 1 <= i < j <= k"),
    "square edge of the wrong colour": (_graph_doc(2, ["v"], T2_EDGES, [(1, 2, "b", "a", "a", "b")]),
                                        "square (b,a)->(a,b): edge 'b' has color 2, expected 1"),
    "input pair not composable": (_graph_doc(2, ["u", "w"], LOOPS2, [(1, 2, "a_u", "b_w", "b_u", "a_w")]),
                                  "square (a_u,b_w)->(b_u,a_w): input pair not composable"),
    "output pair not composable": (_graph_doc(2, ["u", "w"], LOOPS2, [(1, 2, "a_u", "b_w", "b_u", "a_w")]),
                                   "square (a_u,b_w)->(b_u,a_w): output pair not composable"),
    "output endpoints": (_graph_doc(2, ["u", "w"], LOOPS2, [(1, 2, "a_u", "b_u", "b_w", "a_w"), SQUARE_W]),
                         "square (a_u,b_u)->(b_w,a_w): output endpoints do not match input"),
    "table not total": (_graph_doc(2, ["v"], T2_EDGES), "colors (1,2): square table not total, missing pair (a,b)"),
    "duplicate square entries": (_graph_doc(2, ["v"], T2_EDGES, [(1, 2, "a", "b", "b", "a")] * 2),
                                 "colors (1,2): duplicate square entries"),
    "table not injective": (_graph_doc(2, ["v"], [("a1", 1, "v", "v"), ("a2", 1, "v", "v"), ("b", 2, "v", "v")],
                                       [(1, 2, "a1", "b", "b", "a1"), (1, 2, "a2", "b", "b", "a1")]),
                            "colors (1,2): square table not injective"),
    "output not a reversed pair": (_graph_doc(2, ["u", "w"], LOOPS2,
                                              [(1, 2, "a_u", "b_u", "b_u", "a_w"), SQUARE_W]),
                                   "colors (1,2): square output (b_u,a_w) is not a composable reversed pair"),
    "table cannot be bijective": (_graph_doc(2, ["u", "w"], UNEVEN,
                                             [(1, 2, "a", "b", "b", "x"), (1, 2, "a2", "y", "y", "x"),
                                              (1, 2, "x", "b", "b", "a")]),
                                  "colors (1,2): square table cannot be bijective (3 vs 2 pairs)"),
}


@pytest.mark.parametrize("doc, problem", GRAPH_PROBLEMS.values(), ids=list(GRAPH_PROBLEMS))
def test_validate_names_each_graph_problem(tmp_path, capsys, doc, problem):
    path = tmp_path / "graph.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    code, lines, problems = _validate_lines(capsys, [str(path)])
    assert code == 1 and lines[0] == "graph: INVALID"
    assert problem in problems["graph"]
    assert not any("Square(" in p for p in problems["graph"])


@pytest.mark.parametrize("cocycle, depth, triples", [
    ("t2_table", None, 0),  # the default depth 2 tests no triple of three edges
    ("t2_table", "3", 8),
    ("t2_table", "4", 30),  # 44 up to degree 4, less those that meet a pair the table lacks
    ("pullback_theta", "3", None),
])
def test_validate_counts_the_triples_of_a_table(capsys, cocycle, depth, triples):
    argv = ["validate", "builtin:T2", "--cocycle", os.path.join(FIXTURES, f"{cocycle}.json"),
            "--format", "structured", *(("--depth", depth) if depth else ())]
    cli.main(argv)
    assert json.loads(capsys.readouterr().out)["cocycle"].get("triples") == triples


def test_validate_accepts_a_multi_vertex_3_graph_file(tmp_path, capsys):
    # the hexagon check meets colour pairs that do not compose on C3xT2
    path = tmp_path / "c3xt2.json"
    path.write_text(serialize_graph(builtin("C3xT2")), encoding="utf-8")
    assert _validate_lines(capsys, [str(path)]) == (0, ["graph: OK"], {"graph": []})


def test_validate_names_a_torus_colour_that_is_no_loop(tmp_path, capsys):
    # a valid 2-graph on two vertices whose colour 2 is a 2-cycle, not loops
    edges = [("c0", 1, "v0", "v1"), ("c1", 1, "v1", "v0"), ("d0", 2, "v0", "v1"), ("d1", 2, "v1", "v0")]
    doc = _graph_doc(2, ["v0", "v1"], edges, [(1, 2, "c0", "d1", "d0", "c1"), (1, 2, "c1", "d0", "d1", "c0")])
    graph, cocycle = tmp_path / "graph.json", tmp_path / "phi.json"
    graph.write_text(canonical_json(doc), encoding="utf-8")
    cocycle.write_text(canonical_json({"variant": "phi_omega", "symbols": [], "l": 1, "phi": {}, "omega": [["0"]]}),
                       encoding="utf-8")
    code, lines, problems = _validate_lines(capsys, [str(graph), "--cocycle", str(cocycle)])
    assert code == 1 and lines[:2] == ["graph: OK", "cocycle: INVALID (depth 2)"]
    assert problems["cocycle"] == [
        "color 2 at vertex 'v0': expected exactly one loop",
        "color 2 at vertex 'v1': expected exactly one loop",
        "edge 'd0' of torus color 2 is not a loop",
        "edge 'd1' of torus color 2 is not a loop",
    ]


def test_graph_problems_do_not_depend_on_the_hash_seed(tmp_path):
    # two outputs that are not composable reversed pairs came in set order,
    # which PYTHONHASHSEED=4 reversed
    doc = _graph_doc(2, ["u", "w"], LOOPS2, [(1, 2, "a_u", "b_u", "b_u", "a_w"), (1, 2, "a_w", "b_w", "b_w", "a_u")])
    path = tmp_path / "graph.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outs = []
    for seed in ("0", "4"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        run = subprocess.run([sys.executable, "-m", "ktwist.cli", "validate", str(path), "--format", "structured"],
                             env=env, capture_output=True, text=True, timeout=60)
        outs.append([p for p in json.loads(run.stdout)["graph"]["problems"] if "reversed pair" in p])
    assert outs[0] == outs[1] == [
        f"colors (1,2): square output {p} is not a composable reversed pair" for p in ["(b_u,a_w)", "(b_w,a_u)"]
    ]


def test_validate_skips_the_cocycle_of_an_invalid_graph(tmp_path, capsys):
    doc, _ = GRAPH_PROBLEMS["square colours out of order"]
    path = tmp_path / "graph.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    cocycle = os.path.join(FIXTURES, "pullback_theta.json")
    code, lines, problems = _validate_lines(capsys, [str(path), "--cocycle", cocycle])
    assert code == 1
    assert lines == ["graph: INVALID",
                     "  problem: square (a,b)->(b,a): colors must satisfy 1 <= i < j <= k",
                     "cocycle: skipped (graph invalid)"]
    assert problems["cocycle"] == ["graph invalid, cocycle not checked"]


def test_validate_report_records_its_depth(capsys):
    # a table verdict holds only up to the depth, so the report carries it
    table = os.path.join(FIXTURES, "t2_table.json")
    for depth in (0, 1, 2):
        assert cli.main(["validate", "builtin:T2", "--cocycle", table, "--depth", str(depth),
                         "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["cocycle"] == {"ok": True, "depth": depth, "problems": [],
                                                                  "triples": 0}


BAD_BOUNDS = {
    "0": "bounds must be positive, got '0'",
    "-1": "bounds must be positive, got '-1'",
    "2,x": "bad bound component 'x'",
    "2,0": "bounds must be positive, got '2,0'",
    "²": "bad bound component '²'",
    "--3": "bad bound component '--3'",
    "1,2,3": "bound (1, 2, 3) has wrong length for 2 colors",
}


@pytest.mark.parametrize("bound", sorted(BAD_BOUNDS))
@pytest.mark.parametrize("command", ["analyze", "per", "omega", "simplicity"])
def test_bad_bound_exits_1(capsys, command, bound):
    # argparse used to reject these as usage errors, with exit 2 (the UNKNOWN
    # code) and a message that hid the reason
    argv = [command, "builtin:T2", f"--bound={bound}"]
    if command in ("omega", "simplicity"):
        argv += ["--cocycle", os.path.join(FIXTURES, "pullback_theta.json")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {BAD_BOUNDS[bound]}\n"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nonpositive_triple_cap_exits_1(capsys, cap):
    # a cap below 1 used to check one triple anyway
    argv = ["oracle", "builtin:T2", "--cocycle", os.path.join(FIXTURES, "pullback_theta.json"),
            "--max-triples", cap]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the sample cap must be >= 1, got {cap}\n"


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_nonpositive_oracle_depth_exits_1(capsys, depth):
    # a depth below 1 used to run the suites on the depth-1 box unannounced
    argv = ["oracle", "builtin:T2", "--cocycle", os.path.join(FIXTURES, "pullback_theta.json"),
            "--depth", depth]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the depth must be >= 1, got {depth}\n"


def test_table_fixture_is_the_corrupted_t2_table():
    assert _read(FIXTURES, "t2_table") == serialize_cocycle(corrupted_t2_table((2, 2)))


@pytest.mark.parametrize("command", ["validate", "omega", "simplicity", "oracle"])
def test_table_with_a_nonzero_vertex_entry_exits_1(tmp_path, capsys, command):
    # c(v, a) = 1/3 used to load, pass `validate` and be read as 0 everywhere
    doc = json.loads(_read(FIXTURES, "t2_table"))
    idx = next(i for i, e in enumerate(doc["entries"])
               if e["mu"]["word"] == [] and e["nu"]["word"] == ["a"])
    doc["entries"][idx]["value"] = "1/3"
    path = tmp_path / "table.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    with pytest.raises(FileFormatError, match=rf"^cocycle\.entries\[{idx}\]: "):
        loads_cocycle(path.read_text(encoding="utf-8"), builtin("T2"))
    assert cli.main([command, "builtin:T2", "--cocycle", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cocycle.entries[{idx}]: a side is a vertex path, so the value must be 0, not 1/3\n"
    )


@pytest.mark.parametrize("command", ["simplicity", "omega"])
def test_phi_breaking_a_square_exits_1(tmp_path, capsys, command):
    # phi = 1/3 on one torus loop of C3xT1 breaks the squares at that vertex
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"variant": "phi_omega", "symbols": [], "l": 1,
                                "phi": {"t1_v0": ["1/3"]}, "omega": [["0"]]}), encoding="utf-8")
    assert cli.main([command, "builtin:C3xT1", "--cocycle", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "square (c0,t1_v1)->(t1_v0,c0)" in captured.err


# --- references and digests --------------------------------------------------


def test_builtin_reference_resolution():
    g, d1 = resolve_graph("builtin:T2")
    _, d2 = resolve_graph("builtin:T2")
    assert g.name == "T2"
    assert d1 == d2 == digest_text(serialize_graph(g))


def test_file_reference_digest_matches_text():
    path = os.path.join(FIXTURES, "B2.json")
    g, d = resolve_graph(path)
    assert g.name == "B2"
    assert d == digest_text(_read(FIXTURES, "B2"))


def test_missing_files_are_reported():
    with pytest.raises(FileFormatError, match="cannot read graph file"):
        resolve_graph("/no/such/graph.json")
    with pytest.raises(FileFormatError, match="cannot read cocycle file"):
        load_cocycle("/no/such/cocycle.json", builtin("B2"))


@pytest.mark.parametrize("kind", ["graph", "cocycle"])
def test_file_that_is_not_utf8_is_named(tmp_path, capsys, kind):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    argv = ["validate", str(path)] if kind == "graph" else ["validate", "builtin:T2", "--cocycle", str(path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: cannot read {kind} file {str(path)!r}: 'utf-8' codec can't "
                                       "decode byte 0xff in position 0: invalid start byte\n")


# --- reports -----------------------------------------------------------------


def test_report_document_is_deterministic():
    doc1 = report_document("analyze", {"graph": "abc", "cocycle": "def"},
                           {"verdict": "x"})
    doc2 = report_document("analyze", {"cocycle": "def", "graph": "abc"},
                           {"verdict": "x"})
    assert serialize_report(doc1) == serialize_report(doc2)
    assert list(doc1["inputs"]) == ["cocycle", "graph"]
    assert "time" not in serialize_report(doc1).lower()
    assert doc1["tool"] == "ktwist"


# --- schemas (optional dependency) ------------------------------------------


def _closed_objects(doc: dict) -> dict:
    """The first object of each kind whose schema allows no other keys."""
    objects = {"graph" if "k" in doc else "cocycle": doc}
    for where, key in (("graph.edges[0]", "edges"), ("graph.squares[0]", "squares"), ("cocycle.entries[0]", "entries")):
        if doc.get(key):
            objects[where] = doc[key][0]
    if doc.get("entries"):
        objects.update({f"cocycle.entries[0].{side}": doc["entries"][0][side] for side in ("mu", "nu")})
    return objects


def test_a_key_outside_the_schema_is_refused_in_every_fixture(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schemas = {kind: json.loads(_read(SCHEMAS, f"{kind}.schema")) for kind in ("graph", "cocycle")}
    stems = sorted(name[:-5] for name in os.listdir(FIXTURES) if name.endswith(".json"))
    assert stems == sorted(GRAPH_FIXTURES + list(COCYCLE_FIXTURES))
    for stem in stems:
        kind = "graph" if stem in GRAPH_FIXTURES else "cocycle"
        for where in _closed_objects(json.loads(_read(FIXTURES, stem))):
            doc = json.loads(_read(FIXTURES, stem))
            _closed_objects(doc)[where]["zz"] = 0
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(doc, schemas[kind])
            path = tmp_path / f"{stem}.json"
            path.write_text(canonical_json(doc), encoding="utf-8")
            if kind == "graph":
                argv = ["validate", str(path)]
            else:
                argv = ["validate", f"builtin:{COCYCLE_FIXTURES[stem]}", "--cocycle", str(path)]
            assert cli.main(argv) == 1, (stem, where)
            assert capsys.readouterr() == ("", f"error: {where}: unknown key 'zz'\n"), (stem, where)


def test_fixtures_match_schemas():
    jsonschema = pytest.importorskip("jsonschema")
    gschema = json.loads(_read(SCHEMAS, "graph.schema"))
    cschema = json.loads(_read(SCHEMAS, "cocycle.schema"))
    for name in GRAPH_FIXTURES:
        jsonschema.validate(json.loads(_read(FIXTURES, name)), gschema)
    for stem in COCYCLE_FIXTURES:
        jsonschema.validate(json.loads(_read(FIXTURES, stem)), cschema)
