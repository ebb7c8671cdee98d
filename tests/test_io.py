"""File format tests: canonical JSON, round-trips, error context."""

import json
import os
import sys
from fractions import Fraction

import pytest

from ktwist import cli
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


BAD_BOUNDS = {
    "0": "bounds must be positive, got '0'",
    "-1": "bounds must be positive, got '-1'",
    "2,x": "bad bound component 'x'",
    "2,0": "bounds must be positive, got '2,0'",
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


def test_fixtures_match_schemas():
    jsonschema = pytest.importorskip("jsonschema")
    gschema = json.loads(_read(SCHEMAS, "graph.schema"))
    cschema = json.loads(_read(SCHEMAS, "cocycle.schema"))
    for name in GRAPH_FIXTURES:
        jsonschema.validate(json.loads(_read(FIXTURES, name)), gschema)
    for stem in COCYCLE_FIXTURES:
        jsonschema.validate(json.loads(_read(FIXTURES, stem)), cschema)
