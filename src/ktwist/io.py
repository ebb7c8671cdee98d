"""Canonical JSON serialization for graphs, cocycles, and reports.

Files are UTF-8 JSON.  Canonical form is sorted-key, two-space-indented
JSON with a trailing newline; parse and serialize round-trip to identical
bytes on canonical input.  Graph references on the command line accept
either a file path or "builtin:NAME".

This module is where a file's names, references, ranks and lengths are
checked, each with a located `error:` message; `validate_kgraph`,
`validate_phi` and `validate_product_split` then check structure only.

`loads_graph` and `loads_cocycle` parse and build with the cyclic garbage
collector paused (`_CollectorPaused`): a load makes many container objects
and no cyclic garbage, so a collector pass in the middle of one walks them
all and frees nothing.

Reports are deterministic: tool version, input digests, bounds, verdicts
and certificates, never timestamps.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from json.encoder import encode_basestring

from . import __version__
from .cocycles import (
    BicharacterTable,
    CocycleSpec,
    OneCocyclePhi,
    PhiOmegaCocycle,
    PullbackCocycle,
    TableCocycle,
)
from .kgraph import Edge, KGraph, Square, builtin, validate_kgraph
from .phases import SYMBOL_NAME, PhaseExponent, PhaseSyntaxError, format_phase, format_phase_rows, parse_phase


class FileFormatError(ValueError):
    """Malformed input file; the message carries field context."""


# --- helpers ----------------------------------------------------------------


def canonical_json(obj) -> str:
    """`obj` as sorted-key, two-space-indented JSON with a trailing newline.

    The text equals `json.dumps(obj, indent=2, sort_keys=True,
    ensure_ascii=False) + "\\n"`, which is not called because with an indent
    the stdlib encodes through its pure-Python generator, not its C
    encoder.  This writer appends each piece to one list and joins it once;
    strings go through the stdlib's own escaper.  Values are str, int,
    float, bool, None, lists, tuples and dicts keyed by str; anything else
    raises TypeError.
    """
    out: list[str] = []
    _write_json(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write_json(o, newline: str, put) -> None:
    """Write `o` through `put`; `newline` is a newline and the current indent."""
    if isinstance(o, str):
        put(encode_basestring(o))
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + encode_basestring(key) + ": ")
            _write_json(o[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for x in o:
            put(sep)
            _write_json(x, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, float):
        if math.isfinite(o):
            put(float.__repr__(o))
        else:
            put("NaN" if o != o else "Infinity" if o > 0 else "-Infinity")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _CollectorPaused:
    """Turns the cyclic garbage collector off over one load, then puts back
    the state it found, so a collector the caller turned off stays off.

    A load makes many container objects, and each pass the collector makes
    in the middle of it walks all of them; at the default thresholds a
    6,561-entry table made 79 passes.  None of them can free anything the
    load made:
    - the tree `json.loads` returns is acyclic, so it dies by reference
      count as soon as the build drops it;
    - what the build makes either dies the same way or is kept by the
      graph or the spec it returns, such as the paths the graph interns.
    So the pause delays no collection of the load's own objects: a cycle
    among them becomes garbage only when the command drops the graph, and
    is collected then, as without the pause.  Garbage made before the load
    waits for the first pass after it.
    """

    def __enter__(self) -> None:
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self.was_enabled:
            gc.enable()


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise FileFormatError(f"{where}: missing key {key!r}")
    return obj[key]


def _unknown_key(obj: dict, keys, where: str) -> None:
    """Raise on the first key of obj, in sorted order, outside `keys`.

    Where every key of an object is required, the loader calls this only
    once each one is found and the key count is too large, so a missing
    key keeps its own message and a well-formed object costs one `len`.
    """
    extra = sorted(key for key in obj if key not in keys)
    if extra:
        raise FileFormatError(f"{where}: unknown key {extra[0]!r}")


def _is_int(x) -> bool:
    """A JSON integer: json loads true and false as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _as_list(x, where: str) -> list:
    if not isinstance(x, list):
        raise FileFormatError(f"{where}: expected a list")
    return x


def _as_str_list(x, where: str) -> list[str]:
    if not isinstance(x, list) or not all(isinstance(s, str) for s in x):
        raise FileFormatError(f"{where}: expected a list of strings")
    return x


def _symbol_list(x, where: str) -> list[str]:
    """Declared symbols: distinct names of the form the cocycle schema allows."""
    symbols = _as_str_list(x, where)
    for i, name in enumerate(symbols):
        if not SYMBOL_NAME.fullmatch(name):
            raise FileFormatError(f"{where}[{i}]: {name!r} is not a symbol name")
        first = symbols.index(name)
        if first != i:
            raise FileFormatError(f"{where}[{i}]: {name!r} is declared again, first at {where}[{first}]")
    return symbols


# --- graphs -----------------------------------------------------------------


def graph_to_jsonable(g: KGraph) -> dict:
    return {
        "k": g.k,
        "vertices": sorted(g.vertices),
        "edges": [
            {"id": e.id, "color": e.color, "range": e.range, "source": e.source}
            for e in sorted(g.edges, key=lambda e: e.id)
        ],
        "squares": [
            {"ij": [s.i, s.j], "from": [s.f, s.g], "to": [s.gp, s.fp]}
            for s in sorted(g.squares, key=lambda s: (s.i, s.j, s.f, s.g))
        ],
        "name": g.name,
    }


GRAPH_KEYS = ("k", "name", "vertices", "edges", "squares")
EDGE_KEYS = ("id", "color", "range", "source")
SQUARE_KEYS = ("ij", "from", "to")


def graph_from_jsonable(obj) -> KGraph:
    if not isinstance(obj, dict):
        raise FileFormatError("graph: expected a JSON object")
    _unknown_key(obj, GRAPH_KEYS, "graph")
    k = _need(obj, "k", "graph")
    if not _is_int(k) or k < 1:
        raise FileFormatError("graph.k: expected a positive integer")
    vertices = tuple(_as_str_list(_need(obj, "vertices", "graph"), "graph.vertices"))
    vset = set(vertices)
    edges = []
    for idx, e in enumerate(_as_list(_need(obj, "edges", "graph"), "graph.edges")):
        where = f"graph.edges[{idx}]"
        if not isinstance(e, dict):
            raise FileFormatError(f"{where}: expected an object")
        eid = _need(e, "id", where)
        color = _need(e, "color", where)
        rng = _need(e, "range", where)
        src = _need(e, "source", where)
        if len(e) != 4:
            _unknown_key(e, EDGE_KEYS, where)
        if not all(isinstance(x, str) for x in (eid, rng, src)):
            raise FileFormatError(f"{where}: id, range and source must be strings")
        if not _is_int(color) or not 1 <= color <= k:
            raise FileFormatError(f"{where} (edge {eid!r}): color {color!r} outside 1..{k}")
        if rng not in vset:
            raise FileFormatError(f"{where} (edge {eid!r}): unknown range vertex {rng!r}")
        if src not in vset:
            raise FileFormatError(f"{where} (edge {eid!r}): unknown source vertex {src!r}")
        edges.append(Edge(eid, color, rng, src))
    if vertices and k > len(edges):
        raise FileFormatError(f"graph.k: {k} exceeds the edge count {len(edges)}; every color needs an edge")
    eset = {e.id for e in edges}
    squares = []
    for idx, s in enumerate(_as_list(_need(obj, "squares", "graph"), "graph.squares")):
        where = f"graph.squares[{idx}]"
        if not isinstance(s, dict):
            raise FileFormatError(f"{where}: expected an object")
        ij = _need(s, "ij", where)
        frm = _need(s, "from", where)
        to = _need(s, "to", where)
        if len(s) != 3:
            _unknown_key(s, SQUARE_KEYS, where)
        if not (isinstance(ij, list) and len(ij) == 2 and all(_is_int(x) for x in ij)):
            raise FileFormatError(f"{where}.ij: expected two colors")
        if not (isinstance(frm, list) and len(frm) == 2 and isinstance(to, list) and len(to) == 2):
            raise FileFormatError(f"{where}: 'from' and 'to' must be edge pairs")
        for eid in frm + to:
            if not isinstance(eid, str) or eid not in eset:
                raise FileFormatError(f"{where}: unknown edge {eid!r}")
        squares.append(Square(ij[0], ij[1], frm[0], frm[1], to[0], to[1]))
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise FileFormatError("graph.name: expected a string")
    try:
        return KGraph(k, vertices, tuple(edges), tuple(squares), name)
    except ValueError as err:
        raise FileFormatError(f"graph: {err}") from err


def serialize_graph(g: KGraph) -> str:
    return canonical_json(graph_to_jsonable(g))


def loads_graph(text: str, validate: bool = True) -> KGraph:
    with _CollectorPaused():
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise FileFormatError(f"graph: invalid JSON ({err})") from err
        g = graph_from_jsonable(obj)
    if validate:
        report = validate_kgraph(g)
        if not report.ok:
            raise FileFormatError(
                "graph fails validation: " + "; ".join(report.problems[:5])
            )
    return g


def resolve_graph(ref: str, validate: bool = True) -> tuple[KGraph, str]:
    """A graph from "builtin:NAME" or a file path, plus its content digest."""
    if ref.startswith("builtin:"):
        g = builtin(ref.split(":", 1)[1])
        return g, digest_text(serialize_graph(g))
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise FileFormatError(f"cannot read graph file {ref!r}: {err}") from err
    return loads_graph(text, validate), digest_text(text)


# --- cocycles ---------------------------------------------------------------


def _collect_symbols(phases) -> list[str]:
    out = set()
    for p in phases:
        out.update(p.symbols())
    return sorted(out)


def cocycle_to_jsonable(c: CocycleSpec) -> dict:
    if isinstance(c, PullbackCocycle):
        flat = [x for row in c.theta for x in row]
        return {
            "variant": "pullback",
            "symbols": _collect_symbols(flat),
            "theta_matrix": format_phase_rows(c.theta),
        }
    if isinstance(c, PhiOmegaCocycle):
        flat = [x for row in c.omega.rows for x in row]
        for _, vec in c.phi.entries:
            flat.extend(vec)
        return {
            "variant": "phi_omega",
            "symbols": _collect_symbols(flat),
            "l": c.l,
            "phi": {eid: [format_phase(x) for x in vec] for eid, vec in c.phi.entries},
            "omega": format_phase_rows(c.omega.rows),
        }
    if isinstance(c, TableCocycle):
        flat = [val for _, _, val in c.entries]
        return {
            "variant": "table",
            "symbols": _collect_symbols(flat),
            "bound": list(c.bound),
            "entries": [
                {
                    "mu": {"range": mu[0], "word": list(mu[1])},
                    "nu": {"range": nu[0], "word": list(nu[1])},
                    "value": format_phase(val),
                }
                for mu, nu, val in c.entries
            ],
        }
    raise TypeError(f"unknown cocycle spec {type(c).__name__}")


def _parse_phase_checked(text, symbols, where: str) -> PhaseExponent:
    if not isinstance(text, str):
        raise FileFormatError(f"{where}: expected a phase literal string")
    try:
        return parse_phase(text, symbols)
    except PhaseSyntaxError as err:
        raise FileFormatError(f"{where}: {err}") from err


def _parse_phase_matrix(rows, n: int, m: int, symbols, where: str):
    if not isinstance(rows, list) or len(rows) != n:
        raise FileFormatError(f"{where}: expected {n} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != m:
            raise FileFormatError(f"{where}[{i}]: expected {m} entries")
        out.append(tuple(_parse_phase_checked(x, symbols, f"{where}[{i}][{j}]") for j, x in enumerate(row)))
    return tuple(out)


SIDE_KEYS = ("range", "word")
ENTRY_KEYS = ("mu", "nu", "value")
# the keys of each cocycle variant; `symbols` may be left out
COCYCLE_KEYS = {
    "pullback": ("variant", "symbols", "theta_matrix"),
    "phi_omega": ("variant", "symbols", "l", "phi", "omega"),
    "table": ("variant", "symbols", "bound", "entries"),
}


def _table_side(ent: dict, key: str, where: str, g: KGraph, sides: dict) -> tuple[str, tuple[str, ...]]:
    """The range and normal-form word of the side `key` of a table entry.

    A side already in `sides`, under its range and word as written, is
    returned from there: only an object with two keys and a list word is
    looked up, and a key is made only of strings, so a hit is a side that
    would pass every check.  Any other side is checked, and kept there if
    it passes.
    """
    side = _need(ent, key, where)
    try:
        word = side["word"]
        if type(word) is list and len(side) == 2:
            return sides[side["range"], tuple(word)]
    except (KeyError, TypeError):  # not a known side; the checks name any fault
        pass
    if not isinstance(side, dict):
        raise FileFormatError(f"{where}.{key}: expected an object")
    rng = _need(side, "range", f"{where}.{key}")
    if not isinstance(rng, str) or rng not in g.vertices:
        raise FileFormatError(f"{where}.{key}.range: expected a vertex of the graph")
    word = _need(side, "word", f"{where}.{key}")
    if len(side) != 2:
        _unknown_key(side, SIDE_KEYS, f"{where}.{key}")
    word = tuple(_as_str_list(word, f"{where}.{key}.word"))
    try:
        path = g.make_path(rng, word)
    except (KeyError, ValueError) as err:
        raise FileFormatError(f"{where}.{key}: not a path ({err})") from err
    # lookups key by normal form, whatever colour order the file used
    out = sides[rng, word] = (rng, path.word)
    return out


def cocycle_from_jsonable(obj, g: KGraph) -> CocycleSpec:
    if not isinstance(obj, dict):
        raise FileFormatError("cocycle: expected a JSON object")
    symbols = _symbol_list(obj.get("symbols", []), "cocycle.symbols")
    variant = _need(obj, "variant", "cocycle")
    if isinstance(variant, str) and variant in COCYCLE_KEYS:
        _unknown_key(obj, COCYCLE_KEYS[variant], "cocycle")
    if variant == "pullback":
        theta = _parse_phase_matrix(
            _need(obj, "theta_matrix", "cocycle"), g.k, g.k, symbols, "cocycle.theta_matrix"
        )
        return PullbackCocycle(theta)
    if variant == "phi_omega":
        l = _need(obj, "l", "cocycle")
        if not _is_int(l) or not 1 <= l <= g.k:
            raise FileFormatError(f"cocycle.l: expected an integer in 1..{g.k}")
        phi_obj = _need(obj, "phi", "cocycle")
        if not isinstance(phi_obj, dict):
            raise FileFormatError("cocycle.phi: expected an object")
        eids = {e.id for e in g.edges}
        entries = {}
        for eid in sorted(phi_obj):
            if eid not in eids:
                raise FileFormatError(f"cocycle.phi: unknown edge {eid!r}")
            vec = phi_obj[eid]
            if not isinstance(vec, list) or len(vec) != l:
                raise FileFormatError(f"cocycle.phi[{eid!r}]: expected {l} phase literals")
            entries[eid] = tuple(
                _parse_phase_checked(x, symbols, f"cocycle.phi[{eid!r}][{i}]")
                for i, x in enumerate(vec)
            )
        omega_rows = _parse_phase_matrix(
            _need(obj, "omega", "cocycle"), l, l, symbols, "cocycle.omega"
        )
        return PhiOmegaCocycle(l, OneCocyclePhi(l, entries), BicharacterTable(l, omega_rows))
    if variant == "table":
        bound = _need(obj, "bound", "cocycle")
        if not (isinstance(bound, list) and len(bound) == g.k and all(_is_int(x) for x in bound)):
            raise FileFormatError(f"cocycle.bound: expected {g.k} integers")
        for i, x in enumerate(bound):
            if x < 0:
                raise FileFormatError(f"cocycle.bound: entry {i} is {x}; a bound is a non-negative integer")
        rows = []
        # The normal form of each (range, word) side checked so far, and the
        # phase of each literal parsed so far, both for this file alone.
        # Only successes are kept, so an input that fails, fails at its own
        # entry.  When both sides of an entry are known, each costs one
        # lookup; an unknown side, or any fault on the way (a missing key,
        # a non-object, an unhashable value), sends both to `_table_side`,
        # whose checks name the first fault.  A known literal costs one
        # lookup too, and the declared symbols are a set built once.  The
        # field names of an error are built only when one is raised.
        sides: dict[tuple[str, tuple[str, ...]], tuple[str, tuple[str, ...]]] = {}
        literals: dict[str, PhaseExponent] = {}
        declared = frozenset(symbols)
        for idx, ent in enumerate(_as_list(_need(obj, "entries", "cocycle"), "cocycle.entries")):
            try:
                a, b = ent["mu"], ent["nu"]
                aw, bw = a["word"], b["word"]
                if type(aw) is list and type(bw) is list and len(a) == 2 and len(b) == 2:
                    mu, nu = sides[a["range"], tuple(aw)], sides[b["range"], tuple(bw)]
                else:
                    mu = None
            except (KeyError, TypeError):
                mu = None
            if mu is None:
                if not isinstance(ent, dict):
                    raise FileFormatError(f"cocycle.entries[{idx}]: expected an object")
                mu = _table_side(ent, "mu", f"cocycle.entries[{idx}]", g, sides)
                nu = _table_side(ent, "nu", f"cocycle.entries[{idx}]", g, sides)
            text = ent.get("value")
            value = literals.get(text) if type(text) is str else None
            if value is None:
                where = f"cocycle.entries[{idx}]"
                value = literals[text] = _parse_phase_checked(_need(ent, "value", where), declared, where + ".value")
            if len(ent) != 3:
                _unknown_key(ent, ENTRY_KEYS, f"cocycle.entries[{idx}]")
            rows.append((mu, nu, value))
        try:
            table = TableCocycle(tuple(bound), tuple(rows))
        except ValueError as err:
            raise FileFormatError(f"cocycle.{err}") from err
        if len(table._index) < len(rows):
            # the index keeps one value per pair, so some pair is listed
            # twice; the table would drop its later value unseen
            first = {}
            for idx, (mu, nu, _) in enumerate(rows):
                j = first.setdefault((mu, nu), idx)
                if j != idx:
                    raise FileFormatError(
                        f"cocycle.entries[{idx}]: lists the pair of cocycle.entries[{j}] again"
                    )
        return table
    raise FileFormatError(f"cocycle.variant: unknown variant {variant!r}")


def serialize_cocycle(c: CocycleSpec) -> str:
    return canonical_json(cocycle_to_jsonable(c))


def loads_cocycle(text: str, g: KGraph) -> CocycleSpec:
    with _CollectorPaused():
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise FileFormatError(f"cocycle: invalid JSON ({err})") from err
        return cocycle_from_jsonable(obj, g)


def load_cocycle(path: str, g: KGraph) -> tuple[CocycleSpec, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise FileFormatError(f"cannot read cocycle file {path!r}: {err}") from err
    return loads_cocycle(text, g), digest_text(text)


# --- reports ----------------------------------------------------------------


def report_document(command: str, inputs: dict[str, str], body: dict) -> dict:
    return {
        "tool": "ktwist",
        "version": __version__,
        "command": command,
        "inputs": dict(sorted(inputs.items())),
        **body,
    }


def serialize_report(doc: dict) -> str:
    return canonical_json(doc)
