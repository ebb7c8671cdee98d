"""Finite k-colored graphs with commuting squares, and their path algebra.

A graph here is the combinatorial presentation of a small category with a
degree map into N^k satisfying unique factorization: a colored multigraph
(edges have a range and a source vertex) plus, for every pair of colors
i < j, a bijection table of "squares" identifying each composable two-edge
word f.g (f of color i first) with its reversed-color rewrite g'.f'.  For
three or more colors the tables must satisfy an associativity (hexagon)
condition; `validate_kgraph` checks totality, bijectivity and the hexagon
exhaustively, which is what makes the path normal form below well defined.

Paths are words of edge ids, range end first, kept in normal form: colors
nondecreasing along the word.  Composition concatenates and re-sorts via
the square tables; factorization peels edges off the range end, one color
at a time.  Everything is exact and deterministic (edges are always
enumerated in id order).  Paths are immutable, so each graph memoizes
composition and factorization by their arguments, and equal eventually
periodic paths share one table of segments.

An eventually periodic path has many representations (a cycle may be
repeated, or partly folded into the prefix).  An infinite path is
determined by its segments of diagonal degree (t, ..., t), which are
cofinal in N^k, so the constructor keeps one representation: the shortest
diagonal cycle after the shortest diagonal prefix.  Equality and hashing
are then structural, and such paths work as dictionary keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from . import degrees as dg
from .degrees import Degree


@dataclass(frozen=True)
class Edge:
    id: str
    color: int
    range: str
    source: str


@dataclass(frozen=True)
class Square:
    """Identity f.g = gp.fp with color(f) = i < j = color(g)."""

    i: int
    j: int
    f: str
    g: str
    gp: str
    fp: str


@dataclass(frozen=True)
class Path:
    range: str
    source: str
    degree: Degree
    word: tuple[str, ...]

    def is_vertex(self) -> bool:
        return not self.word

    def __repr__(self):
        body = ".".join(self.word) if self.word else f"({self.range})"
        return f"Path[{body}]"


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


class ComposabilityError(ValueError):
    pass


@dataclass(eq=False)
class KGraph:
    k: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    squares: tuple[Square, ...]
    name: str = ""
    _by_id: dict = field(default_factory=dict, repr=False)
    _in: dict = field(default_factory=dict, repr=False)
    _fwd: dict = field(default_factory=dict, repr=False)
    _inv: dict = field(default_factory=dict, repr=False)
    _paths_cache: dict = field(default_factory=dict, repr=False)
    _compose_memo: dict = field(default_factory=dict, repr=False)
    _factorize_memo: dict = field(default_factory=dict, repr=False)
    _segment_memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.vertices = tuple(self.vertices)
        self.edges = tuple(self.edges)
        self.squares = tuple(self.squares)
        by_id = {}
        for e in self.edges:
            if e.id in by_id:
                raise ValueError(f"duplicate edge id {e.id!r}")
            by_id[e.id] = e
        inn: dict[tuple[str, int], list[Edge]] = {}
        for e in sorted(self.edges, key=lambda e: e.id):
            inn.setdefault((e.range, e.color), []).append(e)
        fwd = {}
        inv = {}
        for sq in self.squares:
            fwd[(sq.f, sq.g)] = (sq.gp, sq.fp)
            inv[(sq.gp, sq.fp)] = (sq.f, sq.g)
        self._by_id = by_id
        self._in = {k: tuple(v) for k, v in inn.items()}
        self._fwd = fwd
        self._inv = inv

    # --- basic access -------------------------------------------------------

    def edge(self, eid: str) -> Edge:
        return self._by_id[eid]

    def in_edges(self, v: str, color: int) -> tuple[Edge, ...]:
        """Edges with range v of the given color, in id order."""
        return self._in.get((v, color), ())

    def vertex_path(self, v: str) -> Path:
        if v not in self.vertices:
            raise ValueError(f"unknown vertex {v!r}")
        return Path(v, v, dg.zero(self.k), ())

    def edge_path(self, eid: str) -> Path:
        e = self.edge(eid)
        return Path(e.range, e.source, dg.unit(self.k, e.color), (eid,))

    def make_path(self, range_vertex: str, word: Iterable[str]) -> Path:
        """Build a path from a composable word, normalizing the color order."""
        word = tuple(word)
        cur = range_vertex
        deg = list(dg.zero(self.k))
        for eid in word:
            e = self.edge(eid)
            if e.range != cur:
                raise ComposabilityError(f"edge {eid!r} has range {e.range!r}, expected {cur!r}")
            deg[e.color - 1] += 1
            cur = e.source
        return Path(range_vertex, cur, tuple(deg), tuple(self._normalize(word)))

    # --- normal form --------------------------------------------------------

    def _normalize(self, word) -> list[str]:
        w = list(word)
        changed = True
        while changed:
            changed = False
            for t in range(len(w) - 1):
                a, b = self.edge(w[t]), self.edge(w[t + 1])
                if a.color > b.color:
                    try:
                        w[t], w[t + 1] = self._inv[(w[t], w[t + 1])]
                    except KeyError:
                        raise ComposabilityError(f"no square for pair ({w[t]!r}, {w[t + 1]!r})") from None
                    changed = True
        return w

    def compose(self, p: Path, q: Path) -> Path:
        """p.q in normal form.  Memoized per (p, q) once the vertex check passed."""
        if p.source != q.range:
            raise ComposabilityError(f"cannot compose: source {p.source!r} != range {q.range!r}")
        key = (p, q)
        hit = self._compose_memo.get(key)
        if hit is None:
            word = tuple(self._normalize(p.word + q.word))
            hit = self._compose_memo[key] = Path(p.range, q.source, dg.add(p.degree, q.degree), word)
        return hit

    def _pull_color_front(self, word: list[str], color: int) -> list[str]:
        t = next(i for i, eid in enumerate(word) if self.edge(eid).color == color)
        for j in range(t, 0, -1):
            # word[j-1].word[j] is color-sorted here; rewrite to put our edge first
            gp, fp = self._fwd[(word[j - 1], word[j])]
            word[j - 1], word[j] = gp, fp
        return word

    def factorize(self, p: Path, m: Degree) -> tuple[Path, Path]:
        """Unique head/tail split p = head.tail with degree(head) = m.

        Memoized per (p, m) once the degree check passed.
        """
        if not all(0 <= x <= y for x, y in zip(m, p.degree, strict=True)):
            raise ValueError(f"degree {m} not between 0 and {p.degree}")
        key = (p, m)
        hit = self._factorize_memo.get(key)
        if hit is None:
            hit = self._factorize_memo[key] = self._split(p, m)
        return hit

    def _split(self, p: Path, m: Degree) -> tuple[Path, Path]:
        word = list(p.word)
        head: list[str] = []
        for color in range(1, self.k + 1):
            for _ in range(m[color - 1]):
                word = self._pull_color_front(word, color)
                head.append(word.pop(0))
        head_src = self.edge(head[-1]).source if head else p.range
        hp = Path(p.range, head_src, m, tuple(head))
        tp = Path(head_src, p.source, dg.sub(p.degree, m), tuple(word))
        return hp, tp

    def segment(self, p: Path, m: Degree, n: Degree) -> Path:
        """The piece of p between degrees m <= n."""
        if not dg.leq(m, n):
            raise ValueError(f"need {m} <= {n}")
        _, rest = self.factorize(p, m)
        mid, _ = self.factorize(rest, dg.sub(n, m))
        return mid

    def paths_from(self, v: str, n: Degree) -> list[Path]:
        """All paths with range v and degree n, in deterministic order.

        Cached per (vertex, degree); callers must not mutate the result.
        """
        if len(n) != self.k or any(x < 0 for x in n):
            raise ValueError(f"bad degree {n}")
        key = (v, n)
        hit = self._paths_cache.get(key)
        if hit is not None:
            return hit
        if dg.is_zero(n):
            out = [self.vertex_path(v)]
        else:
            i = next(c for c in range(1, self.k + 1) if n[c - 1])
            rest = dg.sub(n, dg.unit(self.k, i))
            out = []
            for e in self.in_edges(v, i):
                for tail in self.paths_from(e.source, rest):
                    out.append(Path(v, tail.source, n, (e.id,) + tail.word))
        self._paths_cache[key] = out
        return out

    def count_paths(self, v: str, n: Degree) -> int:
        return len(self.paths_from(v, n))


# --- validation -------------------------------------------------------------


def validate_kgraph(g: KGraph) -> ValidationReport:
    problems: list[str] = []
    seen_v = set()
    for v in g.vertices:
        if not v or not isinstance(v, str):
            problems.append(f"bad vertex name {v!r}")
        if v in seen_v:
            problems.append(f"duplicate vertex {v!r}")
        seen_v.add(v)
    for e in g.edges:
        if not 1 <= e.color <= g.k:
            problems.append(f"edge {e.id!r}: color {e.color} outside 1..{g.k}")
        if e.range not in seen_v:
            problems.append(f"edge {e.id!r}: unknown range vertex {e.range!r}")
        if e.source not in seen_v:
            problems.append(f"edge {e.id!r}: unknown source vertex {e.source!r}")
    for v in g.vertices:
        for c in range(1, g.k + 1):
            if not g.in_edges(v, c):
                problems.append(f"vertex {v!r} is not the range of any color-{c} edge (source)")
    if problems:
        return ValidationReport(tuple(problems))

    by_color: dict[int, list[Edge]] = {c: [] for c in range(1, g.k + 1)}
    for e in g.edges:
        by_color[e.color].append(e)

    ok_tables = True
    for sq in g.squares:
        if not (1 <= sq.i < sq.j <= g.k):
            problems.append(f"square {sq}: colors must satisfy 1 <= i < j <= k")
            ok_tables = False
            continue
        for eid, want_color in ((sq.f, sq.i), (sq.g, sq.j), (sq.gp, sq.j), (sq.fp, sq.i)):
            if eid not in g._by_id:
                problems.append(f"square {sq}: unknown edge {eid!r}")
                ok_tables = False
            elif g.edge(eid).color != want_color:
                problems.append(f"square {sq}: edge {eid!r} has color {g.edge(eid).color}, expected {want_color}")
                ok_tables = False
    if not ok_tables:
        return ValidationReport(tuple(problems))

    for sq in g.squares:
        f, gg, gp, fp = g.edge(sq.f), g.edge(sq.g), g.edge(sq.gp), g.edge(sq.fp)
        if f.source != gg.range:
            problems.append(f"square {sq}: input pair not composable")
        if gp.source != fp.range:
            problems.append(f"square {sq}: output pair not composable")
        if gp.range != f.range or fp.source != gg.source:
            problems.append(f"square {sq}: output endpoints do not match input")

    for i in range(1, g.k + 1):
        for j in range(i + 1, g.k + 1):
            sorted_pairs = [(f.id, h.id) for f in by_color[i] for h in by_color[j] if f.source == h.range]
            anti_pairs = {(h.id, f.id) for h in by_color[j] for f in by_color[i] if h.source == f.range}
            keys = [(sq.f, sq.g) for sq in g.squares if (sq.i, sq.j) == (i, j)]
            if len(keys) != len(set(keys)):
                problems.append(f"colors ({i},{j}): duplicate square entries")
            missing = [p for p in sorted_pairs if p not in g._fwd]
            for p in missing:
                problems.append(f"colors ({i},{j}): square table not total, missing pair {p}")
            outputs = [g._fwd[p] for p in sorted_pairs if p in g._fwd]
            if len(outputs) != len(set(outputs)):
                problems.append(f"colors ({i},{j}): square table not injective")
            extra = set(outputs) - anti_pairs
            for p in extra:
                problems.append(f"colors ({i},{j}): square output {p} is not a composable reversed pair")
            if not missing and len(set(outputs)) == len(sorted_pairs) and len(sorted_pairs) != len(anti_pairs):
                problems.append(f"colors ({i},{j}): square table cannot be bijective ({len(sorted_pairs)} vs {len(anti_pairs)} pairs)")

    if problems:
        return ValidationReport(tuple(problems))

    # associativity: both rewrite routes from f.g.h to reversed color order agree
    for i in range(1, g.k + 1):
        for j in range(i + 1, g.k + 1):
            for m in range(j + 1, g.k + 1):
                for f in by_color[i]:
                    for h2 in by_color[j]:
                        if f.source != h2.range:
                            continue
                        for h3 in by_color[m]:
                            if h2.source != h3.range:
                                continue
                            if not _hexagon_ok(g, f.id, h2.id, h3.id):
                                problems.append(
                                    f"associativity violation on triple ({f.id!r}, {h2.id!r}, {h3.id!r})"
                                )
    return ValidationReport(tuple(problems))


def _hexagon_ok(g: KGraph, f: str, gg: str, h: str) -> bool:
    fwd = g._fwd
    hp, gp = fwd[(gg, h)]
    hpp, fp = fwd[(f, hp)]
    gpp, fpp = fwd[(fp, gp)]
    g1, f1 = fwd[(f, gg)]
    h1, f2 = fwd[(f1, h)]
    h2, g2 = fwd[(g1, h1)]
    return (hpp, gpp, fpp) == (h2, g2, f2)


# --- eventually periodic infinite paths -------------------------------------


@dataclass(frozen=True)
class EventuallyPeriodicPath:
    """Infinite path prefix.cycle.cycle... in diagonal normal form.

    Write D = (1, ..., 1).  The cycle must be a loop at the prefix source of
    degree rD with r >= 1.  The constructor rewrites (prefix, cycle) to the
    least r, then the least s, with x = x(0, sD).x(sD, (s+r)D)^oo.
    """

    # Compared by identity but left out of the hash, which the graph's id
    # would change from run to run.
    graph: KGraph = field(hash=False)
    prefix: Path
    cycle: Path

    def __post_init__(self):
        g, r = self.graph, self.cycle.degree[0]
        if self.prefix.source != self.cycle.range or self.cycle.range != self.cycle.source:
            raise ValueError("cycle must be a loop at the prefix source")
        if r < 1 or any(x != r for x in self.cycle.degree):
            raise ValueError("cycle degree must be (r, ..., r) with r >= 1")
        # x is determined by its diagonal steps x(tD, (t+1)D), which repeat
        # with period r from s = max(prefix degree) on.
        diag = (1,) * g.k
        s = max(self.prefix.degree)
        mat = self._materialize(dg.scale(s + r, diag))
        steps, rest = [], mat
        for _ in range(s + r):
            step, rest = g.factorize(rest, diag)
            steps.append(step)
        cyc = steps[s:]
        r = next(d for d in range(1, r + 1) if r % d == 0 and cyc[d:] == cyc[:-d])
        while s and steps[s - 1] == steps[s - 1 + r]:
            s -= 1
        head, rest = g.factorize(mat, dg.scale(s, diag))
        object.__setattr__(self, "prefix", head)
        object.__setattr__(self, "cycle", g.factorize(rest, dg.scale(r, diag))[0])

    @property
    def range(self) -> str:
        return self.prefix.range

    def _materialize(self, n: Degree) -> Path:
        g = self.graph
        need = dg.sub(n, self.prefix.degree)
        reps = max((x + c - 1) // c if x > 0 else 0 for x, c in zip(need, self.cycle.degree))
        out = self.prefix
        for _ in range(reps):
            out = g.compose(out, self.cycle)
        return out

    def segment_to(self, n: Degree) -> Path:
        """x(0, n)."""
        memo, key = self.graph._segment_memo, (self.prefix, self.cycle, n)
        if key not in memo:
            memo[key] = self.graph.factorize(self._materialize(n), n)[0]
        return memo[key]

    def at(self, m: Degree, n: Degree) -> Path:
        """x(m, n)."""
        seg = self.segment_to(n)
        return self.graph.factorize(seg, m)[1]

    def shift(self, n: Degree) -> "EventuallyPeriodicPath":
        """The path T^n x."""
        mat = self._materialize(n)
        _, rest = self.graph.factorize(mat, n)
        return EventuallyPeriodicPath(self.graph, rest, self.cycle)

    def prepend(self, p: Path) -> "EventuallyPeriodicPath":
        return EventuallyPeriodicPath(self.graph, self.graph.compose(p, self.prefix), self.cycle)

    def __repr__(self):
        return f"EPPath[{self.prefix!r};{self.cycle!r}^oo]"


def canonical_tail(g: KGraph, v: str) -> EventuallyPeriodicPath:
    """A deterministic eventually periodic path with range v.

    Follows the least edge of each color in rotation until a state repeats;
    the repeat closes a cycle containing every color equally often.
    """
    word: list[str] = []
    cur = v
    seen: dict[tuple[str, int], int] = {}
    t = 0
    while True:
        key = (cur, t % g.k)
        if key in seen:
            t0 = seen[key]
            prefix = g.make_path(v, word[:t0])
            cycle = g.make_path(cur, word[t0:])
            return EventuallyPeriodicPath(g, prefix, cycle)
        seen[key] = t
        color = (t % g.k) + 1
        opts = g.in_edges(cur, color)
        if not opts:
            raise ValueError(f"vertex {cur!r} has no color-{color} edge; graph has sources")
        e = opts[0]
        word.append(e.id)
        cur = e.source
        t += 1


# --- builtins and products --------------------------------------------------

_LOOP_NAMES_TK = "abcdefgh"
_LOOP_NAMES_BN = "efghijklmnopqrstuvwxyz"


def builtin(name: str) -> KGraph:
    """Builtin fixtures: Tk, Bn, Cn, DISJOINT2, and products like B2xT1."""
    m = re.match(r"^([A-Z0-9]+?)xT(\d+)$", name)
    if m:
        return product_with_Tl(builtin(m.group(1)), int(m.group(2)))
    if name == "DISJOINT2":
        edges = (Edge("lu", 1, "u", "u"), Edge("lw", 1, "w", "w"))
        return KGraph(1, ("u", "w"), edges, (), name=name)
    m = re.match(r"^T(\d+)$", name)
    if m:
        k = int(m.group(1))
        if not 1 <= k <= len(_LOOP_NAMES_TK):
            raise ValueError(f"unsupported rank in {name!r}")
        edges = tuple(Edge(_LOOP_NAMES_TK[i], i + 1, "v", "v") for i in range(k))
        squares = tuple(
            Square(i + 1, j + 1, edges[i].id, edges[j].id, edges[j].id, edges[i].id)
            for i in range(k)
            for j in range(i + 1, k)
        )
        return KGraph(k, ("v",), edges, squares, name=name)
    m = re.match(r"^B(\d+)$", name)
    if m:
        n = int(m.group(1))
        if not 2 <= n <= len(_LOOP_NAMES_BN):
            raise ValueError(f"unsupported loop count in {name!r}")
        edges = tuple(Edge(_LOOP_NAMES_BN[i], 1, "v", "v") for i in range(n))
        return KGraph(1, ("v",), edges, (), name=name)
    m = re.match(r"^C(\d+)$", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ValueError(f"bad cycle length in {name!r}")
        vertices = tuple(f"v{t}" for t in range(n))
        edges = tuple(Edge(f"c{t}", 1, f"v{t}", f"v{(t + 1) % n}") for t in range(n))
        return KGraph(1, vertices, edges, (), name=name)
    raise ValueError(f"unknown builtin graph {name!r}")


def tl_loop_id(j: int, v: str) -> str:
    return f"t{j}_{v}"


def product_with_Tl(g: KGraph, l: int) -> KGraph:
    """The product of g with the l-torus graph: l new colors, one loop per vertex."""
    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return g
    k2 = g.k + l
    loops = {(j, v): Edge(tl_loop_id(j, v), g.k + j, v, v) for j in range(1, l + 1) for v in g.vertices}
    edges = g.edges + tuple(loops[(j, v)] for j in range(1, l + 1) for v in g.vertices)
    squares = list(g.squares)
    for e in g.edges:
        for j in range(1, l + 1):
            squares.append(
                Square(e.color, g.k + j, e.id, tl_loop_id(j, e.source), tl_loop_id(j, e.range), e.id)
            )
    for j1 in range(1, l + 1):
        for j2 in range(j1 + 1, l + 1):
            for v in g.vertices:
                squares.append(
                    Square(g.k + j1, g.k + j2, tl_loop_id(j1, v), tl_loop_id(j2, v), tl_loop_id(j2, v), tl_loop_id(j1, v))
                )
    name = f"{g.name}xT{l}" if g.name else ""
    return KGraph(k2, g.vertices, edges, tuple(squares), name=name)


def product_base(g: KGraph, l: int) -> KGraph:
    """The bottom k-l colors of a product graph, as a graph of their own."""
    if not 0 < l < g.k:
        raise ValueError(f"cannot split {l} torus colors off a {g.k}-color graph")
    base_k = g.k - l
    edges = tuple(e for e in g.edges if e.color <= base_k)
    squares = tuple(sq for sq in g.squares if sq.j <= base_k)
    name = g.name.split("xT")[0] if "xT" in g.name else ""
    return KGraph(base_k, g.vertices, edges, squares, name=name)

