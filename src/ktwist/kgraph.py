"""Finite k-colored graphs with commuting squares, and their path algebra.

A graph here is the combinatorial presentation of a small category with a
degree map into N^k satisfying unique factorization: a colored multigraph
(edges have a range and a source vertex) plus, for every pair of colors
i < j, a bijection table of "squares" identifying each composable two-edge
word f.g (f of color i first) with its reversed-color rewrite g'.f'.  For
three or more colors the tables must satisfy an associativity (hexagon)
condition.  `validate_kgraph` checks this structure (`io` checks names
and references) exhaustively, which is what makes the path normal form
below well defined.

Paths are words of edge ids, range end first, kept in normal form: colors
nondecreasing along the word.  Composition concatenates and moves each
edge of the second factor left past higher-color edges via the square
tables; by unique factorization the result does not depend on the order
of the rewrites.  Factorization at degree m pulls edges to the range end
one color c at a time without scanning the word: the first color-c edge
left always sits at index sum over i < c of (d_i - m_i), d the path's
degree (see `KGraph.split_word`, which works on bare words).  Everything
is exact and deterministic (edges are always enumerated in id order).  A finite path is the graph's
one object for its (range, source, degree, word), so paths are compared
and hashed by identity, and each path keeps its own splits.

An eventually periodic path has many representations (a cycle may be
repeated, or partly folded into the prefix).  An infinite path is
determined by its segments of diagonal degree (t, ..., t), which are
cofinal in N^k, so the constructor keeps one representation: the shortest
diagonal cycle after the shortest diagonal prefix, and returns the graph's
one object for it.  Infinite paths (and the oracle's groupoid elements)
are therefore one object per value, compared and hashed by identity.
Each infinite path keeps its own shifts and segments.  The tables live as
long as the graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

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

    def __str__(self):
        return f"({self.f},{self.g})->({self.gp},{self.fp})"


@dataclass(frozen=True, init=False, eq=False)
class Path:
    """A finite path in normal form: the graph's one object for its four
    fields, so its identity is its equality and hash.  It does not hold its
    graph, and keeps its own splits by head degree for `KGraph.factorize`."""

    range: str
    source: str
    degree: Degree
    word: tuple[str, ...]

    def __new__(cls, graph: "KGraph", range: str, source: str, degree: Degree, word: tuple[str, ...]):
        key = (range, source, degree, word)
        self = graph._interned.get(key)
        if self is None:
            self = graph._interned[key] = object.__new__(cls)
            self.__dict__.update(range=range, source=source, degree=degree, word=word, _splits={})
        return self

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
    """A k-colored graph with its square tables, compared by identity.

    Besides the indexes built from the edges and squares, a graph keeps
    two tables that live as long as it does: its paths by range and
    degree, and `_interned`, the one object of each finite path, infinite
    path and groupoid element made on it, keyed by its normal-form fields.
    Two graphs share no table and no object, even when they are equal as
    data.
    """

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
    _interned: dict = field(default_factory=dict, repr=False)

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
        return Path(self, v, v, dg.zero(self.k), ())

    def edge_path(self, eid: str) -> Path:
        e = self.edge(eid)
        return Path(self, e.range, e.source, dg.unit(self.k, e.color), (eid,))

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
        return Path(self, range_vertex, cur, tuple(deg), tuple(self._normalize(word)))

    # --- normal form --------------------------------------------------------

    def _normalize(self, word) -> list[str]:
        """Color-sort a composable word in one insertion pass: each edge
        moves left past higher-color edges through the square tables."""
        w = list(word)
        by_id, inv = self._by_id, self._inv
        for t in range(1, len(w)):
            j = t
            while j and by_id[w[j - 1]].color > by_id[w[j]].color:
                try:
                    w[j - 1], w[j] = inv[w[j - 1], w[j]]
                except KeyError:
                    raise ComposabilityError(f"no square for pair ({w[j - 1]!r}, {w[j]!r})") from None
                j -= 1
        return w

    def compose(self, p: Path, q: Path) -> Path:
        """p.q in normal form; a vertex path factor gives back the other one."""
        if p.source != q.range:
            raise ComposabilityError(f"cannot compose: source {p.source!r} != range {q.range!r}")
        if not q.word:
            return p
        if not p.word:
            return q
        return Path(self, p.range, q.source, dg.add(p.degree, q.degree), tuple(self._normalize(p.word + q.word)))

    def factorize(self, p: Path, m: Degree) -> tuple[Path, Path]:
        """Unique head/tail split p = head.tail with degree(head) = m.

        Kept on p under m; the degree check runs on a miss, before the
        split is kept, so a kept split has passed it.
        """
        hit = p._splits.get(m)
        if hit is None:
            if not all(0 <= x <= y for x, y in zip(m, p.degree, strict=True)):
                raise ValueError(f"degree {m} not between 0 and {p.degree}")
            hit = p._splits[m] = self._split(p, m)
        return hit

    def split_word(self, word, degree: Degree, m: Degree) -> tuple[list[str], list[str]]:
        """The words of the head of degree m and the tail of a normal-form
        word of the given degree, one color c at a time.

        Before the color-c edges are pulled, the rest of the word is
        color-sorted with d_i - m_i edges of each color i < c (d = degree),
        so its first color-c edge is at t = sum over i < c of (d_i - m_i).
        A square rewrite of a lower-color edge and a color-c edge swaps the
        order of their colors, so t rewrites bring it to the front and keep
        the rest sorted.  Popping it leaves t as it was, and the d_c - m_c
        color-c edges left after m_c pulls move t on for c + 1.
        """
        word = list(word)
        head: list[str] = []
        fwd, t = self._fwd, 0
        for d_c, m_c in zip(degree, m):
            for _ in range(m_c):
                for j in range(t, 0, -1):
                    word[j - 1], word[j] = fwd[word[j - 1], word[j]]
                head.append(word.pop(0))
            t += d_c - m_c
        return head, word

    def _split(self, p: Path, m: Degree) -> tuple[Path, Path]:
        """The head of degree m and the tail of p: `split_word` on its word,
        with both pieces interned."""
        head, word = self.split_word(p.word, p.degree, m)
        head_src = self.edge(head[-1]).source if head else p.range
        hp = Path(self, p.range, head_src, m, tuple(head))
        tp = Path(self, head_src, p.source, dg.sub(p.degree, m), tuple(word))
        return hp, tp

    def segment(self, p: Path, m: Degree, n: Degree) -> Path:
        """The piece of p between degrees m <= n."""
        if not dg.leq(m, n):
            raise ValueError(f"need {m} <= {n}")
        _, rest = self.factorize(p, m)
        mid, _ = self.factorize(rest, dg.sub(n, m))
        return mid

    def words_from(self, v: str, n: Degree) -> Iterator[tuple[str, ...]]:
        """The normal-form words of degree n with range v, lazily: one
        colour block after another from v, depth first, each edge in id
        order; n = 0 gives the empty word.  Nothing is interned or kept."""
        colours = [i for i, x in enumerate(n, 1) for _ in range(x)]
        stack = [((), v)]
        while stack:
            word, u = stack.pop()
            if len(word) == len(colours):
                yield word
            else:
                stack.extend((word + (e.id,), e.source) for e in reversed(self.in_edges(u, colours[len(word)])))

    def paths_from(self, v: str, n: Degree) -> list[Path]:
        """All paths with range v and degree n, in the order of
        `words_from`; cached per (vertex, degree), for the degree asked for
        only.  Callers must not mutate the result."""
        if len(n) != self.k or any(x < 0 for x in n):
            raise ValueError(f"bad degree {n}")
        if v not in self.vertices:
            raise ValueError(f"unknown vertex {v!r}")
        if (v, n) not in self._paths_cache:
            self._paths_cache[v, n] = [
                Path(self, v, self.edge(w[-1]).source if w else v, n, w) for w in self.words_from(v, n)
            ]
        return self._paths_cache[v, n]


# --- validation -------------------------------------------------------------


def validate_kgraph(g: KGraph) -> ValidationReport:
    """The structural problems of g: vertex names, sources, squares, table
    totality and bijectivity, and the hexagon.  The names, references and
    colours of a graph file are checked where `io` reads it."""
    problems: list[str] = [] if g.vertices else ["graph has no vertices"]
    seen_v = set()
    for v in g.vertices:
        if not v:
            problems.append(f"bad vertex name {v!r}")
        if v in seen_v:
            problems.append(f"duplicate vertex {v!r}")
        seen_v.add(v)
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
            if g.edge(eid).color != want_color:
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
                problems.append(f"colors ({i},{j}): square table not total, missing pair ({p[0]},{p[1]})")
            outputs = [g._fwd[p] for p in sorted_pairs if p in g._fwd]
            if len(outputs) != len(set(outputs)):
                problems.append(f"colors ({i},{j}): square table not injective")
            for gp, fp in sorted(set(outputs) - anti_pairs):
                problems.append(f"colors ({i},{j}): square output ({gp},{fp}) is not a composable reversed pair")
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


def _materialize(g: KGraph, prefix: Path, cycle: Path, n: Degree) -> Path:
    """prefix.cycle...cycle with the fewest cycles that reach degree n."""
    need = dg.sub(n, prefix.degree)
    reps = max((x + c - 1) // c if x > 0 else 0 for x, c in zip(need, cycle.degree))
    out = prefix
    for _ in range(reps):
        out = g.compose(out, cycle)
    return out


@dataclass(frozen=True, init=False, eq=False)
class EventuallyPeriodicPath:
    """Infinite path prefix.cycle.cycle... in diagonal normal form.

    Write D = (1, ..., 1).  The cycle must be a loop at the prefix source of
    degree rD with r >= 1.  The constructor rewrites (prefix, cycle) to the
    least r, then the least s, with x = x(0, sD).x(sD, (s+r)D)^oo, and
    returns the graph's one object for that pair, so equal paths are
    identical and the object's identity is its equality and hash.  Each
    path keeps its own shifts, prepends and segments x(0, n), so each is
    worked out once; x(m, n) is a split that x(0, n) keeps.
    """

    graph: KGraph
    prefix: Path
    cycle: Path

    # Identity is equality; named in the class so the bench tracer finds `==` to wrap.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, graph: KGraph, prefix: Path, cycle: Path):
        g, r = graph, cycle.degree[0]
        if prefix.source != cycle.range or cycle.range != cycle.source:
            raise ValueError("cycle must be a loop at the prefix source")
        if r < 1 or any(x != r for x in cycle.degree):
            raise ValueError("cycle degree must be (r, ..., r) with r >= 1")
        # x is determined by its diagonal steps x(tD, (t+1)D), which repeat
        # with period r from s = max(prefix degree) on.
        diag = (1,) * g.k
        s = max(prefix.degree)
        mat = _materialize(g, prefix, cycle, dg.scale(s + r, diag))
        steps, rest = [], mat
        for _ in range(s + r):
            step, rest = g.factorize(rest, diag)
            steps.append(step)
        cyc = steps[s:]
        r = next(d for d in range(1, r + 1) if r % d == 0 and cyc[d:] == cyc[:-d])
        while s and steps[s - 1] == steps[s - 1 + r]:
            s -= 1
        head, rest = g.factorize(mat, dg.scale(s, diag))
        key = (head, g.factorize(rest, dg.scale(r, diag))[0])
        self = g._interned.get(key)
        if self is None:
            self = g._interned[key] = object.__new__(cls)
            self.__dict__.update(graph=g, prefix=key[0], cycle=key[1], _tails={}, _segments={})
        return self

    @property
    def range(self) -> str:
        return self.prefix.range

    def segment_to(self, n: Degree) -> Path:
        """x(0, n)."""
        seg = self._segments.get(n)
        if seg is None:
            g = self.graph
            seg = self._segments[n] = g.factorize(_materialize(g, self.prefix, self.cycle, n), n)[0]
        return seg

    def at(self, m: Degree, n: Degree) -> Path:
        """x(m, n)."""
        return self.graph.factorize(self.segment_to(n), m)[1]

    def shift(self, n: Degree) -> "EventuallyPeriodicPath":
        """The path T^n x."""
        # a degree key never equals a path key, so shifts and prepends share the table
        hit = self._tails.get(n)
        if hit is None:
            g = self.graph
            _, rest = g.factorize(_materialize(g, self.prefix, self.cycle, n), n)
            hit = self._tails[n] = EventuallyPeriodicPath(g, rest, self.cycle)
        return hit

    def prepend(self, p: Path) -> "EventuallyPeriodicPath":
        """The path p.x."""
        hit = self._tails.get(p)
        if hit is None:
            g = self.graph
            hit = self._tails[p] = EventuallyPeriodicPath(g, g.compose(p, self.prefix), self.cycle)
        return hit

    def __repr__(self):
        return f"EPPath[{self.prefix!r};{self.cycle!r}^oo]"


def rotation_walk(g: KGraph, v: str, within: set[str] | None = None) -> tuple[list[str], list[str]]:
    """The walk from v that takes the least edge of each color in rotation.

    Step t takes the least edge of color t mod k + 1 with range the current
    vertex, among those whose source lies in `within` (any source when it
    is None), until a (vertex, t mod k) state repeats.  Returns the edge
    ids before the repeated state and the closed word from it, which holds
    every color equally often.
    """
    word: list[str] = []
    cur = v
    seen: dict[tuple[str, int], int] = {}
    while (cur, len(word) % g.k) not in seen:
        seen[cur, len(word) % g.k] = len(word)
        color = len(word) % g.k + 1
        e = next((e for e in g.in_edges(cur, color) if within is None or e.source in within), None)
        if e is None:
            raise ValueError(f"vertex {cur!r} has no color-{color} edge; graph has sources")
        word.append(e.id)
        cur = e.source
    t0 = seen[cur, len(word) % g.k]
    return word[:t0], word[t0:]


def canonical_tail(g: KGraph, v: str) -> EventuallyPeriodicPath:
    """A deterministic eventually periodic path with range v: the rotation
    walk from v, then its closed word forever."""
    prefix, cycle = rotation_walk(g, v)
    return EventuallyPeriodicPath(g, g.make_path(v, prefix), g.make_path(g.edge(cycle[0]).range, cycle))


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

