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

An infinite path x is determined by its diagonal steps x(tD, (t+1)D),
D = (1, ..., 1), as the degrees tD are cofinal in N^k.  An eventually
periodic path is kept as its steps: s of them, then r that repeat forever,
both least, and the graph keeps one object per pair of step tuples, so
infinite paths (and the oracle's groupoid elements) are one object per
value, compared and hashed by identity.  Prepending and shifting are one
carry loop over the steps (`_carry` holds its proof), each carry step kept
on its carry path; each infinite path keeps its shifts, prepends and
diagonal segments x(0, tD).  The tables live as long as the graph.
"""

from __future__ import annotations

import itertools
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
    # for a table cocycle, the triples of non-vertex paths whose identity was tested
    triples: int | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


class ComposabilityError(ValueError):
    pass


@dataclass(eq=False)
class KGraph:
    """A k-colored graph with its square tables, compared by identity.

    Besides the indexes built from the edges and squares, a graph keeps
    tables that live as long as it does: its paths by range and degree,
    the same paths by source and degree, and `_interned`, the one object
    of each finite path, infinite path and groupoid element made on it,
    keyed by its normal-form fields.
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
    _into: dict = field(default_factory=dict, repr=False)
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

    def paths_into(self, v: str, n: Degree) -> list[Path]:
        """All paths with source v and degree n, by range vertex in sorted
        order, each range's in the order of `paths_from`; kept per degree,
        for every source at once.  Callers must not mutate the result."""
        by_source = self._into.get(n)
        if by_source is None:
            by_source = {u: [] for u in self.vertices}
            for w in sorted(self.vertices):
                for p in self.paths_from(w, n):
                    by_source[p.source].append(p)
            self._into[n] = by_source
        if v not in by_source:
            raise ValueError(f"unknown vertex {v!r}")
        return by_source[v]


# --- validation -------------------------------------------------------------


def validate_kgraph(g: KGraph) -> ValidationReport:
    """The structural problems of g: vertex names, sources, squares, table
    totality and bijectivity, and the hexagon.  A vertex that is the range
    of no edge of some colours is one problem, which names the least of
    them.  The names, references and colours of a graph file are checked
    where `io` reads it."""
    problems: list[str] = [] if g.vertices else ["graph has no vertices"]
    seen_v = set()
    for v in g.vertices:
        if not v:
            problems.append(f"bad vertex name {v!r}")
        if v in seen_v:
            problems.append(f"duplicate vertex {v!r}")
        seen_v.add(v)
    # the colours in 1..k of the edges into each vertex, read in one pass
    present: dict[str, set[int]] = {}
    for e in g.edges:
        if 1 <= e.color <= g.k:
            present.setdefault(e.range, set()).add(e.color)
    for v in g.vertices:
        have = present.get(v, ())
        if len(have) == g.k:
            continue
        least = next(c for c in range(1, g.k + 1) if c not in have)
        more = g.k - len(have) - 1
        if not more:
            problems.append(f"vertex {v!r} is not the range of any color-{least} edge (source)")
        else:
            problems.append(f"vertex {v!r} is not the range of any color-{least} edge, "
                            f"nor of any edge of {more} more color{'s' if more > 1 else ''} (source)")
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

    # the input pairs of the squares of each colour pair, in one pass
    keys_of: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for sq in g.squares:
        keys_of.setdefault((sq.i, sq.j), []).append((sq.f, sq.g))
    for i in range(1, g.k + 1):
        for j in range(i + 1, g.k + 1):
            sorted_pairs = [(f.id, h.id) for f in by_color[i] for h in by_color[j] if f.source == h.range]
            anti_pairs = {(h.id, f.id) for h in by_color[j] for f in by_color[i] if h.source == f.range}
            keys = keys_of.get((i, j), ())
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


def _carry(g: KGraph, p: Path, pre: tuple, cyc: tuple) -> tuple[list[Path], int]:
    """The diagonal steps of p.y and how many come before their cycle, where
    y has the least s = len(pre) and r = len(cyc): steps pre, then cyc repeated.

    With c_0 = p and Y_j the steps of y, split c_j.Y_j at degree D into
    (W_j, c_{j+1}).  Then W_j = (p.y)(jD, (j+1)D) and c_{j+1} = (p.y)((j+1)D,
    (j+1)D + d(p)), by induction: c_0 = p, and if c_j is as claimed, then
    c_j.Y_j = (p.y)(jD, (j+1)D + d(p)) as Y_j = (p.y)(jD + d(p), (j+1)D + d(p)).
    So T^(jD)(p.y) = c_j.T^(jD)y; as c.w = c'.w' with d(c) = d(c') means c = c'
    and w = w', for i < j T^(iD)(p.y) = T^(jD)(p.y) iff c_i = c_j and T^(iD)y =
    T^(jD)y, that is, i >= s and r divides j - i.  The state (c_j, j mod r)
    fixes the next one, so p.y turns periodic where the first state to repeat
    was first seen, with the steps since as its least cycle.  Each (carry,
    step) -> (window, next carry) is kept in the carry's `_splits`, where a
    path key never equals a degree key.
    """
    if not p.word:
        return [*pre, *cyc], len(pre)
    diag, s, r, out, seen = (1,) * g.k, len(pre), len(cyc), [], {}
    for j, y in enumerate(itertools.chain(pre, itertools.cycle(cyc))):
        if j >= s:
            first = seen.setdefault((p, (j - s) % r), j)
            if first != j:
                return out, first
        hit = p._splits.get(y)
        if hit is None:
            hit = p._splits[y] = g.factorize(g.compose(p, y), diag)
        w, p = hit
        out.append(w)


def _from_steps(g: KGraph, steps, s: int) -> "EventuallyPeriodicPath":
    """The graph's one path with the least diagonal steps `steps`, the last
    len(steps) - s of them repeated forever."""
    key = (tuple(steps[:s]), tuple(steps[s:]))
    self = g._interned.get(key)
    if self is None:
        self = g._interned[key] = object.__new__(EventuallyPeriodicPath)
        self.__dict__.update(graph=g, steps=key[0] + key[1], s=s, r=len(key[1]),
                             _prefixes=[g.vertex_path(steps[0].range)], _tails={})
    return self


@dataclass(frozen=True, init=False, eq=False)
class EventuallyPeriodicPath:
    """Infinite path x kept as its diagonal steps x(tD, (t+1)D), D = (1, ...,
    1): the least s of them, then the least r >= 1 repeated forever.  The
    graph keeps one object per pair of step tuples, so identity is equality
    and hash.  `prefix` = x(0, sD) and `cycle` = x(sD, (s+r)D) are derived.
    The constructor splits a loop `cycle` of degree rD at the source of
    `prefix` into r steps, keeps their least period and carries `prefix`
    over them (`_carry`); `prepend(p)` carries p over x's steps, and
    `shift(n)`, t = max(n), carries x(n, tD) over T^(tD) x, which is x less
    t steps and at its least (s, r).  A path keeps its shifts, prepends and
    segments x(0, tD), each new one a `compose` of the last with one step;
    x(m, n) is a split kept on x(0, max(n) D).
    """

    graph: KGraph
    steps: tuple[Path, ...]
    s: int
    r: int

    # Identity is equality; named in the class so the bench tracer finds `==` to wrap.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, graph: KGraph, prefix: Path, cycle: Path):
        g, r = graph, cycle.degree[0]
        if prefix.source != cycle.range or cycle.range != cycle.source:
            raise ValueError("cycle must be a loop at the prefix source")
        if r < 1 or any(x != r for x in cycle.degree):
            raise ValueError("cycle degree must be (r, ..., r) with r >= 1")
        cyc = []
        for _ in range(r):
            step, cycle = g.factorize(cycle, (1,) * g.k)
            cyc.append(step)
        r = next(d for d in range(1, r + 1) if r % d == 0 and cyc[d:] == cyc[:-d])
        return _from_steps(g, *_carry(g, prefix, (), tuple(cyc[:r])))

    @property
    def range(self) -> str:
        return self.steps[0].range

    @property
    def prefix(self) -> Path:
        return self._diagonal(self.s)

    @property
    def cycle(self) -> Path:
        return self.graph.factorize(self._diagonal(self.s + self.r), (self.s,) * self.graph.k)[1]

    def _diagonal(self, t: int) -> Path:
        """x(0, tD), kept."""
        kept, s = self._prefixes, self.s
        while len(kept) <= t:
            j = len(kept) - 1
            kept.append(self.graph.compose(kept[-1], self.steps[j if j < s else s + (j - s) % self.r]))
        return kept[t]

    def segment_to(self, n: Degree) -> Path:
        """x(0, n)."""
        return self.graph.factorize(self._diagonal(max(n)), n)[0]

    def at(self, m: Degree, n: Degree) -> Path:
        """x(m, n)."""
        return self.graph.factorize(self.segment_to(n), m)[1]

    def shift(self, n: Degree) -> "EventuallyPeriodicPath":
        """The path T^n x."""
        # a degree key never equals a path key, so shifts and prepends share the table
        hit = self._tails.get(n)
        if hit is None:
            g, t, steps, s = self.graph, max(n), self.steps, self.s
            u = s + max(t - s, 0) % self.r  # T^(tD) x starts at step min(t, s), then cycle step u
            carry = g.factorize(self._diagonal(t), n)[1]
            hit = self._tails[n] = _from_steps(g, *_carry(g, carry, steps[min(t, s):s], steps[u:] + steps[s:u]))
        return hit

    def prepend(self, p: Path) -> "EventuallyPeriodicPath":
        """The path p.x."""
        hit = self._tails.get(p)
        if hit is None:
            if p.source != self.range:
                raise ComposabilityError(f"cannot compose: source {p.source!r} != range {self.range!r}")
            hit = self._tails[p] = _from_steps(self.graph, *_carry(self.graph, p, self.steps[:self.s], self.steps[self.s:]))
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
    walk from v, then its closed word forever.

    The walk takes colours 1, ..., k in turn, so its block of edges tk to
    tk + k - 1 is a normal-form path of degree D = (1, ..., 1), and by
    unique factorisation block t is the step x(tD, (t+1)D).  The word turns
    periodic at the first state that repeats, not before (the states before
    it differ in vertex, so their edges differ), and no shorter closed word
    repeats (its length would be a multiple of k, so a state would repeat
    sooner); so its blocks turn periodic at block ceil(len(head) / k).
    """
    head, loop = rotation_walk(g, v)
    k, s, walk = g.k, -(-len(head) // g.k), head + loop + loop
    steps = [
        Path(g, g.edge(walk[i]).range, g.edge(walk[i + k - 1]).source, (1,) * k, tuple(walk[i:i + k]))
        for i in range(0, k * s + len(loop), k)
    ]
    return _from_steps(g, steps, s)


# --- builtins and products --------------------------------------------------

_LOOP_NAMES_TK = "abcdefgh"
_LOOP_NAMES_BN = "efghijklmnopqrstuvwxyz"
_MAX_CYCLE = 10_000  # a name of a few digits must not ask for an unbounded graph


def _count(digits: str, top: int) -> int:
    """The number a builtin name writes in `digits`, or top + 1 for any
    number past `top`, however many digits it has."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(top)) else top + 1


def builtin(name: str) -> KGraph:
    """Builtin fixtures: Tk, Bn, Cn, DISJOINT2, and their products with Tl,
    like B2xT1, for l up to 8."""
    m = re.match(r"^([A-Z0-9]+?)xT(\d+)$", name)
    if m:
        l = _count(m.group(2), len(_LOOP_NAMES_TK))
        if l > len(_LOOP_NAMES_TK):
            raise ValueError(f"unsupported rank in {name!r}")
        return product_with_Tl(builtin(m.group(1)), l)
    if name == "DISJOINT2":
        edges = (Edge("lu", 1, "u", "u"), Edge("lw", 1, "w", "w"))
        return KGraph(1, ("u", "w"), edges, (), name=name)
    m = re.match(r"^T(\d+)$", name)
    if m:
        k = _count(m.group(1), len(_LOOP_NAMES_TK))
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
        n = _count(m.group(1), len(_LOOP_NAMES_BN))
        if not 2 <= n <= len(_LOOP_NAMES_BN):
            raise ValueError(f"unsupported loop count in {name!r}")
        edges = tuple(Edge(_LOOP_NAMES_BN[i], 1, "v", "v") for i in range(n))
        return KGraph(1, ("v",), edges, (), name=name)
    m = re.match(r"^C(\d+)$", name)
    if m:
        n = _count(m.group(1), _MAX_CYCLE)
        if n < 1:
            raise ValueError(f"bad cycle length in {name!r}")
        if n > _MAX_CYCLE:
            raise ValueError(f"unsupported cycle length in {name!r}")
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

