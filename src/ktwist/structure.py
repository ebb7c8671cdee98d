"""Structural tests on k-colored graphs: cofinality and shift periodicity.

Cofinality asks whether every infinite path eventually meets the forward
reach of every vertex.  Strong connectivity settles it immediately; for
one-color graphs the general case reduces to finding a cycle avoiding the
reach of some vertex, which gives a checkable NO certificate.  With two or
more colors and a disconnected reach relation we return UNKNOWN rather
than guess.

Periodicity of the shift action is decided exactly per vertex by a finite
automaton on sliding windows: a window of degree join(a, b) determines
both compared slices of every one-step extension, so a BFS over reachable
windows either proves T^a x = T^b x for all x from the vertex or reaches
a window where the slices differ.  The group of periods is the
lattice of integer vectors accepted at every vertex, computed over a box
of candidates and canonicalized.

Two exact skips spare most automaton calls without changing the box, the
candidate count or any answer: p cannot be a period at v when row v of
the path-count matrix M(p+) differs from row v of M(p-), and on a
cofinal graph a candidate in the span of the periods already found is a
period everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import degrees as dg
from .degrees import Degree
from .kgraph import KGraph
from .lattices import LatticeBasis

YES = "YES_CERTIFIED"
NO = "NO_CERTIFIED"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Verdict:
    status: str  # YES_CERTIFIED | NO_CERTIFIED | UNKNOWN
    certificate: dict | None = None
    bound: Degree | None = None
    reason: str = ""

    def to_jsonable(self) -> dict:
        out: dict = {"status": self.status}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.bound is not None:
            out["bound"] = list(self.bound)
        if self.reason:
            out["reason"] = self.reason
        return out


# --- reachability -----------------------------------------------------------


def reach_set(g: KGraph, v: str) -> frozenset[str]:
    """Vertices u such that some path has range v and source u."""
    seen = {v}
    frontier = [v]
    while frontier:
        cur = frontier.pop()
        for c in range(1, g.k + 1):
            for e in g.in_edges(cur, c):
                if e.source not in seen:
                    seen.add(e.source)
                    frontier.append(e.source)
    return frozenset(seen)


def is_strongly_connected(g: KGraph) -> bool:
    return all(reach_set(g, v) == frozenset(g.vertices) for v in g.vertices)


# --- cofinality -------------------------------------------------------------


def _find_cycle(vertices: frozenset[str], arcs: dict[str, list[tuple[str, str]]]) -> list[str] | None:
    """A cycle (as an edge id list) in the sub-digraph on the given vertices."""
    color = {v: 0 for v in vertices}
    stack_edges: list[str] = []
    stack_vs: list[str] = []

    def visit(v: str) -> list[str] | None:
        color[v] = 1
        stack_vs.append(v)
        for (u, eid) in arcs.get(v, ()):
            if u not in vertices:
                continue
            if color[u] == 1:
                t = stack_vs.index(u)
                return stack_edges[t:] + [eid]
            if color[u] == 0:
                stack_edges.append(eid)
                got = visit(u)
                if got is not None:
                    return got
                stack_edges.pop()
        stack_vs.pop()
        color[v] = 2
        return None

    for v in sorted(vertices):
        if color[v] == 0:
            got = visit(v)
            if got is not None:
                return got
    return None


def is_cofinal(g: KGraph) -> Verdict:
    if is_strongly_connected(g):
        return Verdict(YES, {"kind": "strongly_connected"})
    if g.k == 1:
        arcs: dict[str, list[tuple[str, str]]] = {}
        for e in g.edges:
            arcs.setdefault(e.range, []).append((e.source, e.id))
        for v in sorted(g.vertices):
            outside = frozenset(g.vertices) - reach_set(g, v)
            if not outside:
                continue
            cyc = _find_cycle(outside, arcs)
            if cyc is not None:
                return Verdict(
                    NO,
                    {"kind": "unreachable_cycle", "vertex": v, "cycle": cyc},
                    reason=f"a cycle avoids the forward reach of {v!r}",
                )
        return Verdict(YES, {"kind": "k1_tail_check"})
    return Verdict(
        UNKNOWN,
        reason="not strongly connected and more than one color; no decision procedure",
    )


def verify_cofinality(g: KGraph, res: Verdict) -> bool:
    """Independent recheck of a cofinality certificate."""
    cert = res.certificate
    if res.status == YES and cert is not None and cert.get("kind") == "strongly_connected":
        return is_strongly_connected(g)
    if res.status == YES and cert is not None and cert.get("kind") == "k1_tail_check":
        return g.k == 1 and is_cofinal(g).status == YES
    if res.status == NO and cert is not None and cert.get("kind") == "unreachable_cycle":
        v = cert["vertex"]
        cyc = list(cert["cycle"])
        if v not in g.vertices or not cyc:
            return False
        reach = reach_set(g, v)
        cur = g.edge(cyc[0]).range
        if cur in reach:
            return False
        for eid in cyc:
            e = g.edge(eid)
            if e.range != cur or e.source in reach:
                return False
            cur = e.source
        return cur == g.edge(cyc[0]).range
    return False


# --- shift periodicity ------------------------------------------------------


def periodic_at_offsets(g: KGraph, v: str, a: Degree, b: Degree) -> bool:
    """Does every infinite path x from v satisfy T^a x = T^b x?

    Explores windows w = x(u, u+c) with c = join(a, b); on each one-step
    extension the two compared slices both sit inside the extended window,
    so a reachable mismatch is exactly a violation.
    """
    if a == b:
        return True
    c = dg.join(a, b)
    frontier = list(g.paths_from(v, c))
    seen = set(frontier)
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, g.k + 1):
                ei = dg.unit(g.k, i)
                for e in g.in_edges(w.source, i):
                    lam = g.compose(w, g.edge_path(e.id))
                    if g.segment(lam, a, dg.add(a, ei)) != g.segment(lam, b, dg.add(b, ei)):
                        return False
                    new = g.segment(lam, ei, dg.add(c, ei))
                    if new not in seen:
                        seen.add(new)
                        nxt.append(new)
        frontier = nxt
    return True


def periodic_at(g: KGraph, p: Degree, v: str) -> bool:
    """Is the integer vector p a shift period for every infinite path from v?"""
    return periodic_at_offsets(g, v, dg.pos_part(p), dg.neg_part(p))


@dataclass(frozen=True)
class PeriodicityResult:
    lattice: LatticeBasis
    exhaustive_up_to: Degree
    per_vertex_agreement: bool
    candidates_checked: int = 0


def default_period_bound(g: KGraph) -> Degree:
    """Candidate box radius per color: vertex count times max edge fan-in, at least 2."""
    out = []
    for c in range(1, g.k + 1):
        fan = max(len(g.in_edges(v, c)) for v in g.vertices)
        out.append(max(2, len(g.vertices) * fan))
    return tuple(out)


def path_counts(g: KGraph):
    """The map n -> M(n) with M(n)[v][w] = |v Lambda^n w|, memoised by degree.

    Rows and columns follow `g.vertices`.  M(n) is the product of the
    coordinate matrices A_i^(n_i), which commute by unique factorization,
    so no path is enumerated.
    """
    idx = {v: t for t, v in enumerate(g.vertices)}
    size = len(g.vertices)
    coord = []
    for c in range(1, g.k + 1):
        a = [[0] * size for _ in range(size)]
        for e in g.edges:
            if e.color == c:
                a[idx[e.range]][idx[e.source]] += 1
        coord.append(a)
    memo = {dg.zero(g.k): tuple(tuple(int(t == u) for u in range(size)) for t in range(size))}

    def counts(n: Degree) -> tuple[tuple[int, ...], ...]:
        hit = memo.get(n)
        if hit is None:
            i = max(c for c in range(g.k) if n[c])
            prev = counts(n[:i] + (n[i] - 1,) + n[i + 1:])
            a = coord[i]
            hit = memo[n] = tuple(
                tuple(sum(row[u] * a[u][w] for u in range(size)) for w in range(size)) for row in prev
            )
        return hit

    return counts


def _periodic_vertices(g: KGraph, counts, p: Degree):
    """The vertices v, in order, at which p is a period of every x from v.

    With a = p+ and b = p-, the automaton runs only where row v of M(a)
    equals row v of M(b).  If p is a period at v, then for any y in
    w Lambda^infinity the map lambda -> (lambda y)(0, b) is a bijection
    from v Lambda^a w onto v Lambda^b w; such a y exists because the graph
    has no sources (which `validate_kgraph` checks), so a row that differs
    rules v out.
    """
    a, b = dg.pos_part(p), dg.neg_part(p)
    ma, mb = counts(a), counts(b)
    for t, v in enumerate(g.vertices):
        if ma[t] == mb[t] and periodic_at_offsets(g, v, a, b):
            yield v


def per_group(g: KGraph, bound: Degree | int | None = None) -> PeriodicityResult:
    """Lattice of shift periods holding at every vertex, over a candidate box.

    Only defined for cofinal graphs; refuses otherwise.  There Per is a
    group, and T^m = T^n whenever m - n lies in it (Carlsen-Kang-Shotwell-
    Sims, JFA 2014), so a candidate in the span of the periods already
    found is a period at every vertex with no automaton call.
    """
    if is_cofinal(g).status != YES:
        raise ValueError("period group is only computed for certified-cofinal graphs")
    bound = default_period_bound(g) if bound is None else dg.as_degree(g.k, bound, "bound")
    counts = path_counts(g)
    span = LatticeBasis.trivial(g.k)
    per_vertex: dict[str, set[Degree]] = {v: set() for v in g.vertices}
    checked = 0
    for p in dg.signed_box(bound):
        if dg.is_zero(p):
            continue
        checked += 1
        if span.member(p):
            hits = g.vertices
        else:
            hits = list(_periodic_vertices(g, counts, p))
            if len(hits) == len(g.vertices):
                span = LatticeBasis.from_rows(span.rows + (p,), g.k)
        for v in hits:
            per_vertex[v].add(p)
    sets = list(per_vertex.values())
    agreement = all(s == sets[0] for s in sets)
    return PeriodicityResult(span, bound, agreement, checked)


def is_aperiodic(g: KGraph, bound: Degree | int | None = None) -> Verdict:
    """NO with a witness period if some vertex admits one; YES up to the bound."""
    bound = default_period_bound(g) if bound is None else dg.as_degree(g.k, bound, "bound")
    counts = path_counts(g)
    for p in dg.signed_box(bound):
        if dg.is_zero(p):
            continue
        v = next(_periodic_vertices(g, counts, p), None)
        if v is not None:
            return Verdict(
                NO,
                {"kind": "period_witness", "p": list(p), "vertex": v},
                bound,
            )
    return Verdict(YES, {"kind": "bounded_exhaustive"}, bound)
