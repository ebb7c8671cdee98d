"""Structural tests on k-colored graphs: cofinality and shift periodicity.

Cofinality asks whether every infinite path eventually meets the forward
reach of every vertex.  One rule decides it for every rank: a path avoids
the reach of v exactly when the vertices outside that reach have a
nonempty core, where every vertex receives an edge of every colour from
the core.  A closed word through every colour inside the core is a
checkable NO certificate.  A YES verdict is rechecked by a rule that
never runs that per-vertex loop: the rotation walk from the least vertex
closes a cycle at some vertex c, and the graph is cofinal iff c lies in
the reach of every vertex and the complement of reach(c) has an empty
core.  That is two searches and one pruning; the loop stays for NO,
whose certificate names the least failing vertex.  The rotation rule,
`cofinal_kind`, is also where the period search learns that its graph is
cofinal and whether it is strongly connected: `per_group` takes no
verdict, and only the commands that report a cofinality verdict run the
per-vertex loop.

Periodicity of the shift action is decided exactly per vertex by a finite
automaton on sliding windows: a window of degree join(a, b) determines
both compared slices of every one-step extension, so a walk over reachable
windows either proves T^a x = T^b x for all x from the vertex or reaches
a window where the slices differ; the first windows are the words of
`KGraph.words_from`, made one at a time.  The group of periods is the
lattice of integer vectors accepted at every vertex, computed over a box
of candidates and canonicalized.

Exact skips spare most automaton calls without changing the box, the
candidate count or any answer: p cannot be a period at v when row v of
the path-count matrix M(p+) differs from row v of M(p-); on a cofinal
graph a candidate in the span of the periods already found is a period
everywhere; and where the in-degrees pin the periods to a row-sum
lattice U, a candidate outside U is a period nowhere.  On a strongly
connected graph U can settle the whole box: once the least in-box
multiples of U's rows that are periods span a lattice F of full rank in
U, and no representative of U/F is a period, the periods are exactly F.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from . import degrees as dg
from .degrees import Degree
from .kgraph import KGraph, rotation_walk
from .lattices import LatticeBasis, kernel

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


def _closure(v: str, step) -> frozenset[str]:
    """The vertices reached from v by repeating `step`."""
    seen = {v}
    frontier = [v]
    while frontier:
        for u in step(frontier.pop()):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


def reach_set(g: KGraph, v: str) -> frozenset[str]:
    """Vertices u such that some path has range v and source u."""
    return _closure(v, lambda cur: (e.source for c in range(1, g.k + 1) for e in g.in_edges(cur, c)))


def _reached_from(v: str, out_edges: dict[str, list]) -> frozenset[str]:
    """Vertices u such that some path has range u and source v."""
    return _closure(v, lambda cur: (e.range for e in out_edges[cur]))


def _out_edges(g: KGraph) -> dict[str, list]:
    """The edges with source v, for each vertex v."""
    out_edges: dict[str, list] = {v: [] for v in g.vertices}
    for e in g.edges:
        out_edges[e.source].append(e)
    return out_edges


# --- cofinality -------------------------------------------------------------


def _core(g: KGraph, vertices: frozenset[str], out_edges: dict[str, list]) -> set[str]:
    """The largest subset of `vertices` in which every vertex is the range
    of an edge of every colour whose source is in the subset."""
    need = {u: [0] * g.k for u in vertices}
    for u in vertices:
        for e in out_edges[u]:
            if e.range in need:
                need[e.range][e.color - 1] += 1
    drop = [u for u, counts in need.items() if 0 in counts]
    while drop:
        u = drop.pop()
        if need.pop(u, None) is None:
            continue
        for e in out_edges[u]:
            counts = need.get(e.range)
            if counts is not None:
                counts[e.color - 1] -= 1
                if not counts[e.color - 1]:
                    drop.append(e.range)
    return set(need)


def is_cofinal(g: KGraph) -> Verdict:
    """Does every infinite path meet the reach of every vertex?

    For each vertex v, in sorted order, let O = V - reach(v).  An infinite
    path stays in O exactly when O has a nonempty core: the largest subset
    in which every vertex is the range of an edge of every colour whose
    source is in the subset.
    (<=) Inside the core, chain paths of degree (1, ..., 1) forever.  Every
    x(n) is the range of a path whose source is in the core, and the
    complement of reach(v) is closed under taking ranges, so every x(n)
    stays outside reach(v).
    (=>) The vertices of such a path form such a subset.
    For k = 1, a nonempty core means that O contains a cycle.
    """
    out_edges = _out_edges(g)
    connected = True
    for v in sorted(g.vertices):
        outside = frozenset(g.vertices) - reach_set(g, v)
        connected = connected and not outside
        core = _core(g, outside, out_edges)
        if core:
            cert = {"kind": "unreachable_cycle", "vertex": v, "cycle": rotation_walk(g, min(core), core)[1]}
            return Verdict(NO, cert, reason=f"a cycle avoids the forward reach of {v!r}")
    return Verdict(YES, {"kind": "strongly_connected" if connected else "tail_check"})


def cofinal_kind(g: KGraph) -> str | None:
    """The YES certificate kind by the rotation rule; None when not cofinal.

    Let x be the infinite path that repeats the closed word of
    `rotation_walk(g, min V)`, and c the vertex where that word closes.
    The rule: Lambda is cofinal iff c is in reach(v) for every v and
    V - reach(c) has an empty core (the notion of `is_cofinal`).
    (<=) c in reach(v) gives reach(c) within reach(v), so
    core(V - reach(v)) lies in core(V - reach(c)), which is empty.
    (=>) c recurs along x at degrees as large as we like, so c is in
    reach(x(n)) for every n.  If c is not in reach(v), then no x(n) lies
    in reach(v), and the x(n), each the range of an edge of every colour
    from another, lie in the core of V - reach(v), which is then nonempty.
    Two searches from c and one pruning decide it, in linear time.  A
    cofinal graph is strongly connected iff reach(c) = V as well.
    """
    every = frozenset(g.vertices)
    out_edges = _out_edges(g)
    c = g.edge(rotation_walk(g, min(every))[1][0]).range
    reach = reach_set(g, c)
    if _reached_from(c, out_edges) != every or _core(g, every - reach, out_edges):
        return None
    return "strongly_connected" if reach == every else "tail_check"


def verify_cofinality(g: KGraph, res: Verdict) -> bool:
    """Independent recheck of a cofinality certificate: YES by the rotation
    rule, which never runs the per-vertex loop of `is_cofinal`; NO by
    walking the claimed loop outside the claimed vertex's reach."""
    cert = res.certificate
    if res.status == YES:
        kind = cofinal_kind(g)
        return kind is not None and cert == {"kind": kind}
    if res.status == NO and cert is not None and cert.get("kind") == "unreachable_cycle":
        v, cyc = cert.get("vertex"), cert.get("cycle")
        if not isinstance(cyc, list) or not all(isinstance(eid, str) and eid in g._by_id for eid in cyc):
            return False
        edges = [g.edge(eid) for eid in cyc]
        # a loop that misses a colour repeats to no infinite path
        if v not in g.vertices or {e.color for e in edges} != set(range(1, g.k + 1)):
            return False
        reach = reach_set(g, v)
        cur = edges[0].range
        if cur in reach:
            return False
        for e in edges:
            if e.range != cur or e.source in reach:
                return False
            cur = e.source
        return cur == edges[0].range
    return False


# --- shift periodicity ------------------------------------------------------


def periodic_at_offsets(g: KGraph, v: str, a: Degree, b: Degree) -> bool:
    """Does every infinite path x from v satisfy T^a x = T^b x?

    Explores windows w = x(u, u+c) with c = join(a, b); on each one-step
    extension the two compared slices both sit inside the extended window,
    so a reachable mismatch is exactly a violation.  A window is its word
    of edge ids in normal form.  Extending it by an edge e of colour i
    inserts e once, past the higher-colour edges, through the square
    tables; the colour-i slices at a and b and the next window are read
    off that word by `KGraph.split_word`.  The first windows come lazily
    from `KGraph.words_from`, and the windows are walked depth first, so
    the walk stops at the first mismatch.  Nothing is interned or cached
    on g: the windows seen live for this call only.  a = b holds for every
    x; it is the one case with c = 0, whose windows have no edge to read a
    vertex off.
    """
    if a == b:
        return True
    c = dg.join(a, b)
    steps = []
    for i in range(1, g.k + 1):
        ei = dg.unit(g.k, i)
        d = dg.add(c, ei)
        steps.append((i, ei, d, dg.sub(d, a), dg.sub(d, b), sum(c[:i])))
    inv, split = g._inv, g.split_word
    seen: set[tuple[str, ...]] = set()
    for first in g.words_from(v, c):
        if first in seen:
            continue
        seen.add(first)
        stack = [first]
        while stack:
            w = stack.pop()
            src = g.edge(w[-1]).source
            for i, ei, d, da, db, at in steps:
                for e in g.in_edges(src, i):
                    lam = [*w, e.id]
                    for j in range(len(w), at, -1):
                        lam[j - 1], lam[j] = inv[lam[j - 1], lam[j]]
                    if split(split(lam, d, a)[1], da, ei)[0] != split(split(lam, d, b)[1], db, ei)[0]:
                        return False
                    new = tuple(split(lam, d, ei)[1])
                    if new not in seen:
                        seen.add(new)
                        stack.append(new)
    return True


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


def period_box_notes(g: KGraph, box: Degree) -> tuple[str, ...]:
    """A note when the period box is below the default box in some colour.

    A verdict or bicharacter read off the periods found in the box may
    miss periods that the default box would find.
    """
    default = default_period_bound(g)
    if dg.leq(default, box):
        return ()
    return (f"period box {list(box)} is below the default {list(default)}; periods outside it are not excluded",)


def _period_bound(g: KGraph, bound: Degree | int | None) -> Degree:
    """The candidate box radius: `bound` with every component at least 1,
    or the default when it is None."""
    if bound is None:
        return default_period_bound(g)
    bound = dg.as_degree(g.k, bound, "bound")
    if any(r < 1 for r in bound):
        raise ValueError(f"bounds must be positive, got {list(bound)}")
    return bound


def path_counts(g: KGraph):
    """The map (n, t) -> row t of M(n), with M(n)[v][w] = |v Lambda^n w|,
    memoised by degree and row.

    Rows and columns follow `g.vertices`.  M(n) is the product of the
    coordinate matrices A_i^(n_i), which commute by unique factorization,
    so row t of M(n) is row t of M(n - e_i) times A_i: one pass over the
    edges of colour i per step, and no path is enumerated.
    """
    idx = {v: t for t, v in enumerate(g.vertices)}
    size = len(g.vertices)
    arcs = [[] for _ in range(g.k)]
    for e in g.edges:
        arcs[e.color - 1].append((idx[e.range], idx[e.source]))
    zero = dg.zero(g.k)
    memo: dict[int, dict] = {}

    def counts(n: Degree, t: int) -> tuple[int, ...]:
        rows = memo.setdefault(t, {zero: tuple(int(t == u) for u in range(size))})
        # walk down the last nonzero coordinate to a known degree, then back up
        chain = []
        while n not in rows:
            i = max(c for c in range(g.k) if n[c])
            chain.append((n, i))
            n = n[:i] + (n[i] - 1,) + n[i + 1:]
        hit = rows[n]
        for m, i in reversed(chain):
            row = [0] * size
            for r, s in arcs[i]:
                row[s] += hit[r]
            hit = rows[m] = tuple(row)
        return hit

    return counts


def _prime_exponents(r: int) -> dict[int, int]:
    """The prime factorisation of r >= 1, as prime -> exponent."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= r:
        while r % q == 0:
            out[q] = out.get(q, 0) + 1
            r //= q
        q += 1
    if r > 1:
        out[r] = out.get(r, 0) + 1
    return out


def row_sum_lattice(g: KGraph) -> LatticeBasis | None:
    """A lattice U holding every p that is a period at some vertex, or None.

    Write r_i(v) for the in-degree of colour i at v, the row sums of A_i;
    each is at least 1, since the graph has no sources (None otherwise).  A
    period p at v has equal rows v of M(p+) and M(p-) (see `_period_at`).
    - Constant in-degrees r_i: row v of M(n) sums to prod r_i^(n_i), the
      number of paths of degree n with range v, so equal rows give
      prod r_i^(p_i) = 1, and U = {p : prod r_i^(p_i) = 1}: the integer
      kernel of the prime exponents of the r_i.
    - A strongly connected graph with one colour i of non-constant
      in-degree and every other colour of in-degree 1: the commuting A_j
      share a positive eigenvector x with A_j x = rho_j x (an Huef-Laca-
      Raeburn-Sims, "KMS states on the C*-algebras associated to
      higher-rank graphs", 2014), and, applied to the opposite graph,
      whose coordinate matrices are the transposes, a positive left one y.
      Then rho_j (y.1) = y A_j 1 = sum_v y_v r_j(v), so rho_j = 1 where
      r_j is 1 everywhere, and rho_i > 1, since r_i >= 1 everywhere and
      > 1 somewhere.  Equal rows v give prod rho_j^(p+_j) x_v =
      prod rho_j^(p-_j) x_v, so rho_i^(p_i) = 1 and U = {p : p_i = 0}.
    Every other graph gets None, and its period search walks the box.
    """
    degrees = [{len(g.in_edges(v, i)) for v in g.vertices} for i in range(1, g.k + 1)]
    if any(0 in ds for ds in degrees):
        return None
    varying = [i for i, ds in enumerate(degrees) if len(ds) > 1]
    if not varying:
        exps = [_prime_exponents(min(ds)) for ds in degrees]
        primes = sorted({q for e in exps for q in e})
        rows = [[e.get(q, 0) for q in primes] for e in exps]
        return LatticeBasis.from_rows(kernel(rows, len(primes)), g.k)
    if len(varying) == 1 and all(ds == {1} for i, ds in enumerate(degrees) if i != varying[0]) and (
        cofinal_kind(g) == "strongly_connected"
    ):
        return LatticeBasis.from_rows([dg.unit(g.k, j + 1) for j in range(g.k) if j != varying[0]], g.k)
    return None


def _period_at(g: KGraph, counts, t: int, p: Degree) -> bool:
    """Is p a period of every x from the vertex of row t?

    With a = p+ and b = p-, the automaton runs only where row t of M(a)
    equals row t of M(b).  If p is a period at v, then for any y in
    w Lambda^infinity the map lambda -> (lambda y)(0, b) is a bijection
    from v Lambda^a w onto v Lambda^b w; such a y exists because the graph
    has no sources (which `validate_kgraph` checks), so a row that differs
    rules v out.
    """
    a, b = dg.pos_part(p), dg.neg_part(p)
    return counts(a, t) == counts(b, t) and periodic_at_offsets(g, g.vertices[t], a, b)


def _periodic_vertices(g: KGraph, counts, p: Degree):
    """The vertices v, in order, at which p is a period of every x from v."""
    return (v for t, v in enumerate(g.vertices) if _period_at(g, counts, t, p))


def _settled_periods(g: KGraph, counts, upper: LatticeBasis, bound: Degree):
    """The periods F found from the rows of U = `upper`, and whether F = Per.

    Only for a strongly connected graph, where a period at one vertex is
    a period at every vertex: if p holds at v and lambda is a path with
    range v and source u, then for x from u, T^a x = T^(a + d(lambda))
    (lambda x) = T^(b + d(lambda)) (lambda x) = T^b x.  So the first
    vertex speaks for all.  F is spanned by the least multiple t_j u_j of
    each row u_j of U that lies in the box and is a period.  When every
    row has one, the sums of c_j u_j with 0 <= c_j < t_j are one
    representative of each coset of U/F.  Per is a group with
    F <= Per <= U, so x in Per has a representative x - f in Per; if no
    nonzero representative is a period, then Per = F.
    """
    mults = []
    for u in upper.rows:
        limit = min(r // abs(x) for x, r in zip(u, bound) if x)
        t = next((t for t in range(1, limit + 1) if _period_at(g, counts, 0, dg.scale(t, u))), None)
        mults.append(t)
    found = [(t, u) for t, u in zip(mults, upper.rows) if t is not None]
    span = LatticeBasis.from_rows([dg.scale(t, u) for t, u in found], g.k)
    if len(found) < upper.rank:
        return span, False
    reps = (
        tuple(sum(c * u[i] for c, u in zip(cs, upper.rows)) for i in range(g.k))
        for cs in product(*(range(t) for t in mults))
        if any(cs)
    )
    return span, not any(_period_at(g, counts, 0, r) for r in reps)


def per_group(g: KGraph, bound: Degree | int | None = None) -> PeriodicityResult:
    """Lattice of shift periods holding at every vertex, over a candidate box.

    Only defined for cofinal graphs: the rotation rule `cofinal_kind` is
    run on g, and a graph it finds not cofinal is refused.  There Per is a
    group, and T^m = T^n whenever m - n lies in it (Carlsen-Kang-Shotwell-
    Sims, JFA 2014), so a candidate in the span of the periods already
    found is a period at every vertex with no automaton call.  The vertices
    agree on their periods when each candidate holds at all of them or at
    none.  A candidate outside `row_sum_lattice` is a period nowhere.

    The result is <Per & box>, whatever the order of the walk: each box
    vector that is a period everywhere is either in the span when the walk
    reaches it or joins it, and nothing else joins.  So on a strongly
    connected graph (kind `strongly_connected`) the periods found from the
    rows of U seed the span, and when they settle Per (see
    `_settled_periods`) the walk is not needed: there F lies in
    <Per & box>, which lies in Per = F, the vertices agree, and every box
    vector counts as checked.
    """
    kind = cofinal_kind(g)
    if kind is None:
        raise ValueError("period group is only computed for certified-cofinal graphs")
    bound = _period_bound(g, bound)
    counts = path_counts(g)
    checked = prod(2 * r + 1 for r in bound) - 1
    upper = row_sum_lattice(g)
    span = LatticeBasis.trivial(g.k)
    if upper is not None and kind == "strongly_connected":
        span, settled = _settled_periods(g, counts, upper, bound)
        if settled:
            return PeriodicityResult(span, bound, True, checked)
    agreement = True
    for p in dg.signed_box(bound):
        if dg.is_zero(p) or span.member(p) or (upper is not None and not upper.member(p)):
            continue
        hits = sum(1 for _ in _periodic_vertices(g, counts, p))
        if hits == len(g.vertices):
            span = LatticeBasis.from_rows(span.rows + (p,), g.k)
        elif hits:
            agreement = False
    return PeriodicityResult(span, bound, agreement, checked)


def is_aperiodic(g: KGraph, bound: Degree | int | None = None) -> Verdict:
    """NO with a witness period if some vertex admits one; YES up to the bound.

    Candidates outside `row_sum_lattice` are periods nowhere and are
    skipped, so the witness is the first period in the box's order.
    """
    bound = _period_bound(g, bound)
    counts = path_counts(g)
    upper = row_sum_lattice(g)
    for p in dg.signed_box(bound):
        if dg.is_zero(p) or (upper is not None and not upper.member(p)):
            continue
        v = next(_periodic_vertices(g, counts, p), None)
        if v is not None:
            return Verdict(
                NO,
                {"kind": "period_witness", "p": list(p), "vertex": v},
                bound,
            )
    return Verdict(YES, {"kind": "bounded_exhaustive"}, bound)
