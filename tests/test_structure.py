"""Reachability, cofinality, and the shift-period lattice."""

import os
import sys
import time
import tracemalloc
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktwist import cli
from ktwist import degrees as dg
from ktwist import structure
from ktwist.io import serialize_cocycle, serialize_graph
from ktwist.kgraph import Edge, KGraph, Path, Square, builtin, product_with_Tl, validate_kgraph
from ktwist.lattices import LatticeBasis
from ktwist.structure import (
    NO,
    UNKNOWN,
    YES,
    PeriodicityResult,
    Verdict,
    default_period_bound,
    is_aperiodic,
    is_cofinal,
    path_counts,
    per_group,
    periodic_at_offsets,
    reach_set,
    row_sum_lattice,
    verify_cofinality,
)

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
sys.path.insert(0, SCRIPTS)
try:
    from period_scale import THETA, scale_base, scale_graph
finally:
    sys.path.remove(SCRIPTS)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    from three_graphs import one_vertex_three_graphs, path_window_automaton
finally:
    sys.path.pop(0)


def test_strong_connectivity():
    # read off the cofinality kind, as the decision cascade does
    for name in ("T2", "B2"):
        assert is_cofinal(builtin(name)) == Verdict(YES, {"kind": "strongly_connected"}), name
    assert is_cofinal(builtin("DISJOINT2")).status == NO


def test_cofinality_verdicts():
    for name in ("T2", "B2", "B2xT1", "B2xT3"):
        v = is_cofinal(builtin(name))
        assert v.status == YES, name
    bad = is_cofinal(builtin("DISJOINT2"))
    assert bad.status == NO
    assert bad.certificate is not None


def test_cofinality_certificates_recheck():
    for name in ("T2", "B2", "DISJOINT2", "DISJOINT2xT1"):
        g = builtin(name)
        v = is_cofinal(g)
        assert verify_cofinality(g, v)


def test_cofinality_of_rank_two_graphs_that_are_not_strongly_connected():
    # with two colours the loop that avoids the reach of u uses both
    bad = is_cofinal(builtin("DISJOINT2xT1"))
    assert bad.certificate == {"kind": "unreachable_cycle", "vertex": "u", "cycle": ["lw", "t1_w"]}
    assert is_cofinal(disjoint_torus_and_bouquet()).status == NO
    tail = product_with_Tl(TAIL, 1)
    good = is_cofinal(tail)
    assert good == Verdict(YES, {"kind": "tail_check"})
    assert verify_cofinality(tail, good)


def test_forged_one_colour_cycle_is_rejected():
    # lw alone has degree (1, 0): repeating it never grows in the torus colour
    g = builtin("DISJOINT2xT1")
    forged = Verdict(NO, {"kind": "unreachable_cycle", "vertex": "u", "cycle": ["lw"]})
    assert not verify_cofinality(g, forged)
    disjoint = builtin("DISJOINT2")
    assert verify_cofinality(disjoint, forged)
    # a loop inside the claimed vertex's reach, a walk that does not chain,
    # and a kind or status that no rule checks
    for forged in (
        Verdict(NO, {"kind": "unreachable_cycle", "vertex": "w", "cycle": ["lw"]}),
        Verdict(NO, {"kind": "unreachable_cycle", "vertex": "u", "cycle": ["lw", "lu"]}),
        Verdict(NO, {"kind": "other"}),
        # malformed: an edge the graph does not have, no cycle, no vertex
        Verdict(NO, {"kind": "unreachable_cycle", "vertex": "u", "cycle": ["zz"]}),
        Verdict(NO, {"kind": "unreachable_cycle", "vertex": "u"}),
        Verdict(NO, {"kind": "unreachable_cycle", "cycle": ["lw"]}),
        Verdict(NO, {"kind": "unreachable_cycle", "vertex": "u", "cycle": [["lw"]]}),
        Verdict(UNKNOWN, {"kind": "unreachable_cycle", "vertex": "u", "cycle": ["lw"]}),
    ):
        assert not verify_cofinality(disjoint, forged)


# x carries a loop of each colour; w receives one edge of each colour from
# x, and u one of each from w: cofinal, with every path ending at x
FUNNEL = KGraph(
    2,
    ("u", "w", "x"),
    (
        Edge("p", 1, "x", "x"), Edge("q", 2, "x", "x"),
        Edge("r", 1, "w", "x"), Edge("s", 2, "w", "x"),
        Edge("a", 1, "u", "w"), Edge("b", 2, "u", "w"),
    ),
    (Square(1, 2, "p", "q", "q", "p"), Square(1, 2, "r", "q", "s", "p"), Square(1, 2, "a", "s", "b", "r")),
    name="FUNNEL",
)


def test_pruning_drops_a_vertex_queued_twice_once():
    # reach(x) = {x}; of u and w outside it, w receives nothing from them and
    # is dropped first, which takes both colours from u: queued twice, dropped once
    assert validate_kgraph(FUNNEL).ok
    assert structure._core(FUNNEL, frozenset({"u", "w"}), structure._out_edges(FUNNEL)) == set()
    cof = is_cofinal(FUNNEL)
    assert cof == Verdict(YES, {"kind": "tail_check"}) and verify_cofinality(FUNNEL, cof)


def chain(n: int) -> KGraph:
    """v0 <- v1 <- ... <- v(n-1), with a loop at the far end: cofinal."""
    vs = tuple(f"v{i}" for i in range(n))
    edges = tuple(Edge(f"e{i}", 1, vs[i], vs[i + 1]) for i in range(n - 1)) + (Edge("z", 1, vs[-1], vs[-1]),)
    return KGraph(1, vs, edges, (), name=f"CHAIN{n}")


def test_cofinality_of_a_long_chain_does_not_recurse():
    # deeper than the default recursion limit
    assert is_cofinal(chain(1100)) == Verdict(YES, {"kind": "tail_check"})


@pytest.mark.parametrize("name", ["B2", "T1"])
def test_period_search_at_a_large_bound_does_not_recurse(name, capsys):
    # a degree of 1,200 in one colour is deeper than the default recursion limit
    assert cli.main(["per", f"builtin:{name}", "--bound", "1200"]) == 0
    assert "exhaustive up to: [1200]" in capsys.readouterr().out.splitlines()


def test_periodic_at_torus():
    g = builtin("T2")
    assert periodic_at_offsets(g, "v", (1, 0), (0, 0))
    assert periodic_at_offsets(g, "v", (0, 1), (0, 0))
    assert periodic_at_offsets(g, "v", (1, 0), (0, 1))
    # equal offsets agree on every path, with no shortcut for them
    assert periodic_at_offsets(builtin("B2"), "v", (1,), (1,))


def test_periodic_at_b2_fails():
    # two loops of one color: distinct tails break every nonzero period
    g = builtin("B2")
    assert not periodic_at_offsets(g, "v", (1,), (0,))


def test_per_group_torus_is_full():
    g = builtin("T2")
    per = per_group(g)
    assert per.lattice.rank == 2
    assert per.lattice.member((1, 0))
    assert per.lattice.member((0, 1))
    assert per.per_vertex_agreement


def test_per_group_b2_trivial():
    g = builtin("B2")
    per = per_group(g)
    assert per.lattice.rank == 0
    assert per.lattice.is_trivial()


def test_per_group_b2xt1_is_torus_direction():
    g = builtin("B2xT1")
    per = per_group(g)
    assert per.lattice.rank == 1
    assert per.lattice.member((0, 1))
    assert not per.lattice.member((1, 0))
    assert not per.lattice.member((1, 1))


def test_per_group_b2xt3_is_torus_block():
    g = builtin("B2xT3")
    per = per_group(g)
    assert per.lattice.rank == 3
    for row in per.lattice.rows:
        assert row[0] == 0
    assert per.lattice.member((0, 1, 0, 0))
    assert per.lattice.member((0, 0, 1, 0))
    assert per.lattice.member((0, 0, 0, 1))
    assert not per.lattice.member((1, 0, 0, 0))


def test_per_group_refuses_non_cofinal():
    with pytest.raises(ValueError):
        g = builtin("DISJOINT2")
        per_group(g)


def test_aperiodicity_verdicts():
    assert is_aperiodic(builtin("B2")).status == YES
    v = is_aperiodic(builtin("T2"))
    assert v.status == NO
    assert v.certificate["kind"] == "period_witness"


def test_pair_relation_cross_checks_periodicity():
    g = builtin("T2")
    # on the torus a.x and b.x eventually merge: (a, b) generates period (1,-1)
    mu = g.edge_path("a")
    nu = g.edge_path("b")
    assert pair_relation(g, mu, nu)
    g2 = builtin("B2")
    e = g2.edge_path("e")
    f = g2.edge_path("f")
    assert not pair_relation(g2, e, f)


def test_local_periodicity_pair_agrees_with_verdicts():
    # a witness pair exists exactly where the window automaton finds periods
    assert local_periodicity_pair(builtin("T2"), 2) is not None
    assert local_periodicity_pair(builtin("B2"), 2) is None
    g = builtin("B2xT1")
    pair = local_periodicity_pair(g, 2)
    assert pair is not None
    mu, nu = pair
    assert pair_relation(g, mu, nu)


@pytest.mark.parametrize("search, name, bound", [
    (is_aperiodic, "T2", (0, -2)),
    (is_aperiodic, "B2xT1", (2, 0)),
    pytest.param(lambda g, bound: per_group(g, bound), "T2", -1,
                 id="per_group-T2--1"),
])
def test_period_search_refuses_a_nonpositive_bound(search, name, bound):
    # a side below 1 used to certify the truncated box: T2 came out aperiodic
    # and without periods, B2xT1 aperiodic
    with pytest.raises(ValueError, match="bounds must be positive"):
        search(builtin(name), bound)


def test_per_group_bound_stability():
    # enlarging the search box does not change the answer on the fixtures
    for name in ("T2", "B2", "B2xT1"):
        g = builtin(name)
        small = per_group(g, 2)
        large = per_group(g, 3)
        assert small.lattice.rows == large.lattice.rows, name


# --- cross-checks on the periodicity notion ---------------------------------


def pair_relation(g: KGraph, mu: Path, nu: Path) -> bool:
    """Do mu and nu satisfy mu.x = nu.x for every infinite x from their source?

    Decided exactly: with n0 = join(d(mu), d(nu)), the infinite equality is
    equivalent to prefix agreement over all test paths w of degree
    join(n0-d(mu), n0-d(nu)) together with shift periodicity at the source
    with offsets (n0-d(mu), n0-d(nu)).
    """
    if mu.source != nu.source or mu.range != nu.range:
        return False
    n0 = dg.join(mu.degree, nu.degree)
    a = dg.sub(n0, mu.degree)
    b = dg.sub(n0, nu.degree)
    for w in g.paths_from(mu.source, dg.join(a, b)):
        left = g.compose(mu, g.factorize(w, a)[0])
        right = g.compose(nu, g.factorize(w, b)[0])
        if left != right:
            return False
    return periodic_at_offsets(g, mu.source, a, b)


def local_periodicity_pair(g: KGraph, bound: int):
    """Search for mu != nu with equal endpoints, meet-zero degrees, and the
    property that every bounded extension of the two still has a common
    extension.  Finding one is evidence against aperiodicity; used as an
    independent cross-check of the window automaton.
    """
    bound = (bound,) * g.k
    for v in g.vertices:
        for m in dg.box(bound):
            for n in dg.box(bound):
                if not dg.is_zero(tuple(map(min, m, n))):
                    continue
                if dg.is_zero(m) and dg.is_zero(n):
                    continue
                for mu in g.paths_from(v, m):
                    for nu in g.paths_from(v, n):
                        if mu != nu and mu.source == nu.source:
                            if _always_commonly_extendable(g, mu, nu, bound):
                                return mu, nu
    return None


def _always_commonly_extendable(g: KGraph, mu: Path, nu: Path, bound) -> bool:
    for da in dg.box(bound):
        for alpha in g.paths_from(mu.source, da):
            ma = g.compose(mu, alpha)
            na = g.compose(nu, alpha)
            n = dg.join(ma.degree, na.degree)
            ok = False
            for ext in g.paths_from(ma.range, dg.sub(n, ma.degree)):
                cand = g.compose(ma, ext)
                if g.factorize(cand, na.degree)[0] == na:
                    ok = True
                    break
            if not ok:
                return False
    return True


# --- the pruned period search against the plain box loop --------------------


def automaton_hits(g: KGraph, bound, counts=None) -> list:
    """Every (candidate, vertex) pair of the box that the window automaton
    accepts.  Given `counts`, the automaton runs only where the rows of path
    counts agree, which never loses a pair (see `structure._period_at`)."""
    return [
        (p, v)
        for p in dg.signed_box(bound)
        if not dg.is_zero(p)
        for t, v in enumerate(g.vertices)
        if (counts is None or counts(dg.pos_part(p), t) == counts(dg.neg_part(p), t))
        and periodic_at_offsets(g, v, dg.pos_part(p), dg.neg_part(p))
    ]


def reference_per_group(g: KGraph, bound, hits) -> PeriodicityResult:
    """per_group as the plain box loop over every (candidate, vertex) pair."""
    candidates = [p for p in dg.signed_box(bound) if not dg.is_zero(p)]
    per_vertex = {v: {p for p, u in hits if u == v} for v in g.vertices}
    accepted = [p for p in candidates if all(p in s for s in per_vertex.values())]
    sets = list(per_vertex.values())
    agreement = all(s == sets[0] for s in sets)
    return PeriodicityResult(LatticeBasis.from_rows(accepted, g.k), bound, agreement, len(candidates))


def reference_is_aperiodic(bound, hits) -> Verdict:
    if hits:
        p, v = hits[0]
        return Verdict(NO, {"kind": "period_witness", "p": list(p), "vertex": v}, bound)
    return Verdict(YES, {"kind": "bounded_exhaustive"}, bound)


def every_bound(g: KGraph) -> list:
    """Every box radius from 1 up to the default in each colour."""
    return list(product(*(range(1, r + 1) for r in default_period_bound(g))))


def assert_matches_box_loop(g: KGraph, bounds=None, rows_first=False):
    """per_group and is_aperiodic give what the plain box loop gives, at
    each bound (the default box when None).

    The loop's hits are found once, over the join of the bounds, and cut
    down to each bound; the box order is kept, so the first hit in a
    smaller box is the first in the larger one that lies in it.  With
    `rows_first` the loop, too, runs the automaton only where the rows of
    path counts agree: for graphs whose large windows are too many to
    enumerate at every candidate.
    """
    bounds = bounds or [default_period_bound(g)]
    counts = path_counts(g)
    hits = automaton_hits(g, reduce(dg.join, bounds), counts if rows_first else None)
    if not rows_first:
        # the row test never rules out a pair that the automaton accepts
        for p, v in hits:
            t = g.vertices.index(v)
            assert counts(dg.pos_part(p), t) == counts(dg.neg_part(p), t), (p, v)
    # the row-sum lattice holds every period found at any vertex
    upper = row_sum_lattice(g)
    assert upper is None or all(upper.member(p) for p, _ in hits)
    cof = is_cofinal(g)
    for bound in bounds:
        inside = [(p, v) for p, v in hits if all(abs(x) <= r for x, r in zip(p, bound))]
        assert is_aperiodic(g, bound) == reference_is_aperiodic(bound, inside), bound
        if cof.status == YES:
            assert per_group(g, bound) == reference_per_group(g, bound, inside), bound
        else:
            with pytest.raises(ValueError):
                per_group(g, bound)


@st.composite
def single_vertex_two_graphs(draw):
    """One vertex, a red and b blue loops, squares from a drawn bijection.

    With two colours there is no hexagon condition, so every bijection from
    the red-blue pairs onto the blue-red pairs gives a 2-graph.
    """
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    reds = [f"r{i}" for i in range(a)]
    blues = [f"s{j}" for j in range(b)]
    targets = draw(st.permutations([(h, f) for h in blues for f in reds]))
    sources = [(f, h) for f in reds for h in blues]
    edges = tuple(Edge(e, 1, "v", "v") for e in reds) + tuple(Edge(e, 2, "v", "v") for e in blues)
    squares = tuple(Square(1, 2, f, h, hp, fp) for (f, h), (hp, fp) in zip(sources, targets))
    return KGraph(2, ("v",), edges, squares, name=f"R{a}x{b}")


@st.composite
def rank_one_graphs(draw):
    """One to seven vertices, each the range of an edge, plus 0-3 extra edges."""
    n = draw(st.integers(1, 7))
    vs = tuple(f"v{i}" for i in range(n))
    pick = st.sampled_from(vs)
    ends = [(v, draw(pick)) for v in vs]
    ends += draw(st.lists(st.tuples(pick, pick), max_size=3))
    edges = tuple(Edge(f"e{t}", 1, r, s) for t, (r, s) in enumerate(ends))
    return KGraph(1, vs, edges, (), name=f"G{n}")


def reference_is_cofinal(g: KGraph) -> Verdict:
    """Cofinality of a 1-graph by depth-first search for a cycle outside
    the reach of each vertex in turn."""
    arcs: dict[str, list[tuple[str, str]]] = {}
    for e in g.edges:
        arcs.setdefault(e.range, []).append((e.source, e.id))
    for v in sorted(g.vertices):
        outside = frozenset(g.vertices) - reach_set(g, v)
        cyc = _find_cycle(outside, arcs) if outside else None
        if cyc is not None:
            return Verdict(
                NO,
                {"kind": "unreachable_cycle", "vertex": v, "cycle": cyc},
                reason=f"a cycle avoids the forward reach of {v!r}",
            )
    return Verdict(YES)


def _find_cycle(vertices: frozenset[str], arcs: dict[str, list[tuple[str, str]]]) -> list[str] | None:
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
                return stack_edges[stack_vs.index(u):] + [eid]
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


@settings(max_examples=200, deadline=None)
@given(rank_one_graphs())
def test_cofinality_matches_the_cycle_search_on_random_1_graphs(g):
    got, ref = is_cofinal(g), reference_is_cofinal(g)
    assert (got.status, got.reason) == (ref.status, ref.reason)
    if got.status == NO:
        assert got.certificate["vertex"] == ref.certificate["vertex"]
        assert verify_cofinality(g, got)
    for l in (1, 2):
        h = product_with_Tl(g, l)
        prod = is_cofinal(h)
        assert prod.status == got.status
        if prod.status == NO:
            assert verify_cofinality(h, prod)


YES_KINDS = ("strongly_connected", "tail_check")


@settings(max_examples=200, deadline=None)
@given(rank_one_graphs())
def test_yes_recheck_agrees_with_the_per_vertex_rule(g):
    # the rotation rule accepts exactly the YES certificate is_cofinal gives
    for h in (g, product_with_Tl(g, 1), product_with_Tl(g, 2)):
        got = is_cofinal(h)
        for kind in YES_KINDS:
            claim = Verdict(YES, {"kind": kind})
            assert verify_cofinality(h, claim) == (got == claim)


def test_forged_yes_certificates_are_rejected():
    for g in (builtin("DISJOINT2"), builtin("T2")):
        assert not verify_cofinality(g, Verdict(YES, {"kind": "tail_check"}))
    tail = product_with_Tl(TAIL, 1)
    assert not verify_cofinality(tail, Verdict(YES, {"kind": "strongly_connected"}))
    assert not verify_cofinality(builtin("T2"), Verdict(YES, {"kind": "strongly_connected", "extra": 1}))


def test_yes_recheck_of_a_long_chain_is_linear():
    # two searches and one pruning, where the per-vertex rule of is_cofinal is quadratic
    g = chain(5000)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert verify_cofinality(g, Verdict(YES, {"kind": "tail_check"}))
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.05
    assert is_cofinal(builtin("C3xT1")) == Verdict(YES, {"kind": "strongly_connected"})
    assert not verify_cofinality(g, Verdict(YES, {"kind": "strongly_connected"}))


def two_vertex_flip() -> KGraph:
    """Two vertices swapped by the one edge of each colour into each.

    Every vertex has one infinite path, and its vertices alternate, so the
    periods are the p with p1 + p2 even: an index-2 lattice, whose rational
    span also holds the odd candidates such as (-2, -1).
    """
    edges = (
        Edge("a", 1, "u", "w"), Edge("b", 1, "w", "u"),
        Edge("c", 2, "u", "w"), Edge("d", 2, "w", "u"),
    )
    squares = (Square(1, 2, "a", "d", "c", "b"), Square(1, 2, "b", "c", "d", "a"))
    return KGraph(2, ("u", "w"), edges, squares, name="FLIP2")


def disjoint_torus_and_bouquet() -> KGraph:
    """T2 at u beside B2xT1 at w: periodic at u only, and not cofinal."""
    edges = (
        Edge("a", 1, "u", "u"), Edge("b", 2, "u", "u"),
        Edge("e", 1, "w", "w"), Edge("f", 1, "w", "w"), Edge("t", 2, "w", "w"),
    )
    squares = (
        Square(1, 2, "a", "b", "b", "a"),
        Square(1, 2, "e", "t", "t", "e"),
        Square(1, 2, "f", "t", "t", "f"),
    )
    return KGraph(2, ("u", "w"), edges, squares, name="T2+B2xT1")


# a loop a at v and one edge b with range w and source v: cofinal, but not
# strongly connected
TAIL = KGraph(1, ("v", "w"), (Edge("a", 1, "v", "v"), Edge("b", 1, "w", "v")), (), name="TAIL")


def test_two_vertex_graphs():
    # both are 2-graphs, and the flip's periods are the p with p1 + p2 even
    for g in (two_vertex_flip(), disjoint_torus_and_bouquet()):
        assert validate_kgraph(g).ok, g.name
    flip = two_vertex_flip()
    assert per_group(flip).lattice == LatticeBasis.from_rows([(1, 1), (1, -1)], 2)


@pytest.mark.parametrize(
    "name",
    ["T2", "B2", "B3", "C3", "B2xT1", "B3xT1", "B2xT2", "B2xT3", "C2xT1", "C3xT1", "C3xT2", "C2xT2"],
)
def test_pruned_period_search_matches_box_loop_on_products(name):
    assert_matches_box_loop(builtin(name))


@pytest.mark.parametrize("name", ["C3xT2", "B2xT3"])
def test_pruned_period_search_matches_box_loop_at_every_bound(name):
    g = builtin(name)
    assert_matches_box_loop(g, every_bound(g))


def test_a_box_can_miss_periods():
    # the box (2, 2, 2) holds no multiple of C3's period (3, 0, 0)
    g = builtin("C3xT2")
    assert per_group(g).lattice == LatticeBasis.from_rows([(3, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert per_group(g, 2).lattice == LatticeBasis.from_rows([(0, 1, 0), (0, 0, 1)], 3)


@pytest.mark.parametrize("make", [two_vertex_flip, disjoint_torus_and_bouquet])
def test_pruned_period_search_matches_box_loop_on_two_vertices(make):
    g = make()
    assert_matches_box_loop(g, every_bound(g))


@pytest.mark.parametrize("n", range(4, 13))
def test_pruned_period_search_matches_box_loop_on_the_scale_family(n):
    g = scale_graph(n)
    assert row_sum_lattice(g) == LatticeBasis.from_rows([(0, 1)], 2)
    assert_matches_box_loop(g, rows_first=True)


@settings(max_examples=40, deadline=None)
@given(single_vertex_two_graphs())
def test_pruned_period_search_matches_box_loop_on_random_2_graphs(g):
    assert_matches_box_loop(g)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 751))
def test_pruned_period_search_matches_box_loop_on_one_vertex_3_graphs(i):
    ground = one_vertex_three_graphs()
    assert len(ground) == 752
    assert_matches_box_loop(ground[i])


# --- the word-level window automaton against the path-based one -----------


def assert_automata_agree(g: KGraph, bound) -> None:
    """Both automata give the same answer at every nonzero offset of the
    box and every vertex, and the word-level one leaves g's tables as they
    were.  The path-based one runs on a fresh copy, whose tables it fills."""
    fresh = KGraph(g.k, g.vertices, g.edges, g.squares, name=g.name)
    for p in dg.signed_box(bound):
        if dg.is_zero(p):
            continue
        a, b = dg.pos_part(p), dg.neg_part(p)
        for v in g.vertices:
            sizes = (len(g._paths_cache), len(g._interned))
            assert periodic_at_offsets(g, v, a, b) == path_window_automaton(fresh, v, a, b), (g.name, v, p)
            assert (len(g._paths_cache), len(g._interned)) == sizes


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 751))
def test_window_automaton_matches_the_path_automaton_on_one_vertex_3_graphs(i):
    assert_automata_agree(one_vertex_three_graphs()[i], (1, 1, 1))


@pytest.mark.parametrize("name", [
    "T1", "T2", "T3", "B2", "B3", "C2", "C3", "DISJOINT2",
    "B2xT1", "B3xT1", "B2xT2", "B2xT3", "C2xT1", "C3xT1", "C2xT2", "C3xT2",
])
def test_window_automaton_matches_the_path_automaton_on_builtins(name):
    g = builtin(name)
    assert_automata_agree(g, (2,) * min(g.k, 3) + (1,) * (g.k - 3))


@pytest.mark.parametrize("n", [10, 12, 20])
def test_window_automaton_matches_the_path_automaton_on_the_scale_family(n):
    assert_automata_agree(scale_graph(n), (3, 2))


def test_window_automaton_keeps_no_paths_on_a_false_answer():
    # the path automaton listed and kept 777 paths here (a 1.7 MB peak) to answer False
    g = scale_graph(12)
    tracemalloc.start()
    try:
        assert not periodic_at_offsets(g, "v0", (20, 0), (0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert not g._paths_cache and not g._interned


# --- the enumerator of words against path counts ----------------------------


def assert_paths_match_counts(g: KGraph, bound) -> None:
    """At each vertex v (row t) and degree n of the box, `paths_from` lists
    as many paths as row t of M(n) sums to, by matrix products that list
    nothing; each has range v and degree n and is rebuilt from its word to
    itself, and no word repeats.  The reference automaton takes its first
    windows from the same enumerator, so this count is what pins it."""
    counts = path_counts(g)
    for t, v in enumerate(g.vertices):
        for n in dg.box(bound):
            paths = g.paths_from(v, n)
            assert len(paths) == sum(counts(n, t)), (g.name, v, n)
            assert len({p.word for p in paths}) == len(paths), (g.name, v, n)
            for p in paths:
                assert (p.range, p.degree) == (v, n) and g.make_path(v, p.word) is p, (g.name, p)


@pytest.mark.parametrize("name", [
    "T1", "T2", "T3", "B2", "B3", "C2", "C3", "DISJOINT2",
    "B2xT1", "B3xT1", "B2xT2", "B2xT3", "C2xT1", "C3xT1", "C2xT2", "C3xT2",
])
def test_paths_from_matches_the_path_counts_on_builtins(name):
    g = builtin(name)
    assert_paths_match_counts(g, (2,) * g.k)


def test_paths_from_matches_the_path_counts_on_the_flip():
    assert_paths_match_counts(two_vertex_flip(), (3, 3))


@settings(max_examples=20, deadline=None)
@given(single_vertex_two_graphs())
def test_paths_from_matches_the_path_counts_on_random_2_graphs(g):
    assert_paths_match_counts(g, (2, 3))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 751))
def test_paths_from_matches_the_path_counts_on_one_vertex_3_graphs(i):
    assert_paths_match_counts(one_vertex_three_graphs()[i], (2, 2, 2))


def box_size(bound) -> int:
    """The nonzero candidates of the signed box."""
    return len(list(dg.signed_box(bound))) - 1


def counted_automaton(monkeypatch) -> list:
    """The argument tuples of every window automaton call from now on."""
    calls = []

    def counted(*args):
        calls.append(args)
        return periodic_at_offsets(*args)

    monkeypatch.setattr(structure, "periodic_at_offsets", counted)
    return calls


@pytest.mark.parametrize("name, periods", [
    ("C3xT2", [(3, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ("B2xT3", [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
], ids=["C3xT2", "B2xT3"])
def test_per_group_skips_most_automaton_calls(monkeypatch, name, periods):
    # one call per row of the row-sum lattice settles the box, where the
    # box walk ran the automaton at 504 of B2xT3's 624 candidates
    g = builtin(name)
    calls = counted_automaton(monkeypatch)
    per = per_group(g)
    assert 0 < len(calls) <= 8
    bound = default_period_bound(g)
    assert per == PeriodicityResult(LatticeBasis.from_rows(periods, g.k), bound, True, box_size(bound))


def test_is_aperiodic_on_b2_makes_no_automaton_call(monkeypatch):
    # the row-sum lattice of B2 is 0, so no candidate is left to test
    calls = counted_automaton(monkeypatch)
    verdict = is_aperiodic(builtin("B2"))
    assert calls == []
    assert verdict.to_jsonable() == {"status": YES, "certificate": {"kind": "bounded_exhaustive"}, "bound": [2]}


def test_per_group_settles_the_200_vertex_scale_member(monkeypatch):
    g = scale_graph(200)
    cof = is_cofinal(g)
    assert cof == Verdict(YES, {"kind": "strongly_connected"})
    bound = default_period_bound(g)
    calls = counted_automaton(monkeypatch)
    per = per_group(g)
    assert len(calls) <= 4
    assert per == PeriodicityResult(LatticeBasis.from_rows([(0, 1)], 2), bound, True, box_size(bound))


@pytest.mark.parametrize("n", [50, 400])
def test_per_and_omega_search_reach_twice_on_the_scale_member(tmp_path, monkeypatch, capsys, n):
    # the rotation rule tells the period search that R_n x T1 is strongly
    # connected; the per-vertex rule of is_cofinal searched n + 1 times
    graph, cocycle = tmp_path / "g.json", tmp_path / "theta.json"
    graph.write_text(serialize_graph(scale_graph(n)), encoding="utf-8")
    cocycle.write_text(serialize_cocycle(THETA), encoding="utf-8")
    calls = []

    def counted(g, v):
        calls.append(v)
        return reach_set(g, v)

    monkeypatch.setattr(structure, "reach_set", counted)
    for argv in (["per", str(graph)], ["omega", str(graph), "--cocycle", str(cocycle)]):
        calls.clear()
        assert cli.main(argv) == 0
        assert len(calls) <= 2, (argv[0], len(calls))
    capsys.readouterr()


def two_coloured_copies(base: KGraph) -> KGraph:
    """A red and a blue copy of each edge of a 1-graph; the red-blue path
    e f is the blue-red path of the same edges, colours swapped."""
    edges = tuple(Edge(f"{e.id}_{c}", n, e.range, e.source) for c, n in (("r", 1), ("b", 2)) for e in base.edges)
    squares = tuple(
        Square(1, 2, f"{e.id}_r", f"{f.id}_b", f"{e.id}_b", f"{f.id}_r")
        for e in base.edges for f in base.edges if f.range == e.source
    )
    return KGraph(2, base.vertices, edges, squares, name=f"{base.name}x2")


def test_row_sum_lattice():
    # constant in-degrees 2 and 4 on one vertex: 2^p1 4^p2 = 1 iff p1 = -2 p2
    edges = tuple(Edge(f"r{i}", 1, "v", "v") for i in range(2)) + tuple(Edge(f"s{j}", 2, "v", "v") for j in range(4))
    squares = tuple(
        Square(1, 2, f"r{i}", f"s{j}", f"s{(2 * j + i) % 4}", f"r{(2 * j + i) // 4}")
        for i in range(2) for j in range(4)
    )
    r2x4 = KGraph(2, ("v",), edges, squares, name="R2x4")
    assert validate_kgraph(r2x4).ok
    assert row_sum_lattice(r2x4) == LatticeBasis.from_rows([(2, -1)], 2)
    assert_matches_box_loop(r2x4)
    # one colour of non-constant in-degree, on a strongly connected graph
    assert row_sum_lattice(scale_base(6)) == LatticeBasis.trivial(1)
    # the same in-degrees without strong connectivity give no bound
    b2_tail = KGraph(1, ("u", "w"), (Edge("e", 1, "u", "u"), Edge("f", 1, "u", "u"), Edge("b", 1, "w", "u")), ())
    assert row_sum_lattice(product_with_Tl(b2_tail, 1)) is None
    # nor do two colours of non-constant in-degree
    doubled = two_coloured_copies(scale_base(6))
    assert validate_kgraph(doubled).ok and is_cofinal(doubled) == Verdict(YES, {"kind": "strongly_connected"})
    assert row_sum_lattice(doubled) is None
    # nor does a graph with a source, which validate_kgraph rejects
    assert row_sum_lattice(KGraph(1, ("u", "w"), (Edge("e", 1, "u", "u"),), ())) is None
    assert_matches_box_loop(doubled, [(2, 2)])

