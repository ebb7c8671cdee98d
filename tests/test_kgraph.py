"""Colored-graph skeleton: normal forms, factorization, infinite tails."""

import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktwist import degrees as dg
from ktwist.kgraph import (
    ComposabilityError,
    Edge,
    EventuallyPeriodicPath,
    KGraph,
    Path,
    Square,
    builtin,
    canonical_tail,
    product_with_Tl,
    rotation_walk,
    validate_kgraph,
)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"))
try:
    from period_scale import scale_base
    from test_structure import rank_one_graphs, single_vertex_two_graphs
    from three_graphs import one_vertex_three_graphs, pull_front_split
finally:
    del sys.path[:2]


def torus2():
    return builtin("T2")


def test_builtin_t2_shape():
    g = torus2()
    assert g.k == 2
    assert g.vertices == ("v",)
    assert len(g.edges) == 2
    assert validate_kgraph(g).ok


def test_builtin_products():
    g = builtin("B2xT1")
    assert g.k == 2
    assert validate_kgraph(g).ok
    g3 = builtin("B2xT3")
    assert g3.k == 4
    assert validate_kgraph(g3).ok


def test_builtin_disjoint_two_cycles():
    g = builtin("DISJOINT2")
    assert g.k == 1
    assert len(g.vertices) == 2
    assert validate_kgraph(g).ok


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin("NOPE")


def test_path_normal_form_is_color_sorted():
    g = torus2()
    # compose b (color 2) then a (color 1): normal form puts color 1 first
    p = g.compose(g.edge_path("b"), g.edge_path("a"))
    q = g.compose(g.edge_path("a"), g.edge_path("b"))
    assert p.word == q.word
    assert p.degree == (1, 1)


def test_compose_requires_matching_vertices():
    g = builtin("DISJOINT2")
    with pytest.raises(ComposabilityError):
        g.compose(g.edge_path("lu"), g.edge_path("lw"))
    # valid calls on the same paths must not let the mismatched pair
    # through afterwards
    lu, lw = g.edge_path("lu"), g.edge_path("lw")
    for e, path in (("lu", lu), ("lw", lw)):
        for _ in range(2):
            assert g.compose(path, path).word == (e, e)
    with pytest.raises(ComposabilityError):
        g.compose(lu, lw)
    with pytest.raises(ComposabilityError):
        g.compose(lw, lu)


def test_make_path_names_a_missing_square():
    # an unvalidated graph: two loops of different colours and no square
    g = KGraph(2, ("v",), (Edge("a", 1, "v", "v"), Edge("b", 2, "v", "v")), ())
    assert not validate_kgraph(g).ok
    assert g.make_path("v", ["a", "b"]).word == ("a", "b")
    for word in (["b", "a"], ["a", "b", "a"]):
        with pytest.raises(ComposabilityError, match=r"no square for pair \('b', 'a'\)"):
            g.make_path("v", word)
    with pytest.raises(ComposabilityError, match=r"no square for pair \('b', 'a'\)"):
        g.compose(g.edge_path("b"), g.edge_path("a"))


def test_factorize_round_trip_t2():
    g = torus2()
    p = g.make_path("v", ["a", "a", "b"])
    head, tail = g.factorize(p, (1, 0))
    assert head.degree == (1, 0)
    assert g.compose(head, tail).word == p.word


class CountedDegree(tuple):
    """A degree that counts how often it is iterated over."""

    iterations = 0

    def __iter__(self):
        CountedDegree.iterations += 1
        return super().__iter__()


def test_factorize_needs_leq_degree():
    g = torus2()
    p = g.make_path("v", ["a"])
    bad = ((0, 1), (2, 0), (-1, 0), (1,))
    # the check runs on a memo miss, before the split is kept, so a degree
    # that fails it fails on every call
    for m in bad:
        for _ in range(2):
            with pytest.raises(ValueError):
                g.factorize(p, m)
    # factorization is memoized; valid splits of the same path must not let
    # an out-of-range degree through afterwards
    for m in ((0, 0), (1, 0), (1, 0)):
        head, tail = g.factorize(p, m)
        assert g.compose(head, tail) == p
    for m in bad:
        with pytest.raises(ValueError):
            g.factorize(p, m)
        assert m not in p._splits
    # a hit was checked when it was kept, so its degree is not read again
    CountedDegree.iterations = 0
    assert g.factorize(p, CountedDegree((1, 0))) is g.factorize(p, (1, 0))
    assert CountedDegree.iterations == 0


def test_segment_associativity_b2xt1():
    g = builtin("B2xT1")
    for p in g.paths_from("v", (2, 1)):
        head, tail = g.factorize(p, (1, 0))
        again = g.compose(head, tail)
        assert again.word == p.word
        mid = g.segment(p, (1, 0), (2, 1))
        assert mid.word == tail.word


def test_counting_identity_torus():
    # on T2 there is exactly one path of each degree from the vertex
    g = torus2()
    for n in dg.box((3, 3)):
        assert len(g.paths_from("v", n)) == 1


def test_counting_identity_b2():
    # B2 has two loops of the one color: 2^n words of length n
    g = builtin("B2")
    for n in range(4):
        assert len(g.paths_from("v", (n,))) == 2**n


def test_counting_product_factorizes():
    base = builtin("B2")
    prod = builtin("B2xT1")
    for n in range(3):
        for m in range(3):
            assert len(prod.paths_from("v", (n, m))) == len(base.paths_from("v", (n,)))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("cap", range(6))
def test_total_box_is_the_graded_lex_box(k, cap):
    # each degree of total <= cap once, by total and then lexicographic
    expected = sorted((n for n in dg.box((cap,) * k) if sum(n) <= cap), key=lambda n: (sum(n), n))
    assert list(dg.total_box(k, cap)) == expected


def _three_color_swaps(sigma12: dict, sigma13: dict) -> KGraph:
    """One vertex, loops x1 x2 x3 in color 1, y in color 2, z in color 3.

    Crossing y permutes the color-1 loops by sigma12, crossing z by sigma13.
    """
    edges = tuple(
        [Edge(f"x{i}", 1, "v", "v") for i in (1, 2, 3)]
        + [Edge("y", 2, "v", "v"), Edge("z", 3, "v", "v")]
    )
    squares = tuple(
        [Square(1, 2, f"x{i}", "y", "y", sigma12[f"x{i}"]) for i in (1, 2, 3)]
        + [Square(1, 3, f"x{i}", "z", "z", sigma13[f"x{i}"]) for i in (1, 2, 3)]
        + [Square(2, 3, "y", "z", "z", "y")]
    )
    return KGraph(3, ("v",), edges, squares)


def test_hexagon_failure_detected():
    # commuting swaps across y and z are fine; non-commuting ones cannot
    # close the three-color associativity walk
    swap12 = {"x1": "x2", "x2": "x1", "x3": "x3"}
    ok = _three_color_swaps(swap12, dict(swap12))
    assert validate_kgraph(ok).ok
    swap23 = {"x1": "x1", "x2": "x3", "x3": "x2"}
    bad = _three_color_swaps(swap12, swap23)
    rep = validate_kgraph(bad)
    assert not rep.ok
    assert any("associativity" in p for p in rep.problems)


def test_missing_square_detected():
    e = [Edge("x", 1, "v", "v"), Edge("y", 2, "v", "v")]
    g = KGraph(2, ("v",), tuple(e), ())
    rep = validate_kgraph(g)
    assert not rep.ok


@pytest.mark.parametrize("lacked, text", [
    ([2], "vertex 'w' is not the range of any color-2 edge (source)"),
    ([1, 3], "vertex 'w' is not the range of any color-1 edge, nor of any edge of 1 more color (source)"),
    ([2, 3], "vertex 'w' is not the range of any color-2 edge, nor of any edge of 1 more color (source)"),
])
def test_source_problem_names_the_least_lacking_colour(lacked, text):
    # a loop of each colour at u, and at w a loop of each colour it does not lack
    edges = [Edge(f"{c}{v}", c, v, v) for v in "uw" for c in (1, 2, 3) if v == "u" or c not in lacked]
    g = KGraph(3, ("u", "w"), tuple(edges), ())
    assert validate_kgraph(g).problems == (text,)


def reference_source_problems(g: KGraph) -> list[str]:
    """The source rule asked once per (vertex, colour): the reference for
    `validate_kgraph`, which reads the colours at each vertex off the edges."""
    problems = []
    for v in g.vertices:
        lacked = [c for c in range(1, g.k + 1) if not g.in_edges(v, c)]
        if len(lacked) == 1:
            problems.append(f"vertex {v!r} is not the range of any color-{lacked[0]} edge (source)")
        elif lacked:
            more = len(lacked) - 1
            problems.append(f"vertex {v!r} is not the range of any color-{lacked[0]} edge, "
                            f"nor of any edge of {more} more color{'s' if more > 1 else ''} (source)")
    return problems


def _assert_source_problems_as_reference(g: KGraph) -> None:
    want = reference_source_problems(g)
    problems = validate_kgraph(g).problems
    if want:
        assert problems == tuple(want)
    else:
        assert not any(p.endswith("(source)") for p in problems)


def test_source_problems_of_a_wide_graph_equal_the_reference():
    # 600 colours, a loop of each at v0 and 599 vertices that are the range of no edge
    k = 600
    edges = tuple(Edge(f"e{c}", c, "v0", "v0") for c in range(1, k + 1))
    _assert_source_problems_as_reference(KGraph(k, tuple(f"v{i}" for i in range(k)), edges, ()))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5), st.data())
def test_source_problems_equal_the_reference(k, n, data):
    vertices = tuple(f"v{i}" for i in range(n))
    ends = st.sampled_from(vertices)
    drawn = data.draw(st.lists(st.tuples(st.integers(min_value=1, max_value=k), ends, ends), max_size=3 * k))
    edges = tuple(Edge(f"e{i}", c, r, s) for i, (c, r, s) in enumerate(drawn))
    _assert_source_problems_as_reference(KGraph(k, vertices, edges, ()))


def reference_colour_pair_problems(g: KGraph) -> list[str]:
    """The square-table checks of `validate_kgraph` with each colour pair
    scanning every square for its own: the reference for the check, which
    sorts the squares by colour pair once."""
    by_color = {c: [e for e in g.edges if e.color == c] for c in range(1, g.k + 1)}
    problems = []
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
    return problems


def _assert_colour_pair_problems_as_reference(g: KGraph) -> tuple[str, ...]:
    problems = validate_kgraph(g).problems
    # the graph reached the square-table stage: every earlier check passed
    assert all(p.startswith(("colors (", "associativity")) for p in problems), problems
    assert [p for p in problems if p.startswith("colors (")] == reference_colour_pair_problems(g)
    return problems


def _torus(k: int, squares=None) -> KGraph:
    """T_k built in process: one loop of each colour, the identity squares."""
    edges = tuple(Edge(f"e{c}", c, "v", "v") for c in range(1, k + 1))
    if squares is None:
        squares = [Square(i, j, f"e{i}", f"e{j}", f"e{j}", f"e{i}") for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    return KGraph(k, ("v",), edges, tuple(squares))


@pytest.mark.parametrize("k", range(1, 9))
def test_colour_pair_problems_of_the_tori_equal_the_reference(k):
    assert _assert_colour_pair_problems_as_reference(builtin(f"T{k}")) == ()


def test_colour_pair_problems_of_a_wide_torus_equal_the_reference():
    assert _assert_colour_pair_problems_as_reference(_torus(60)) == ()


def test_duplicated_and_missing_squares_give_the_reference_problems():
    squares = [Square(i, j, f"e{i}", f"e{j}", f"e{j}", f"e{i}") for i in range(1, 5) for j in range(i + 1, 5)]
    twice = _assert_colour_pair_problems_as_reference(_torus(4, squares + [squares[3]]))
    assert twice == ("colors (2,3): duplicate square entries",)
    gone = _assert_colour_pair_problems_as_reference(_torus(4, squares[:2] + squares[3:]))
    assert gone == ("colors (1,4): square table not total, missing pair (e1,e4)",)


@st.composite
def graphs_with_drawn_squares(draw):
    """Two or three colours on one to three vertices, each vertex the range
    of an edge of every colour, plus extra edges.  For each colour pair the
    squares are drawn over its composable pairs, some left out and some
    drawn twice, each with an output of matching ends, so the graph reaches
    the square-table checks."""
    k, n = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    vs = tuple(f"v{i}" for i in range(n))
    pick = st.sampled_from(vs)
    ends = [(c, v, draw(pick)) for v in vs for c in range(1, k + 1)]
    ends += draw(st.lists(st.tuples(st.integers(1, k), pick, pick), max_size=3))
    edges = tuple(Edge(f"e{t}", c, r, s) for t, (c, r, s) in enumerate(ends))
    squares = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            ins = [(f, h) for f in edges for h in edges if (f.color, h.color) == (i, j) and f.source == h.range]
            outs = [(h, f) for h in edges for f in edges if (h.color, f.color) == (j, i) and h.source == f.range]
            for f, h in draw(st.lists(st.sampled_from(ins), max_size=len(ins) + 1)):
                fits = [(hp, fp) for hp, fp in outs if hp.range == f.range and fp.source == h.source]
                if fits:
                    hp, fp = draw(st.sampled_from(fits))
                    squares.append(Square(i, j, f.id, h.id, hp.id, fp.id))
    return KGraph(k, vs, edges, tuple(squares))


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs_with_drawn_squares(), single_vertex_two_graphs()))
def test_colour_pair_problems_equal_the_reference(g):
    _assert_colour_pair_problems_as_reference(g)


def reference_paths_into(g: KGraph, v: str, n) -> list[Path]:
    return [p for w in sorted(g.vertices) for p in g.paths_from(w, n) if p.source == v]


def _assert_paths_into_as_reference(g: KGraph, bound) -> None:
    for n in dg.box(bound):
        for v in g.vertices:
            got = g.paths_into(v, n)
            assert got == reference_paths_into(g, v, n)
            assert g.paths_into(v, n) is got


@pytest.mark.parametrize("name", ["DISJOINT2", "C3xT1", "C3xT2"])
def test_paths_into_equals_the_filtered_paths_from(name):
    g = builtin(name)
    _assert_paths_into_as_reference(g, (2,) * g.k)


@settings(max_examples=40, deadline=None)
@given(st.one_of(rank_one_graphs(), rank_one_graphs().map(lambda g: product_with_Tl(g, 1))))
def test_paths_into_equals_the_filtered_paths_from_on_random_graphs(g):
    _assert_paths_into_as_reference(g, (3,) + (1,) * (g.k - 1))


def test_paths_into_refuses_an_unknown_vertex():
    with pytest.raises(ValueError, match="unknown vertex 'w'"):
        builtin("T2").paths_into("w", (1, 0))


def test_tail_equality_independent_of_presentation():
    g = torus2()
    x = canonical_tail(g, "v")
    # same infinite path but with a longer prefix spelled out
    p = g.make_path("v", ["a", "b"])
    y = EventuallyPeriodicPath(g, p, x.cycle)
    assert x == y


def test_tail_shift_then_segment():
    g = builtin("B2xT1")
    x = canonical_tail(g, "v")
    s = x.shift((2, 1))
    assert s.segment_to((1, 0)).word == x.at((2, 1), (3, 1)).word


@pytest.mark.parametrize("name", ["T2", "B2xT1"])
def test_tail_keeps_its_segments_between_two_degrees(name, monkeypatch):
    g = builtin(name)
    tails = [canonical_tail(g, "v")]
    tails.append(tails[0].prepend(g.paths_from("v", (1,) * g.k)[-1]))
    pairs = [(m, n) for n in dg.box((2,) * g.k) for m in dg.box(n)]
    for x in tails:
        want = {(m, n): g.factorize(x.segment_to(n), m)[1] for m, n in pairs}
        assert {(m, n): x.at(m, n) for m, n in pairs} == want
    calls = []
    split = g._split
    monkeypatch.setattr(g, "_split", lambda p, m: calls.append(m) or split(p, m))
    for x in tails:
        for m, n in pairs:
            assert x.at(m, n) is x.at(m, n)
    assert calls == []


def test_tail_segment_prefix_consistency():
    g = torus2()
    x = canonical_tail(g, "v")
    for n in dg.box((3, 3)):
        seg = x.segment_to(n)
        assert seg.degree == n
        assert seg.range == "v"


def test_tail_prepend():
    g = builtin("B2")
    x = canonical_tail(g, "v")
    p = g.make_path("v", ["f"])
    y = x.prepend(p)
    assert y.segment_to((1,)).word == ("f",)
    assert y.shift((1,)) == x
    assert repr(y) == "EPPath[Path[f];Path[e]^oo]"


def test_cycle_must_be_positive():
    g = builtin("B2xT1")
    with pytest.raises(ValueError):
        EventuallyPeriodicPath(g, g.vertex_path("v"), g.edge_path("e"))


def test_non_diagonal_cycle_is_rejected():
    g = builtin("B2xT1")
    with pytest.raises(ValueError, match=r"cycle degree must be \(r, ..., r\)"):
        EventuallyPeriodicPath(g, g.vertex_path("v"), g.make_path("v", ["e", "f", "t1_v"]))
    x = EventuallyPeriodicPath(g, g.vertex_path("v"), g.make_path("v", ["e", "t1_v", "e", "t1_v"]))
    assert x.cycle.degree == (1, 1)


def test_normal_form_folds_the_prefix_into_a_primitive_cycle():
    g = builtin("B2xT1")
    ef = g.make_path("v", ["e", "t1_v", "f", "t1_v"])
    x = EventuallyPeriodicPath(g, g.compose(g.make_path("v", ["f", "t1_v"]), ef), g.compose(ef, ef))
    # f.t, then (e.t f.t) repeated, is (f.t e.t) repeated from the start
    assert (x.prefix, x.cycle) == (g.vertex_path("v"), g.make_path("v", ["f", "t1_v", "e", "t1_v"]))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
def test_factorize_compose_round_trip_property(a, b, c, d):
    g = builtin("B2xT1")
    n = (a + c, b + d)
    for p in g.paths_from("v", n)[:6]:
        head, tail = g.factorize(p, (a, b))
        assert head.degree == (a, b)
        assert tail.degree == (c, d)
        assert g.compose(head, tail).word == p.word


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
def test_tail_shift_additivity(a, b, c, d):
    g = torus2()
    x = canonical_tail(g, "v")
    assert x.shift((a, b)).shift((c, d)) == x.shift((a + c, b + d))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["T2", "B2", "B2xT1", "C3xT1"]), st.data())
def test_tail_hash_agrees_across_representations(name, data):
    g = builtin(name)
    v = data.draw(st.sampled_from(g.vertices))
    m = data.draw(st.sampled_from(list(dg.box((2,) * g.k))))
    lam = data.draw(st.sampled_from(g.paths_from(v, m)))
    z = canonical_tail(g, lam.source)
    x = z.prepend(lam)
    n = data.draw(st.sampled_from(list(dg.box((3,) * g.k))))
    head, tail = g.factorize(lam, data.draw(st.sampled_from(list(dg.box(m)))))
    f = g.edge_path(data.draw(st.sampled_from([e.id for e in g.edges if e.source == v])))
    reps = [
        x,
        EventuallyPeriodicPath(g, x.prefix, g.compose(x.cycle, x.cycle)),
        EventuallyPeriodicPath(g, g.compose(x.prefix, x.cycle), x.cycle),
        EventuallyPeriodicPath(g, g.compose(lam, z.prefix), z.cycle),
        x.prepend(g.vertex_path(x.range)),
        x.shift(n).prepend(x.segment_to(n)),
        z.prepend(tail).prepend(head),
        x.prepend(f).shift(f.degree),
    ]
    keyed = {x: "x"}
    for y in reps:
        assert (y.prefix, y.cycle) == (x.prefix, x.cycle)
        assert y == x and x == y
        # the constructor, shift and prepend all hand out the graph's one
        # object for the value
        assert y is x
        assert keyed[y] == "x"
    assert len(set(reps)) == 1


GRAPHS = st.one_of(st.sampled_from(["B2", "T2", "B2xT1", "C3xT2", "B2xT3"]).map(builtin), single_vertex_two_graphs())


@settings(max_examples=60, deadline=None)
@given(GRAPHS, st.data())
def test_equal_paths_hash_alike_by_every_route(g, data):
    # a path is the graph's one object for its fields, so every route to an
    # equal path must give back that object
    v = data.draw(st.sampled_from(g.vertices))
    n = data.draw(st.sampled_from(list(dg.box((2,) * g.k))))
    p = data.draw(st.sampled_from(g.paths_from(v, n)))
    head, tail = g.factorize(p, data.draw(st.sampled_from(list(dg.box(n)))))
    e = data.draw(st.sampled_from([e.id for c in range(1, g.k + 1) for e in g.in_edges(p.source, c)]))
    paths = [
        p,
        Path(g, p.range, p.source, p.degree, p.word),
        g.make_path(v, p.word),
        g.make_path(v, head.word + tail.word),
        g.compose(head, tail),
        g.factorize(g.compose(p, g.edge_path(e)), n)[0],
    ]
    for q in paths:
        assert q is p
    assert g.factorize(p, dg.zero(g.k))[0] is g.vertex_path(v)
    assert g.factorize(g.compose(p, g.edge_path(e)), n)[1] is g.edge_path(e)


def assert_splits_match_pull_front(g: KGraph, bound) -> None:
    """Every split of every path of degree at most `bound`, against the
    scanning reference, on a copy of g whose paths keep no split yet."""
    g = KGraph(g.k, g.vertices, g.edges, g.squares, name=g.name)
    for v in g.vertices:
        for n in dg.box(bound):
            for p in g.paths_from(v, n):
                for m in dg.box(n):
                    head, tail = g.factorize(p, m)
                    assert (head.word, tail.word) == pull_front_split(g, p, m)
                    assert head.degree == m
                    assert g.compose(head, tail) is p


@settings(max_examples=24, deadline=None)
@given(st.integers(0, 751))
def test_split_by_block_index_matches_pull_front_on_one_vertex_3_graphs(i):
    assert_splits_match_pull_front(one_vertex_three_graphs()[i], (2, 2, 2))


@pytest.mark.parametrize("name, bound", [("C3xT2", (3, 2, 2)), ("B2xT3", (2, 2, 2, 2))])
def test_split_by_block_index_matches_pull_front(name, bound):
    assert_splits_match_pull_front(builtin(name), bound)


def _bubble_normalize(g, word):
    """The normal form by bubble sort: swap any adjacent pair out of colour
    order through the square tables until no such pair is left."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for t in range(len(w) - 1):
            if g.edge(w[t]).color > g.edge(w[t + 1]).color:
                w[t], w[t + 1] = g._inv[(w[t], w[t + 1])]
                changed = True
    return tuple(w)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(["B2xT3", "C3xT2"]).map(builtin), single_vertex_two_graphs()), st.data())
def test_normal_form_agrees_with_bubble_sort(g, data):
    # a composable word in any colour order; by unique factorization the
    # insertion pass and the bubble sort reach the same normal form (B2xT3
    # has four colours, so the hexagon condition is in play)
    v = cur = data.draw(st.sampled_from(g.vertices))
    word = []
    for _ in range(data.draw(st.integers(0, 7))):
        e = data.draw(st.sampled_from([e for c in range(1, g.k + 1) for e in g.in_edges(cur, c)]))
        word.append(e.id)
        cur = e.source
    p = g.make_path(v, word)
    assert p.word == _bubble_normalize(g, word)
    assert [g.edge(e).color for e in p.word] == sorted(g.edge(e).color for e in word)
    cut = data.draw(st.integers(0, len(word)))
    mid = g.edge(word[cut - 1]).source if cut else v
    head, tail = g.make_path(v, word[:cut]), g.make_path(mid, word[cut:])
    assert g.compose(head, tail) == p
    assert g.compose(head, tail).word == _bubble_normalize(g, head.word + tail.word)


def _fresh_shift(g, x, n):
    """T^n x built from x's pair, past the graph's table of shifts."""
    return EventuallyPeriodicPath(g, g.factorize(_unrolled(g, x.prefix, x.cycle, n), n)[1], x.cycle)


@settings(max_examples=60, deadline=None)
@given(GRAPHS, st.data())
def test_kept_shifts_and_prepends_equal_fresh_tails(g, data):
    # several tails on one graph, some with one prefix and different cycles,
    # so the table can only serve a result to an equal tail and argument
    diag = (1,) * g.k
    tails = [canonical_tail(g, v) for v in g.vertices]
    tails += [
        EventuallyPeriodicPath(g, g.vertex_path(v), c)
        for v in g.vertices
        for c in g.paths_from(v, diag)
        if c.source == v
    ]
    for _ in range(8):
        x = data.draw(st.sampled_from(tails))
        m = data.draw(st.sampled_from(list(dg.box((2,) * g.k))))
        if data.draw(st.booleans()):
            kept, fresh = x.shift(m), _fresh_shift(g, x, m)
            assert x.shift(m) is kept
        else:
            lam = data.draw(st.sampled_from([q for w in g.vertices for q in g.paths_from(w, m) if q.source == x.range]))
            kept, fresh = x.prepend(lam), EventuallyPeriodicPath(g, g.compose(lam, x.prefix), x.cycle)
            assert x.prepend(lam) is kept
        assert kept == fresh
        assert (kept.prefix, kept.cycle) == (fresh.prefix, fresh.cycle)
        tails.append(kept)
    for x in tails:
        assert_step_form_matches_reference(g, x, lambda xs: data.draw(st.sampled_from(xs)))


def test_tail_hash_tells_different_tails_apart():
    g = builtin("B2")
    x = canonical_tail(g, "v")
    y = x.prepend(g.edge_path("f"))
    assert x != y
    assert {x: 1, y: 2}[y] == 2


# --- the normal form against the segment rule it replaced ---------------------


def _unrolled(g, prefix, cycle, n):
    """prefix.cycle...cycle with the fewest cycles that reach degree n."""
    out = prefix
    while not dg.leq(n, out.degree):
        out = g.compose(out, cycle)
    return out


def _segment(g, prefix, cycle, n):
    """x(0, n) for x = prefix.cycle.cycle..., from the pair as given."""
    return g.factorize(_unrolled(g, prefix, cycle, n), n)[0]


def _same_tail(g, a, b):
    """Equality of prefix.cycle^oo by segments up to join(prefix degrees) + both cycle degrees."""
    (pa, ca), (pb, cb) = a, b
    if pa.range != pb.range:
        return False
    n = dg.add(dg.join(pa.degree, pb.degree), dg.add(ca.degree, cb.degree))
    return _segment(g, pa, ca, n) == _segment(g, pb, cb, n)


def _draw_tail(data, g):
    """A tail built by prepend/shift, and the same tail as a pair not in normal form."""
    x = canonical_tail(g, data.draw(st.sampled_from(g.vertices)))
    raw = (x.prefix, x.cycle)
    for op in data.draw(st.lists(st.sampled_from(["prepend", "shift"]), min_size=1, max_size=3)):
        m = data.draw(st.sampled_from(list(dg.box((1,) * g.k))))
        if op == "prepend":
            lams = [p for w in g.vertices for p in g.paths_from(w, m) if p.source == x.range]
            lam = data.draw(st.sampled_from(lams))
            x, raw = x.prepend(lam), (g.compose(lam, raw[0]), raw[1])
        else:
            x, raw = x.shift(m), (g.factorize(_unrolled(g, *raw, m), m)[1], raw[1])
    return x, raw


def _same_tail_spelled_out(data, g, raw):
    """raw with its cycle repeated, unrolled into the prefix, or both."""
    prefix, cycle = raw
    if data.draw(st.booleans()):
        prefix = g.compose(prefix, cycle)
    if data.draw(st.booleans()):
        cycle = g.compose(cycle, cycle)
    return prefix, cycle


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.sampled_from(["T2", "B2xT1", "C3xT2", "B2xT3"]).map(builtin), single_vertex_two_graphs()),
       st.data())
def test_structural_equality_matches_the_segment_rule(g, data):
    x, a = _draw_tail(data, g)
    if data.draw(st.booleans()):
        b = _same_tail_spelled_out(data, g, a)
        y = EventuallyPeriodicPath(g, *b)
    else:
        y, b = _draw_tail(data, g)
    assert x == EventuallyPeriodicPath(g, *a)
    assert y == EventuallyPeriodicPath(g, *b)
    assert (x == y) == _same_tail(g, a, b)
    if x == y:
        assert hash(x) == hash(y)
        assert (x.prefix, x.cycle) == (y.prefix, y.cycle)


# --- the step form against the (prefix, cycle) route it replaced -------------


def _normal_pair(g, prefix, cycle):
    """The (prefix, cycle) of prefix.cycle^oo at the least r, then the least
    s, by the earlier constructor's route: unroll to degree (s + r)D with
    s = max(d(prefix)), split off s + r diagonal steps and compare them."""
    diag, r, s = (1,) * g.k, cycle.degree[0], max(prefix.degree)
    whole = _unrolled(g, prefix, cycle, dg.scale(s + r, diag))
    steps, rest = [], whole
    for _ in range(s + r):
        step, rest = g.factorize(rest, diag)
        steps.append(step)
    cyc = steps[s:]
    r = next(d for d in range(1, r + 1) if r % d == 0 and cyc[d:] == cyc[:-d])
    while s and steps[s - 1] is steps[s - 1 + r]:
        s -= 1
    head, rest = g.factorize(whole, dg.scale(s, diag))
    return head, g.factorize(rest, dg.scale(r, diag))[0]


def _reference_tail(g, v):
    """The canonical tail at v from the whole rotation walk, as the pair of
    its two normalised words."""
    head, loop = rotation_walk(g, v)
    return g.make_path(v, head), g.make_path(g.edge(loop[0]).range, loop)


def assert_is_reference(g, y, raw):
    """y is the path prefix.cycle^oo of the pair raw, in the reference's normal form."""
    assert y is EventuallyPeriodicPath(g, *raw)
    assert (y.prefix, y.cycle) == _normal_pair(g, *raw)
    assert (y.s, y.r) == (max(y.prefix.degree), y.cycle.degree[0])


def assert_step_form_matches_reference(g, x, pick, bound=2):
    """shift, prepend, segment_to and at on x, each against the same
    operation on x's pair through `_unrolled`, `compose` and `factorize`;
    pick(choices) chooses the degrees and paths.  One shift goes past the
    cycle, so the steps are rotated as well as dropped."""
    raw = (x.prefix, x.cycle)
    assert_is_reference(g, x, raw)
    far = dg.add(dg.scale(x.s + x.r, (1,) * g.k), dg.unit(g.k, 1))
    for m in [far] + [pick(list(dg.box((bound,) * g.k))) for _ in range(2)]:
        assert_is_reference(g, x.shift(m), (g.factorize(_unrolled(g, *raw, m), m)[1], raw[1]))
        lams = [q for w in g.vertices for q in g.paths_from(w, m) if q.source == x.range] if m is not far else []
        if lams:
            lam = pick(lams)
            assert_is_reference(g, x.prepend(lam), (g.compose(lam, raw[0]), raw[1]))
        n = pick(list(dg.box(m)))
        assert x.segment_to(m) is _segment(g, *raw, m)
        assert x.at(n, m) is g.factorize(_segment(g, *raw, m), n)[1]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 751), st.data())
def test_step_form_matches_reference_on_one_vertex_3_graphs(i, data):
    g = one_vertex_three_graphs()[i]
    pick = lambda xs: data.draw(st.sampled_from(xs))  # noqa: E731
    assert_step_form_matches_reference(g, canonical_tail(g, "v"), pick, bound=1)
    x = EventuallyPeriodicPath(g, g.vertex_path("v"), pick(g.paths_from("v", (1, 1, 1))))
    assert_step_form_matches_reference(g, x, pick, bound=1)


def tadpole(l):
    """v0 <- v1 <-> v2 in colour 1, times T_l: the rotation walk from v0
    takes one edge before its closed word, so for l > 0 the first diagonal
    step holds an edge of the walk's head and one of its closed word."""
    edges = (Edge("a", 1, "v0", "v1"), Edge("b", 1, "v1", "v2"), Edge("c", 1, "v2", "v1"))
    return product_with_Tl(KGraph(1, ("v0", "v1", "v2"), edges, (), name="P3"), l)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["C3xT2", "P3xT1", "P3xT2"]), st.data())
def test_step_form_matches_reference_on_multi_vertex_products(name, data):
    g = builtin(name) if name[0] == "C" else tadpole(int(name[-1]))
    v = data.draw(st.sampled_from(g.vertices))
    lam = data.draw(st.sampled_from(g.paths_from(v, (2,) + (1,) * (g.k - 1))))
    for x in (canonical_tail(g, v), canonical_tail(g, lam.source).prepend(lam)):
        assert_step_form_matches_reference(g, x, lambda xs: data.draw(st.sampled_from(xs)))


@pytest.mark.parametrize("n", [10, 50, 200])
def test_step_form_matches_reference_on_the_scale_family(n):
    g = product_with_Tl(scale_base(n), 1)
    rng = random.Random(n)
    for v in (g.vertices[0], g.vertices[n // 2]):
        assert_step_form_matches_reference(g, canonical_tail(g, v), rng.choice)


BUILTINS = ["T1", "T2", "T3", "T4", "B2", "B3", "C1", "C3", "DISJOINT2", "B2xT1", "B2xT3", "C3xT1", "C3xT2", "T2xT1"]


@pytest.mark.parametrize("g", [builtin(name) for name in BUILTINS] + [tadpole(l) for l in range(3)]
                         + [product_with_Tl(scale_base(n), 1) for n in (10, 50, 200)],
                         ids=BUILTINS + ["P3", "P3xT1", "P3xT2", "R10xT1", "R50xT1", "R200xT1"])
def test_canonical_tail_is_the_reference_walk(g):
    # about five vertices of a scale graph, whose walks are long
    for v in g.vertices[::max(1, len(g.vertices) // 5)]:
        assert_is_reference(g, canonical_tail(g, v), _reference_tail(g, v))
