"""Colored-graph skeleton: normal forms, factorization, infinite tails."""

import os
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
    Square,
    builtin,
    canonical_tail,
    validate_kgraph,
)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    from test_structure import single_vertex_two_graphs
finally:
    sys.path.pop(0)


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
    # composition is memoized; valid calls on the same paths must not let
    # the mismatched pair through afterwards
    lu, lw = g.edge_path("lu"), g.edge_path("lw")
    for e, path in (("lu", lu), ("lw", lw)):
        for _ in range(2):
            assert g.compose(path, path).word == (e, e)
    with pytest.raises(ComposabilityError):
        g.compose(lu, lw)
    with pytest.raises(ComposabilityError):
        g.compose(lw, lu)


def test_factorize_round_trip_t2():
    g = torus2()
    p = g.make_path("v", ["a", "a", "b"])
    head, tail = g.factorize(p, (1, 0))
    assert head.degree == (1, 0)
    assert g.compose(head, tail).word == p.word


def test_factorize_needs_leq_degree():
    g = torus2()
    p = g.make_path("v", ["a"])
    with pytest.raises(ValueError):
        g.factorize(p, (0, 1))
    # factorization is memoized; valid splits of the same path must not let
    # an out-of-range degree through afterwards
    for m in ((0, 0), (1, 0), (1, 0)):
        head, tail = g.factorize(p, m)
        assert g.compose(head, tail) == p
    for bad in ((0, 1), (2, 0), (-1, 0)):
        with pytest.raises(ValueError):
            g.factorize(p, bad)


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
        assert g.count_paths("v", n) == 1
        assert len(g.paths_from("v", n)) == 1


def test_counting_identity_b2():
    # B2 has two loops of the one color: 2^n words of length n
    g = builtin("B2")
    for n in range(4):
        assert g.count_paths("v", (n,)) == 2**n


def test_counting_product_factorizes():
    base = builtin("B2")
    prod = builtin("B2xT1")
    for n in range(3):
        for m in range(3):
            assert prod.count_paths("v", (n, m)) == base.count_paths("v", (n,))


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
    x = canonical_tail(g, lam.source).prepend(lam)
    n = data.draw(st.sampled_from(list(dg.box((3,) * g.k))))
    reps = [
        x,
        EventuallyPeriodicPath(g, x.prefix, g.compose(x.cycle, x.cycle)),
        EventuallyPeriodicPath(g, g.compose(x.prefix, x.cycle), x.cycle),
        x.prepend(g.vertex_path(x.range)),
        x.shift(n).prepend(x.segment_to(n)),
    ]
    keyed = {x: "x"}
    for y in reps:
        assert (y.prefix, y.cycle) == (x.prefix, x.cycle)
        assert y == x and x == y
        assert hash(y) == hash(x)
        assert keyed[y] == "x"
    assert len(set(reps)) == 1


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
