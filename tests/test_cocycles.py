"""Twisting cocycle specs: values, normalization, the 2-term identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktwist import degrees as dg
from ktwist.cocycles import (
    BicharacterTable,
    CocycleDomainError,
    OneCocyclePhi,
    PhiOmegaCocycle,
    PullbackCocycle,
    TableCocycle,
    cocycle_value,
    phi_tilde,
    validate_cocycle,
    validate_phi,
    validate_product_split,
)
from ktwist.kgraph import Edge, KGraph, Square, builtin
from ktwist.phases import PhaseExponent, phase_is_trivial

Z = PhaseExponent.of
zero = PhaseExponent.zero()
theta = Z(0, theta=1)


def theta_pullback():
    return PullbackCocycle(((zero, zero), (theta, zero)))


def b2xt1_phi(f_phase):
    g = builtin("B2xT1")
    phi = OneCocyclePhi(1, {e.id: ((f_phase if e.id == "f" else zero),) for e in g.edges})
    return g, PhiOmegaCocycle(1, phi, BicharacterTable.zero(1))


def test_pullback_value_depends_only_on_degrees():
    g = builtin("T2")
    c = theta_pullback()
    a = g.make_path("v", ["a"])
    b = g.make_path("v", ["b"])
    # color-2 path before color-1 path picks up theta, the reverse does not
    assert cocycle_value(c, b, a).coeff("theta") == 1
    assert cocycle_value(c, a, b).coeff("theta") == 0
    ab = g.make_path("v", ["a", "b"])
    assert cocycle_value(c, ab, ab).coeff("theta") == 1


def test_pullback_bilinear_in_degrees():
    g = builtin("T2")
    c = theta_pullback()
    b2 = g.make_path("v", ["b", "b"])
    a3 = g.make_path("v", ["a", "a", "a"])
    assert cocycle_value(c, b2, a3).coeff("theta") == 6


def test_value_on_vertices_is_trivial():
    g = builtin("T2")
    c = theta_pullback()
    vp = g.vertex_path("v")
    a = g.edge_path("a")
    assert phase_is_trivial(cocycle_value(c, vp, a))
    assert phase_is_trivial(cocycle_value(c, a, vp))


def test_value_requires_composability():
    g = builtin("DISJOINT2")
    c = PullbackCocycle(((zero,),))
    with pytest.raises(CocycleDomainError):
        cocycle_value(c, g.edge_path("lu"), g.edge_path("lw"))


def test_phi_omega_value_uses_edge_phases():
    g, c = b2xt1_phi(theta)
    t = g.edge_path("t1_v")
    f = g.edge_path("f")
    # torus degree of t is 1; phi(f) = theta
    got = cocycle_value(c, t, f)
    assert got.coeff("theta") == 1
    assert cocycle_value(c, f, t).coeff("theta") == 0


def test_phi_tilde_examples():
    g = builtin("B2")
    phi = OneCocyclePhi(1, {"e": (zero,), "f": (theta,)})
    e = g.edge_path("e")
    f = g.edge_path("f")
    assert phi_tilde(phi, f, e)[0].coeff("theta") == 1
    assert all(x.is_trivial() for x in phi_tilde(phi, e, e))
    ef = g.make_path("v", ["e", "f"])
    fe = g.make_path("v", ["f", "e"])
    assert all(x.is_trivial() for x in phi_tilde(phi, ef, fe))


def test_phi_tilde_needs_common_source():
    g = builtin("DISJOINT2")
    phi = OneCocyclePhi(1, {"lu": (zero,), "lw": (zero,)})
    with pytest.raises(ValueError):
        phi_tilde(phi, g.edge_path("lu"), g.edge_path("lw"))


def test_validate_phi_on_b2_trivially_passes():
    g = builtin("B2")
    phi = OneCocyclePhi(1, {"e": (zero,), "f": (theta,)})
    assert validate_phi(phi, g).ok


def test_validate_phi_square_compatibility():
    # one vertex, two loops per color, squares crossing y swap the x loops,
    # so phi must give both x loops the same value
    edges = (
        Edge("x1", 1, "v", "v"),
        Edge("x2", 1, "v", "v"),
        Edge("y1", 2, "v", "v"),
        Edge("y2", 2, "v", "v"),
    )
    squares = (
        Square(1, 2, "x1", "y1", "y1", "x2"),
        Square(1, 2, "x2", "y1", "y1", "x1"),
        Square(1, 2, "x1", "y2", "y2", "x2"),
        Square(1, 2, "x2", "y2", "y2", "x1"),
    )
    g = KGraph(2, ("v",), edges, squares)
    from ktwist.kgraph import validate_kgraph

    assert validate_kgraph(g).ok
    good = OneCocyclePhi(1, {"x1": (theta,), "x2": (theta,), "y1": (zero,), "y2": (zero,)})
    assert validate_phi(good, g).ok
    bad = OneCocyclePhi(1, {"x1": (theta,), "x2": (zero,), "y1": (zero,), "y2": (zero,)})
    rep = validate_phi(bad, g)
    assert not rep.ok


def test_validate_product_split():
    assert validate_product_split(builtin("B2xT1"), 1).ok
    assert validate_product_split(builtin("B2xT3"), 3).ok
    assert not validate_product_split(builtin("B2"), 1).ok or builtin("B2").k == 1
    # T2 is its own torus: both colors qualify
    assert validate_product_split(builtin("T2"), 2).ok


def test_validate_cocycle_pullback_t2():
    g = builtin("T2")
    assert validate_cocycle(theta_pullback(), g, 3).ok


def test_validate_cocycle_phi_omega_b2xt1():
    g, c = b2xt1_phi(theta)
    assert validate_cocycle(c, g, 3).ok


def t2_table_entries(base, bound):
    """Every composable pair of T2 with both degrees in the box up to bound."""
    g = builtin("T2")
    entries = []
    for m in dg.box(bound):
        for mu in g.paths_from("v", m):
            for n in dg.box(bound):
                for nu in g.paths_from(mu.source, n):
                    entries.append(
                        ((mu.range, mu.word), (nu.range, nu.word), cocycle_value(base, mu, nu))
                    )
    return entries


def corrupted_t2_table(bound) -> TableCocycle:
    """The theta pullback table of T2 to bound, with the (a, b) entry off by 1/3."""
    entries = [
        (mu, nu, val + Z(Fraction(1, 3)) if (mu[1], nu[1]) == (("a",), ("b",)) else val)
        for mu, nu, val in t2_table_entries(theta_pullback(), bound)
    ]
    return TableCocycle(bound, tuple(entries))


def test_validate_cocycle_corrupted_table_names_the_triple():
    g = builtin("T2")
    bound = (2, 2)
    entries = t2_table_entries(theta_pullback(), bound)
    table = TableCocycle(bound, tuple(entries))
    assert validate_cocycle(table, g, 3).ok
    # corrupt one edge-edge entry; only a genuine three-factor product can
    # see it, since vertex-padded triples use the same entry on both sides
    bad_entries = []
    poisoned = False
    for a, b, val in entries:
        if not poisoned and len(a[1]) == 1 and len(b[1]) == 1:
            bad_entries.append((a, b, val + Z(Fraction(1, 3))))
            poisoned = True
        else:
            bad_entries.append((a, b, val))
    assert poisoned
    rep = validate_cocycle(TableCocycle(bound, tuple(bad_entries)), g, 3)
    assert not rep.ok
    assert any("identity fails" in p or "fails at" in p for p in rep.problems)


def test_cocycle_identity_direct_small():
    # the defining identity at depth 2 for the theta pullback on T2
    g = builtin("T2")
    c = theta_pullback()
    paths = [p for n in dg.box((1, 1)) for p in g.paths_from("v", n)]
    for lam in paths:
        for mu in paths:
            for nu in paths:
                lhs = cocycle_value(c, lam, mu) + cocycle_value(c, g.compose(lam, mu), nu)
                rhs = cocycle_value(c, mu, nu) + cocycle_value(c, lam, g.compose(mu, nu))
                assert phase_is_trivial(lhs - rhs)


def test_missing_table_pair_is_reported_once():
    g = builtin("T2")
    bound = (2, 2)
    b = (g.edge_path("b").range, g.edge_path("b").word)
    entries = [e for e in t2_table_entries(theta_pullback(), bound) if (e[0], e[1]) != (b, b)]
    rep = validate_cocycle(TableCocycle(bound, tuple(entries)), g, 3)
    assert rep.problems.count("table does not cover the pair (b, b)") == 1


def test_table_duplicate_pair_first_entry_wins():
    g = builtin("T2")
    a, b = g.edge_path("a"), g.edge_path("b")
    key_a, key_b = (a.range, a.word), (b.range, b.word)
    first, second = Z(Fraction(1, 3)), Z(Fraction(2, 3))
    table = TableCocycle((1, 1), ((key_a, key_b, first), (key_a, key_b, second)))
    assert cocycle_value(table, a, b) == first
    assert len(table.entries) == 2


def reference_problems(c, g, depth, once=False):
    """validate_cocycle's problems by a plain loop: four cocycle_value calls
    per triple, triples filtered by total degree.  With `once`, each pair is
    valued once and its domain error reported where it is first used, but
    (lam, mu) is still asked for inside the nu loop."""
    problems = []
    by_range = {v: [p for n in dg.total_box(g.k, depth) for p in g.paths_from(v, n)]
                for v in g.vertices}
    seen = {}

    def val(mu, nu):
        if once and (mu, nu) in seen:
            return seen[(mu, nu)]
        try:
            x = cocycle_value(c, mu, nu)
        except CocycleDomainError as err:
            problems.append(str(err))
            x = None
        seen[(mu, nu)] = x
        return x

    for v in g.vertices:
        for lam in by_range[v]:
            left = val(lam, g.vertex_path(lam.source))
            right = val(g.vertex_path(lam.range), lam)
            for x, side in ((left, "right unit"), (right, "left unit")):
                if x is not None and not phase_is_trivial(x):
                    problems.append(f"normalization fails at {lam!r} ({side})")
    for v in g.vertices:
        for lam in by_range[v]:
            for mu in by_range[lam.source]:
                for nu in by_range[mu.source]:
                    if dg.total(lam.degree) + dg.total(mu.degree) + dg.total(nu.degree) > depth:
                        continue
                    a = val(mu, nu)
                    b = val(lam, g.compose(mu, nu))
                    cc = val(lam, mu)
                    d = val(g.compose(lam, mu), nu)
                    if None in (a, b, cc, d):
                        continue
                    if not phase_is_trivial((a + b) - (cc + d)):
                        problems.append(
                            f"cocycle identity fails on triple ({lam!r}, {mu!r}, {nu!r})"
                        )
    return problems


DIFF_BOUND, DIFF_DEPTH = (3, 3), 4
# entries validate_cocycle reads at DIFF_DEPTH: both sides edges or longer
DIFF_READ = [i for i, (mu, nu, _) in enumerate(t2_table_entries(theta_pullback(), DIFF_BOUND))
             if mu[1] and nu[1] and len(mu[1]) + len(nu[1]) <= DIFF_DEPTH]
rationals = st.builds(lambda q, n: Fraction(n % q, q), st.integers(2, 6), st.integers(0, 5))
phases = st.builds(lambda r, t: Z(r, theta=t), rationals, st.integers(-2, 2))
non_integers = st.integers(2, 6).flatmap(
    lambda q: st.builds(lambda n: Fraction(n, q), st.integers(1, q - 1)))


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(phases, min_size=4, max_size=4),
    pick=st.sampled_from(DIFF_READ),
    shift=non_integers,
)
@example(rows=[zero, zero, theta, zero], pick=DIFF_READ[0], shift=Fraction(1, 3))
def test_validate_cocycle_matches_plain_loop(rows, pick, shift):
    g = builtin("T2")
    base = PullbackCocycle((tuple(rows[:2]), tuple(rows[2:])))
    entries = t2_table_entries(base, DIFF_BOUND)
    mu, nu, v = entries[pick]
    entries[pick] = (mu, nu, v + Z(shift))
    table = TableCocycle(DIFF_BOUND, tuple(entries))
    want = reference_problems(table, g, DIFF_DEPTH)
    assert want
    assert list(validate_cocycle(table, g, DIFF_DEPTH).problems) == want


@pytest.mark.parametrize("seed", range(4))
def test_validate_cocycle_problem_order_with_missing_pairs(seed):
    # validate_cocycle values (lam, mu) once per pair, outside the nu loop;
    # the problems, missing pairs and failing triples interleaved, must come
    # in the order of the loop that asks for (lam, mu) with every nu
    g = builtin("T2")
    rng = random.Random(seed)
    entries = [(mu, nu, v) for mu, nu, v in corrupted_t2_table((3, 3)).entries
               if (mu[1], nu[1]) == (("a",), ("b",)) or rng.random() > 0.15]
    table = TableCocycle((3, 3), tuple(entries))
    want = reference_problems(table, g, 4, once=True)
    assert any("does not cover" in p for p in want)
    assert any("identity fails" in p for p in want)
    assert list(validate_cocycle(table, g, 4).problems) == want
