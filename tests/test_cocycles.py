"""Twisting cocycle specs: values, normalization, the 2-term identity."""

import dataclasses
import os
import random
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktwist import cocycles
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
from ktwist.kgraph import (
    Edge,
    KGraph,
    Square,
    builtin,
    product_with_Tl,
    validate_kgraph,
)
from ktwist.phases import PhaseExponent

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    from phase_triples import table_check
    from test_structure import single_vertex_two_graphs
finally:
    sys.path.pop(0)

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
    assert cocycle_value(c, vp, a).is_trivial()
    assert cocycle_value(c, a, vp).is_trivial()


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


def test_one_cocycle_rebuilt_from_its_own_entries_is_equal():
    phi = OneCocyclePhi(1, {"f": (theta,), "e": (zero,)})
    assert phi.entries == (("e", (zero,)), ("f", (theta,)))
    for rebuilt in (OneCocyclePhi(1, phi.entries), OneCocyclePhi(1, phi.entries[::-1]), dataclasses.replace(phi)):
        assert rebuilt == phi
        assert rebuilt.entries == phi.entries
        assert [rebuilt.edge_value(e) for e in "ef"] == [(zero,), (theta,)]


def test_phi_tilde_needs_common_source():
    g = builtin("DISJOINT2")
    phi = OneCocyclePhi(1, {"lu": (zero,), "lw": (zero,)})
    with pytest.raises(ValueError):
        phi_tilde(phi, g.edge_path("lu"), g.edge_path("lw"))


def test_validate_phi_on_b2_trivially_passes():
    g = builtin("B2")
    phi = OneCocyclePhi(1, {"e": (zero,), "f": (theta,)})
    assert validate_phi(phi, g).ok


def swapped_loops():
    """One vertex, loops x1, x2 of colour 1 and y1, y2 of colour 2; each y
    swaps the x loops, so phi must give x1 and x2 the same value."""
    edges = (Edge("x1", 1, "v", "v"), Edge("x2", 1, "v", "v"),
             Edge("y1", 2, "v", "v"), Edge("y2", 2, "v", "v"))
    squares = tuple(Square(1, 2, f, h, h, fp) for h in ("y1", "y2")
                    for f, fp in (("x1", "x2"), ("x2", "x1")))
    return KGraph(2, ("v",), edges, squares, name="SWAP")


def test_validate_phi_square_compatibility():
    g = swapped_loops()
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
                assert (lhs - rhs).is_trivial()


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
    """Normalization and the 2-cocycle identity by a plain loop over every
    path and every triple of paths, four `cocycle_value` calls per triple,
    triples filtered by total degree.  With `once`, each pair is valued once
    and its domain error reported where it is first used."""
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
                if x is not None and not x.is_trivial():
                    problems.append(f"normalization fails at {lam!r} ({side})")
    for v in g.vertices:
        for lam in by_range[v]:
            for mu in by_range[lam.source]:
                if dg.total(lam.degree) + dg.total(mu.degree) > depth:
                    continue
                for nu in by_range[mu.source]:
                    if dg.total(lam.degree) + dg.total(mu.degree) + dg.total(nu.degree) > depth:
                        continue
                    a = val(mu, nu)
                    b = val(lam, g.compose(mu, nu))
                    cc = val(lam, mu)
                    d = val(g.compose(lam, mu), nu)
                    if None in (a, b, cc, d):
                        continue
                    if not ((a + b) - (cc + d)).is_trivial():
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


def test_table_validation_composes_each_pair_once(monkeypatch):
    # the benchmark's shape: a T2 table to bound (8, 8) at depth 8 has 3,003
    # triples but only 495 composable pairs within the depth
    table = corrupted_t2_table((8, 8))
    want = reference_problems(table, builtin("T2"), 8, once=True)
    g = builtin("T2")
    calls = []
    compose = g.compose
    monkeypatch.setattr(g, "compose", lambda p, q: calls.append((p, q)) or compose(p, q))
    assert list(validate_cocycle(table, g, 8).problems) == want
    pairs = sum((t1 + 1) * (t2 + 1) for t1 in range(9) for t2 in range(9 - t1))
    assert len(calls) == len(set(calls)) == pairs == 495


@pytest.mark.parametrize("seed", range(4))
def test_validate_cocycle_problem_order_with_missing_pairs(seed):
    # validate_cocycle values each pair once; the problems, missing pairs and
    # failing triples interleaved, must come in the order of the plain loop
    # that asks for every pair of every triple
    g = builtin("T2")
    rng = random.Random(seed)
    entries = [(mu, nu, v) for mu, nu, v in corrupted_t2_table((3, 3)).entries
               if (mu[1], nu[1]) == (("a",), ("b",)) or rng.random() > 0.15]
    table = TableCocycle((3, 3), tuple(entries))
    want = reference_problems(table, g, 4, once=True)
    assert any("does not cover" in p for p in want)
    assert any("identity fails" in p for p in want)
    assert list(validate_cocycle(table, g, 4).problems) == want


# --- the defining conditions against the plain loop -------------------------
# validate_cocycle checks a pullback's shape and a phi-omega cocycle's split
# and squares only; the plain loop finding nothing on random data is the
# evidence that those conditions are enough.


def random_phase(rng):
    return Z(Fraction(rng.randrange(12), 12), theta=rng.randrange(-2, 3), rho=rng.randrange(-1, 2))


def random_pullback(rng, k):
    return PullbackCocycle(tuple(tuple(random_phase(rng) for _ in range(k)) for _ in range(k)))


def random_phi_omega(rng, g, l, same=()):
    """Random phi and omega; the edges named in `same` share one phi value."""
    values = {e.id: tuple(random_phase(rng) for _ in range(l)) for e in g.edges}
    values.update({eid: values[same[0]] for eid in same})
    phi = OneCocyclePhi(l, values)
    omega = BicharacterTable(l, tuple(tuple(random_phase(rng) for _ in range(l)) for _ in range(l)))
    return PhiOmegaCocycle(l, phi, omega)


def x_loops_apart(g, l):
    """A phi-omega cocycle on g whose phi tells x1 from x2, so it breaks the
    squares of `swapped_loops`."""
    phi = OneCocyclePhi(l, {e.id: ((theta if e.id == "x1" else zero),) * l for e in g.edges})
    return PhiOmegaCocycle(l, phi, BicharacterTable.zero(l))


@settings(max_examples=15, deadline=None)
@given(g=single_vertex_two_graphs(), rows=st.lists(phases, min_size=4, max_size=4))
def test_pullback_classes_match_plain_loop_on_two_graphs(g, rows):
    c = PullbackCocycle((tuple(rows[:2]), tuple(rows[2:])))
    assert list(validate_cocycle(c, g, 3).problems) == reference_problems(c, g, 3) == []


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name, depth", [("C3xT1", 4), ("C3xT2", 4), ("DISJOINT2", 5)])
def test_pullback_classes_match_plain_loop_on_multi_vertex_graphs(name, depth, seed):
    g = builtin(name)
    c = random_pullback(random.Random(seed), g.k)
    assert list(validate_cocycle(c, g, depth).problems) == reference_problems(c, g, depth) == []


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name, l, depth", [("B2xT1", 1, 4), ("B2xT3", 3, 3)])
def test_phi_omega_pairs_match_plain_loop(name, l, depth, seed):
    g = builtin(name)
    c = random_phi_omega(random.Random(seed), g, l)
    assert validate_phi(c.phi, g).ok
    assert list(validate_cocycle(c, g, depth).problems) == reference_problems(c, g, depth) == []


def test_phi_that_breaks_a_square_matches_plain_loop():
    g = product_with_Tl(swapped_loops(), 1)
    assert validate_kgraph(g).ok
    c = x_loops_apart(g, 1)
    rep = validate_phi(c.phi, g)
    assert not rep.ok
    assert validate_cocycle(c, g, 3) == rep
    # the square check is what stands between phi and a failing identity
    assert any("identity fails" in p for p in reference_problems(c, g, 3))


def test_graph_without_product_split_matches_plain_loop():
    g = swapped_loops()
    good = random_phi_omega(random.Random(0), g, 1, same=("x1", "x2"))
    split = validate_product_split(g, 1)
    assert not split.ok
    assert validate_cocycle(good, g, 3) == split
    assert validate_phi(good.phi, g).ok
    assert reference_problems(good, g, 3) == []
    bad = x_loops_apart(g, 1)
    assert validate_cocycle(bad, g, 3) == split
    assert any("identity fails" in p for p in reference_problems(bad, g, 3))


@pytest.mark.parametrize("name, c", [
    ("B2", PullbackCocycle(((theta,),))),
    ("B2xT3", random_phi_omega(random.Random(0), builtin("B2xT3"), 3)),
], ids=["B2-pullback", "B2xT3-phi_omega"])
def test_pullback_and_phi_omega_validation_value_no_pair(monkeypatch, name, c):
    # their verdicts hold at every depth, so no path is enumerated and no
    # pair is valued; a loop over path triples on B2 at depth 6 asks for 516
    g = builtin(name)
    calls = []

    def counted(c, mu, nu):
        calls.append((mu, nu))
        return cocycle_value(c, mu, nu)

    monkeypatch.setattr(cocycles, "cocycle_value", counted)
    monkeypatch.setattr(KGraph, "paths_from", lambda *args: calls.append(args) or [])
    assert validate_cocycle(c, g, 6).ok
    assert calls == []


@pytest.mark.parametrize("rows", [((zero,),), ((zero,) * 3,) * 3])
def test_theta_size_mismatch_is_one_problem(rows):
    rep = validate_cocycle(PullbackCocycle(rows), builtin("T2"), 3)
    assert rep.problems == ("theta size does not match graph colors",)


@pytest.mark.parametrize("rows, error", [
    (((zero,), (zero,)), ValueError),
    (((zero, zero), (zero,)), ValueError),
    (((zero, zero), (zero, zero, zero)), ValueError),
    (((Fraction(0),),), TypeError),
])
def test_pullback_theta_must_be_square(rows, error):
    # a ragged Theta used to end in IndexError inside decide_simplicity, and
    # a row that is too long was cut silently
    with pytest.raises(error, match="expected a 2x2 matrix|entries must be PhaseExponent"):
        PullbackCocycle(rows)


@pytest.mark.parametrize("side", ["mu", "nu"])
def test_table_vertex_entry_must_be_zero(side):
    g = builtin("T2")
    vertex, a = ("v", ()), ("v", ("a",))
    pair = (vertex, a) if side == "mu" else (a, vertex)
    entries = ((a, a, zero), (*pair, zero), (*pair, Z(Fraction(1, 3))))
    with pytest.raises(ValueError, match=r"^entries\[2\]: a side is a vertex path, so the value must be 0, not 1/3$"):
        TableCocycle((1, 1), entries)
    table = TableCocycle((1, 1), entries[:2])
    assert cocycle_value(table, g.make_path(*pair[0]), g.make_path(*pair[1])) == zero


# --- the integer check of a table against phase arithmetic ------------------

TABLE_GRAPHS = {name: builtin(name) for name in ("T2", "T3", "C3xT1")}
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def drawn_phase(rng, symbols, primes, top):
    """A phase whose rational part and symbol coefficients have denominators
    that are products of some of `primes`, coefficient numerators up to `top`."""
    def den():
        return prod(p for p in primes if rng.random() < 0.5)
    return PhaseExponent(Fraction(rng.randrange(-top, top + 1), den()),
                         tuple((s, Fraction(rng.randrange(-top, top + 1), den())) for s in symbols))


@st.composite
def drawn_tables(draw):
    """(table, graph, depth): a pullback plus the coboundary of a random
    function on paths, which is a 2-cocycle, on every composable pair of
    non-vertex paths within the depth; or random values.  Then at most one
    entry is shifted by a random phase and some entries are dropped.  The
    choices come from one drawn seed, so that each kind of table is drawn
    about as often as the next."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = TABLE_GRAPHS[rng.choice(sorted(TABLE_GRAPHS))]
    depth = rng.choice((0, 1, 2, 3, 3, 4, 4, 4))
    symbols = ("rho", "theta")[:rng.randrange(3)]
    primes = rng.sample(PRIMES, rng.randrange(9))
    top = rng.choice((1, 5, 2**72))
    random_values, corrupt = rng.random() < 0.2, rng.random() < 0.5
    drop = rng.choice((0.0, 0.0, 0.05, 0.3))

    def phase():
        return drawn_phase(rng, symbols, primes, top)

    theta_rows = PullbackCocycle(tuple(tuple(phase() for _ in range(g.k)) for _ in range(g.k)))
    paths = [p for v in g.vertices for n in dg.total_box(g.k, depth) for p in g.paths_from(v, n)]
    b = {p: phase() if p.word else zero for p in paths}
    entries = []
    for mu in paths:
        for nu in paths:
            if mu.word and nu.word and mu.source == nu.range and dg.total(mu.degree) + dg.total(nu.degree) <= depth:
                val = phase() if random_values else (
                    cocycle_value(theta_rows, mu, nu) + b[mu] + b[nu] - b[g.compose(mu, nu)])
                entries.append(((mu.range, mu.word), (nu.range, nu.word), val))
    if corrupt and entries:
        i = rng.randrange(len(entries))
        mu, nu, val = entries[i]
        entries[i] = (mu, nu, val + phase())
    entries = [e for e in entries if rng.random() >= drop]
    return TableCocycle((depth,) * g.k, tuple(entries)), g, depth


@settings(max_examples=300, deadline=None)
@given(case=drawn_tables())
def test_integer_check_matches_phase_arithmetic(case):
    table, g, depth = case
    rep = validate_cocycle(table, g, depth)
    assert (list(rep.problems), rep.triples) == table_check(table, g, depth)


def test_symbol_digits_do_not_carry():
    # c(a, a.a) and c(a.a, a) differ, and the triple (a, a, a) sees only
    # their difference: (-3rho + theta)/2 - (-rho + 2theta)/5.  Over S = 10
    # its coefficients are -13 for rho and 1 for theta, so a rho digit only
    # 4m + 1 = 13 wide, m = 3 the largest numerator, would carry into theta's
    # and hide it; the width must be 4Sm + 1.
    g = builtin("T2")
    a, aa = g.edge_path("a"), g.compose(g.edge_path("a"), g.edge_path("a"))
    alpha = Z(0, rho=Fraction(-3, 2), theta=Fraction(1, 2))
    beta = Z(0, rho=Fraction(-1, 5), theta=Fraction(2, 5))
    paths = [p for n in dg.total_box(2, 3) for p in g.paths_from("v", n) if p.word]
    entries = [((x.range, x.word), (y.range, y.word),
                alpha if (x, y) == (a, aa) else beta if (x, y) == (aa, a) else zero)
               for x in paths for y in paths if dg.total(x.degree) + dg.total(y.degree) <= 3]
    table = TableCocycle((3, 3), tuple(entries))
    want = ["cocycle identity fails on triple (Path[a], Path[a], Path[a])"]
    assert list(validate_cocycle(table, g, 3).problems) == table_check(table, g, 3)[0] == want
