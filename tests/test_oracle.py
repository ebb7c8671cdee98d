"""Brute-force groupoid layer: partition, sigma, conjugation phases, suites."""

import gc
import json
import os
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktwist import degrees as dg
from ktwist import cli, groupoid, oracle
from ktwist.cocycles import (
    BicharacterTable,
    CocycleDomainError,
    OneCocyclePhi,
    PhiOmegaCocycle,
    PullbackCocycle,
    TableCocycle,
    cocycle_value,
    validate_phi,
)
from ktwist.decider import (
    decide_simplicity,
    orbit_phase_generators,
    potential_certificate,
    verify_z_omega,
    z_omega_of,
)
from ktwist.lattices import LatticeBasis
from ktwist.io import cocycle_from_jsonable, load_cocycle, serialize_cocycle
from ktwist.kgraph import EventuallyPeriodicPath, Path, builtin, canonical_tail
from ktwist.groupoid import (
    GroupoidElement,
    InducedCocycle,
    ResolutionError,
    compose_elements,
    element,
    isotropy_element,
    omega_from_oracle,
    r_sigma,
    sigma_c,
)
from ktwist.oracle import (
    CoboundaryBx,
    DepthError,
    _elements_at,
    _left_factors,
    build_partition,
    cylinders_intersect,
    omega_closedform,
    run_suites,
    suite_centre_phase_triviality,
    suite_cocycle_identity,
    suite_conjugation_formula,
    suite_resolution_independence,
)
from ktwist.phases import PhaseExponent
from ktwist.structure import per_group

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    from test_cocycles import corrupted_t2_table, t2_table_entries
    from test_structure import single_vertex_two_graphs
finally:
    sys.path.pop(0)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

Z = PhaseExponent.of
zero = PhaseExponent.zero()
theta = Z(0, theta=1)
rho = Z(0, rho=1)


@pytest.fixture(scope="module")
def t2():
    return builtin("T2")


@pytest.fixture(scope="module")
def t2_cocycle():
    return PullbackCocycle(((zero, zero), (theta, zero)))


@pytest.fixture(scope="module")
def t2_partition(t2):
    return build_partition(t2, 3)


@pytest.fixture(scope="module")
def t2_sigma(t2_cocycle, t2_partition):
    """The T2 twist resolved through the reference partition."""
    return InducedCocycle(t2_cocycle, t2_partition.member)


@pytest.fixture(scope="module")
def b2xt1():
    return builtin("B2xT1")


@pytest.fixture(scope="module")
def b2xt1_cocycle(b2xt1):
    phi = OneCocyclePhi(
        1, {e.id: ((theta if e.id == "f" else zero),) for e in b2xt1.edges}
    )
    return PhiOmegaCocycle(1, phi, BicharacterTable.zero(1))


@pytest.fixture(scope="module")
def b2xt1_partition(b2xt1):
    return build_partition(b2xt1, 3)


@pytest.fixture(scope="module")
def b2xt1_sigma(b2xt1_cocycle, b2xt1_partition):
    return InducedCocycle(b2xt1_cocycle, b2xt1_partition.member)


# --- groupoid elements ------------------------------------------------------


def test_element_equality_cancels_common_tails(t2):
    x = canonical_tail(t2, "v")
    a = t2.make_path("v", ["a"])
    ab = t2.make_path("v", ["a", "b"])
    b = t2.make_path("v", ["b"])
    g1 = element(a, b, x)
    g2 = element(ab, t2.make_path("v", ["b", "b"]), x)
    # same degree (1,-1) and same infinite paths on the torus
    assert g1.degree == (1, -1)
    assert g1 == g2
    assert g1.cell() == g2.cell() == (a, b)


def test_element_compose_and_inverse(t2):
    x = canonical_tail(t2, "v")
    a = t2.make_path("v", ["a"])
    g1 = element(a, t2.vertex_path("v"), x)
    g2 = g1.inverse()
    prod = compose_elements(g1, g2)
    assert prod.degree == (0, 0)
    assert prod == GroupoidElement(g1.range_path, (0, 0), g1.range_path)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["T2", "B2", "B2xT1", "C3xT1"]), st.data())
def test_element_hash_ignores_where_the_tail_starts(name, data):
    # (mu.e, nu.e, x), (mu, nu, e.x), the element's cell over its tail, the
    # constructor, products and a double inverse give one element, the
    # graph's one object for the value, with one cell that contains it and is
    # reduced
    g = builtin(name)
    e = g.edge_path(data.draw(st.sampled_from([e.id for e in g.edges])))
    box = list(dg.box((1,) * g.k))

    def ending_at(m):
        return [p for u in g.vertices for p in g.paths_from(u, m) if p.source == e.range]

    mu, nu, rho = (data.draw(st.sampled_from(ending_at(data.draw(st.sampled_from(box)))))
                   for _ in range(3))
    x = canonical_tail(g, e.source)
    mue, nue, rhoe = (g.compose(p, e) for p in (mu, nu, rho))
    long = element(mue, nue, x)
    cmu, cnu = long.cell()
    reps = [
        long,
        element(mu, nu, x.prepend(e)),
        element(cmu, cnu, long.range_path.shift(cmu.degree)),
        GroupoidElement(x.prepend(mue), dg.sub(mue.degree, nue.degree), x.prepend(nue)),
        compose_elements(element(mue, rhoe, x), element(rhoe, nue, x)),
        compose_elements(long, element(nue, nue, x)),
        long.inverse().inverse(),
    ]
    keyed = {long: "long"}
    for el in reps:
        assert el == long and long == el
        assert el is long
        assert keyed[el] == "long"
        assert el.cell() == (cmu, cnu)
    assert len(set(reps)) == 1
    assert long.range_path is x.prepend(mue) and long.source_path is x.prepend(nue)
    xr, xs = long.range_path, long.source_path
    assert xr.segment_to(cmu.degree) == cmu and xs.segment_to(cnu.degree) == cnu
    assert xr.shift(cmu.degree) == xs.shift(cnu.degree)
    for i in range(1, g.k + 1):
        if cmu.degree[i - 1] and cnu.degree[i - 1]:
            ei = dg.unit(g.k, i)
            assert g.factorize(cmu, dg.sub(cmu.degree, ei))[1] != g.factorize(cnu, dg.sub(cnu.degree, ei))[1]


def test_builders_give_the_canonical_element():
    g = builtin("B2xT1")
    x = canonical_tail(g, "v")
    assert canonical_tail(g, "v") is x
    a, b = g.edge_path("e"), g.edge_path("t1_v")
    ab = g.compose(a, b)
    gelt = element(ab, b, x)
    assert gelt is element(g.compose(b, a), b, x)
    assert gelt.inverse() is element(b, ab, x) and gelt.inverse().inverse() is gelt
    iso = isotropy_element(x, (0, 1))
    assert iso is isotropy_element(canonical_tail(g, "v"), (0, 1))
    assert compose_elements(iso, iso.inverse()) is element(g.vertex_path("v"), g.vertex_path("v"), x)
    assert _left_factors(g, gelt, (1, 1), (0, 0))[0] is element(g.vertex_path("v"), g.vertex_path("v"), gelt.range_path)
    # the constructors hand out the same objects as the builders
    twin = GroupoidElement(EventuallyPeriodicPath(g, x.prefix, x.cycle), (0, 1), EventuallyPeriodicPath(g, x.prefix, x.cycle))
    assert twin is iso and twin.range_path is x
    assert compose_elements(twin, iso) is isotropy_element(x, (0, 2))
    assert twin.inverse() is iso.inverse()


def test_two_loads_of_a_graph_share_no_canonical_object():
    g1, g2 = builtin("T2"), builtin("T2")
    x1, x2 = canonical_tail(g1, "v"), canonical_tail(g2, "v")
    # equal paths on two graphs are different values: the graph is compared by identity
    assert x1 != x2 and x1 is not x2
    a1, a2 = g1.edge_path("a"), g2.edge_path("a")
    e1, e2 = element(a1, a1, x1), element(a2, a2, x2)
    assert e1 is not e2 and e1 != e2
    assert e1.range_path.graph is g1 and e2.range_path.graph is g2
    assert not {id(o) for o in g1._interned.values()} & {id(o) for o in g2._interned.values()}
    owners = {
        o.graph if isinstance(o, EventuallyPeriodicPath) else o.range_path.graph
        for o in g1._interned.values() if not isinstance(o, Path)
    }
    assert owners == {g1}
    # finite paths hold no graph, but are bound to theirs all the same
    assert a1 is not a2 and a1 != a2


def test_no_module_state_keeps_a_graph_alive():
    # the interned paths and elements, the memos and the kept values all
    # hang off the graph or a command's InducedCocycle, so once the caller
    # drops the graph the collector frees it
    g = builtin("B2xT1")
    c = load_cocycle(os.path.join(FIXTURES, "phi_theta.json"), g)[0]
    assert oracle.run_suites(g, c, 2, 200)[3] is not None
    assert decide_simplicity(g, c).verdict.status
    assert g._interned
    alive, path_alive = weakref.ref(g), weakref.ref(g.edge_path("e"))
    del g, c
    gc.collect()
    assert alive() is None and path_alive() is None


@pytest.mark.parametrize("name, stem, calls", [("B2xT1", "phi_theta", 0), ("T2", "pullback_theta", 0)])
def test_run_suites_compares_few_infinite_paths(monkeypatch, name, stem, calls):
    # the kept values are found by identity, and the interning table keys
    # infinite paths by their finite normal-form paths: no infinite path is
    # compared field by field (about 19,000 and 26,500 comparisons when every
    # builder made a new object)
    g = builtin(name)
    c = load_cocycle(os.path.join(FIXTURES, stem + ".json"), g)[0]
    seen = []
    eq = EventuallyPeriodicPath.__eq__
    monkeypatch.setattr(EventuallyPeriodicPath, "__eq__", lambda x, y: seen.append(1) or eq(x, y))
    suites, notes, _, om = oracle.run_suites(g, c, 2, 1500)
    assert om is not None and not notes and all(s.ok for s in suites)
    assert len(seen) <= calls


def test_cell_rejects_a_triple_that_is_not_an_element():
    # e.e.e... and f.f.f... on B2 have no shifts in common
    g = builtin("B2")
    v = g.vertex_path("v")
    ee = EventuallyPeriodicPath(g, v, g.edge_path("e"))
    ff = EventuallyPeriodicPath(g, v, g.edge_path("f"))
    with pytest.raises(ValueError):
        GroupoidElement(ee, (0,), ff).cell()


def test_isotropy_element_requires_tail_periodicity():
    # e.e.e... is shift-periodic even on aperiodic B2, but f.e.e.e... is not
    g = builtin("B2")
    x = canonical_tail(g, "v")
    assert isotropy_element(x, (1,)).degree == (1,)
    y = x.prepend(g.edge_path("f"))
    with pytest.raises(ValueError):
        isotropy_element(y, (1,))


def test_isotropy_element_on_torus(t2):
    x = canonical_tail(t2, "v")
    iso = isotropy_element(x, (1, 0))
    assert iso.degree == (1, 0)
    assert iso.range_path == x
    assert iso.source_path == x.shift((1, 0))


# --- the partition ----------------------------------------------------------


def test_partition_contains_diagonal_cells(t2, t2_partition):
    for n in dg.box((3, 3)):
        for lam in t2.paths_from("v", n):
            found = any(
                mu.word == lam.word and not nu.word for mu, nu in t2_partition.cells
            ) or any(mu.word == lam.word for mu, nu in t2_partition.cells)
            assert found


def test_partition_cylinders_pairwise_disjoint_sample(b2xt1, b2xt1_partition):
    cells = list(b2xt1_partition.cells)[:40]
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            # cells whose degree differences differ are disjoint by degree alone
            assert not cylinders_intersect(b2xt1, a, b)


def test_partition_member_resolves_and_is_unique(t2, t2_partition):
    x = canonical_tail(t2, "v")
    for word_mu, word_nu in ((["a"], ["b"]), (["a", "b"], []), ([], [])):
        mu = t2.make_path("v", word_mu)
        nu = t2.make_path("v", word_nu)
        el = element(mu, nu, x)
        cell_mu, cell_nu = t2_partition.member(el)
        # membership means the element lies in the chosen cylinder
        assert el.range_path.segment_to(cell_mu.degree).word == cell_mu.word
        assert el.source_path.segment_to(cell_nu.degree).word == cell_nu.word


def test_partition_depth_error_beyond_window(t2):
    shallow = build_partition(t2, 1)
    x = canonical_tail(t2, "v")
    deep = element(t2.make_path("v", ["a", "a", "a"]), t2.vertex_path("v"), x)
    # a failed lookup is not kept, so asking again fails again
    s = InducedCocycle(PullbackCocycle(((zero,) * 2,) * 2), shallow.member)
    for _ in range(2):
        with pytest.raises(DepthError):
            s.record(deep)[:2]
    assert not s._cells


# --- sigma and the conjugation phase ----------------------------------------


def test_sigma_on_torus_generators(t2, t2_sigma):
    x = canonical_tail(t2, "v")
    g1 = isotropy_element(x, (1, 0))
    g2 = isotropy_element(x, (0, 1))
    assert sigma_c(t2_sigma, g1, g2).is_trivial()
    assert sigma_c(t2_sigma, g2, g1).coeff("theta") == 1


def test_sigma_resolution_padding_agreement(t2, t2_sigma):
    x = canonical_tail(t2, "v")
    g1 = isotropy_element(x, (1, 0))
    g2 = isotropy_element(x, (0, 1))
    # forcing three window resolutions must not change the value
    val = sigma_c(t2_sigma, g2, g1, paddings=(0, 1, 2))
    assert val.coeff("theta") == 1


def test_resolution_suite_names_the_failing_pair(t2):
    # each violation says which pair (a, b) depended on the resolution, so
    # the first three, which the human report prints, are three different lines
    res = suite_resolution_independence(t2, InducedCocycle(corrupted_t2_table((3, 3))), depth=1)
    assert res.checked == 64 and res.violations
    for line in res.violations:
        assert line.startswith("resolution fails on (GElt[")
        assert line.endswith("): cocycle value depended on the resolution choice; the cocycle is not a 2-cocycle")
    assert len(set(res.violations[:3])) == 3


def _identity_suite_pairs(g, depth, cap):
    """The first `cap` triples of the cocycle identity suite, as its four pairs."""
    d = (depth,) * g.k
    shifts = (dg.zero(g.k), (1,) * g.k)
    pairs = []
    for v in sorted(g.vertices):
        for b in _elements_at(g, v, d):
            lefts = [a for s in shifts for a in _left_factors(g, b, d, s)]
            rights = [x.inverse() for s in shifts for x in _left_factors(g, b.inverse(), d, s)]
            for a in lefts:
                for cc in rights:
                    ab, bc = compose_elements(a, b), compose_elements(b, cc)
                    pairs += [(a, b), (ab, cc), (b, cc), (a, bc)]
                    if len(pairs) >= 4 * cap:
                        return pairs
    return pairs


@pytest.mark.parametrize("name, stem", [("T2", "pullback_theta"), ("B2", "pullback_b2"),
                                        ("B2xT1", "phi_theta")])
def test_warm_partition_matches_fresh_partitions(name, stem):
    # values kept on one store over a partition equal those of a new store
    # per call, and the cells it keeps equal the partition's
    g = builtin(name)
    c, _ = load_cocycle(os.path.join(FIXTURES, stem + ".json"), g)
    P = build_partition(g, 3)
    warm = InducedCocycle(c, P.member)
    pairs = _identity_suite_pairs(g, 1, cap=150)
    for a, b in pairs:
        assert sigma_c(warm, a, b) == sigma_c(InducedCocycle(c, P.member), a, b)
        for el in (a, b):
            assert warm.record(el)[:2] == P.member(el)


def test_one_partition_serves_two_cocycles(t2, t2_partition):
    # two stores over one partition each keep the values of their own
    # cocycle, asked in turn for the same pairs
    x = canonical_tail(t2, "v")
    g1, g2 = isotropy_element(x, (1, 0)), isotropy_element(x, (0, 1))
    stores = [
        InducedCocycle(PullbackCocycle(((zero, zero), (t, zero))), t2_partition.member)
        for t in (theta, rho)
    ]
    for _ in range(2):
        for s, t in zip(stores, (theta, rho)):
            assert sigma_c(s, g2, g1) == t
            assert r_sigma(s, g1, (0, 1)) == -t


def test_r_sigma_winds_by_theta(t2, t2_sigma):
    x = canonical_tail(t2, "v")
    alpha = isotropy_element(x, (1, 0))
    val = r_sigma(t2_sigma, alpha, (0, 1))
    assert val.coeff("theta") == -1
    assert val.rat == 0


def test_r_sigma_trivial_on_same_direction(t2, t2_sigma):
    x = canonical_tail(t2, "v")
    alpha = isotropy_element(x, (1, 0))
    assert r_sigma(t2_sigma, alpha, (1, 0)).is_trivial()


def _counting(monkeypatch, name):
    """Replace groupoid.<name> by a wrapper; returns the list of its calls."""
    calls = []
    real = getattr(groupoid, name)
    monkeypatch.setattr(groupoid, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_r_sigma_is_kept_on_the_cell_source(monkeypatch, t2, t2_cocycle):
    s = InducedCocycle(t2_cocycle)
    alpha = isotropy_element(canonical_tail(t2, "v"), (1, 0))
    first = r_sigma(s, alpha, (0, 1))
    calls = _counting(monkeypatch, "compose_elements")
    assert r_sigma(s, alpha, (0, 1)) == first
    assert calls == []
    r_sigma(s, alpha, (1, 1))
    assert calls


def test_sigma_c_keeps_a_resolution_error(monkeypatch, t2):
    # the corrupted table makes the generator pair depend on the resolution;
    # asking again raises a new error with the same message, unevaluated
    c = corrupted_t2_table((3, 3))
    s = InducedCocycle(c)
    x = canonical_tail(t2, "v")
    g1, g2 = isotropy_element(x, (1, 0)), isotropy_element(x, (0, 1))
    with pytest.raises(ResolutionError) as first:
        sigma_c(s, g1, g2)
    calls = _counting(monkeypatch, "cocycle_value")
    with pytest.raises(ResolutionError) as again:
        sigma_c(s, g1, g2)
    assert again.value is not first.value
    assert str(again.value) == str(first.value)
    assert calls == []
    resolved = _counting(monkeypatch, "compose_elements")
    sigma_c(s, g2, g1)
    assert resolved


def _suite_cocycles(monkeypatch, g, c, depth):
    """run_suites at `depth`; returns every InducedCocycle it built."""
    built = []

    def build(*args):
        built.append(InducedCocycle(*args))
        return built[-1]

    monkeypatch.setattr(oracle, "InducedCocycle", build)
    oracle.run_suites(g, c, depth, 200)
    return built


def _assert_kept_values_are_fresh(built, c):
    assert any(s._categorical for s in built)
    for s in built:
        for (mu, nu), val in s._categorical.items():
            assert val == cocycle_value(c, mu, nu), (mu, nu)


@pytest.mark.parametrize("name, stem", [
    ("T2", "pullback_theta"), ("B2xT1", "phi_theta"), ("B2xT3", "b2t3"),
])
def test_kept_categorical_values_equal_fresh_ones(monkeypatch, name, stem):
    g = builtin(name)
    c = load_cocycle(os.path.join(FIXTURES, stem + ".json"), g)[0]
    _assert_kept_values_are_fresh(_suite_cocycles(monkeypatch, g, c, 2), c)


@settings(max_examples=8, deadline=None)
@given(single_vertex_two_graphs(), st.data())
def test_kept_categorical_values_equal_fresh_ones_on_random_2_graphs(g, data):
    c = PullbackCocycle(tuple(tuple(data.draw(phase_values) for _ in range(2)) for _ in range(2)))
    with pytest.MonkeyPatch.context() as mp:
        _assert_kept_values_are_fresh(_suite_cocycles(mp, g, c, 2), c)


def test_run_suites_evaluates_each_categorical_pair_once(monkeypatch, b2xt1):
    c = load_cocycle(os.path.join(FIXTURES, "phi_theta.json"), b2xt1)[0]
    calls = _counting(monkeypatch, "cocycle_value")
    oracle.run_suites(b2xt1, c, 2, 200)
    pairs = [(mu, nu) for _, mu, nu in calls]
    assert pairs and len(pairs) == len(set(pairs))


@pytest.mark.parametrize("name, stem, pairs", [("T2", "pullback_theta", 115), ("B2xT3", "b2t3", 1350)])
def test_run_suites_keeps_one_store_for_the_suites_and_the_bicharacter(monkeypatch, name, stem, pairs):
    # the bicharacter reads the suites' store, so its generator pairs are not resolved again
    g = builtin(name)
    c = load_cocycle(os.path.join(FIXTURES, stem + ".json"), g)[0]
    stores = []
    init = InducedCocycle.__init__
    monkeypatch.setattr(InducedCocycle, "__init__", lambda self, *a, **k: stores.append(self) or init(self, *a, **k))
    calls = _counting(monkeypatch, "cocycle_value")
    suites, notes, _, om = oracle.run_suites(g, c, 2, 1500)
    assert om is not None and not notes and all(s.ok for s in suites)
    assert len(stores) == 1
    assert len(calls) == len({(mu, nu) for _, mu, nu in calls}) == pairs


def test_rank_zero_takes_the_general_path():
    g = builtin("B2")
    c = load_cocycle(os.path.join(FIXTURES, "pullback_b2.json"), g)[0]
    assert per_group(g).lattice.rows == ()
    empty, none = BicharacterTable.zero(0), LatticeBasis.trivial(0)
    assert omega_from_oracle(g, InducedCocycle(c), ()) == empty
    assert omega_closedform(g, c, ()) == empty
    assert z_omega_of(empty) == none
    assert verify_z_omega(empty, none)
    assert not verify_z_omega(empty, LatticeBasis.trivial(1))
    phi = OneCocyclePhi(1, {e.id: (theta,) for e in g.edges})
    assert potential_certificate(g, orbit_phase_generators(g, phi, none), none.rank) is None
    centre = suite_centre_phase_triviality(g, InducedCocycle(c), (), none.rows)
    assert (centre.name, centre.checked, centre.violations) == ("centre_phase_triviality", 0, ())


# --- sigma_c as a sum of per-element terms ----------------------------------

RESOLUTION_TEXT = "cocycle value depended on the resolution choice; the cocycle is not a 2-cocycle"


def _six_term_sigma(s, gelt, helt, paddings):
    """The six-term body sigma_c had before it summed per-element terms,
    keeping nothing: six categorical values per padding."""

    def c(mu, nu):
        return cocycle_value(s.c, mu, nu)

    prod = compose_elements(gelt, helt)
    mu_g, nu_g = s.cell(gelt)
    mu_h, nu_h = s.cell(helt)
    mu_gh, nu_gh = s.cell(prod)
    pg = gelt.degree
    u, z = gelt.source_path, gelt.range_path
    base = dg.join(dg.join(nu_g.degree, mu_h.degree), dg.sub(mu_gh.degree, pg))
    vals = []
    for pad in paddings:
        n = dg.add(base, (pad,) * len(pg))
        alpha = u.at(nu_g.degree, n)
        beta = u.at(mu_h.degree, n)
        gamma = z.at(mu_gh.degree, dg.add(n, pg))
        vals.append(
            c(mu_g, alpha) - c(nu_g, alpha) + c(mu_h, beta) - c(nu_h, beta)
            - c(mu_gh, gamma) + c(nu_gh, gamma)
        )
    if any(v != vals[0] for v in vals[1:]):
        raise ResolutionError(RESOLUTION_TEXT)
    return vals[0]


def _outcome(fn, *args):
    """The value of fn(*args), or the type and text of the ResolutionError it raised."""
    try:
        return fn(*args)
    except ResolutionError as err:
        return ("ResolutionError", str(err))


def _factor_pairs(g, depth=1, limit=400):
    """Composable pairs (a, b) and (b, c) as the identity suite builds them:
    b from `_elements_at`, a and c from `_left_factors` at the shifts 0 and
    (1, ..., 1); every n-th pair, so that at most `limit` spread over all b."""
    d = (depth,) * g.k
    shifts = (dg.zero(g.k), (1,) * g.k)
    pairs = []
    for v in sorted(g.vertices):
        for b in _elements_at(g, v, d):
            for t in shifts:
                pairs += [(a, b) for a in _left_factors(g, b, d, t)]
                pairs += [(b, x.inverse()) for x in _left_factors(g, b.inverse(), d, t)]
    return pairs[:: -(-len(pairs) // limit)]


def _assert_terms_match_six_terms(s, pairs):
    # one store for every pair, so later pairs read terms that earlier ones kept
    assert pairs
    for a, b in pairs:
        for paddings in ((0, 1), (0, 1, 2)):
            assert _outcome(sigma_c, s, a, b, paddings) == _outcome(_six_term_sigma, s, a, b, paddings), (a, b)


@pytest.mark.parametrize("name, stem", [
    ("T2", "pullback_theta"), ("B2xT1", "phi_theta"), ("B2xT3", "b2t3"), ("C3xT1", None),
])
def test_sigma_c_sums_the_six_categorical_values(name, stem):
    g = builtin(name)
    c = load_cocycle(os.path.join(FIXTURES, stem + ".json"), g)[0] if stem else _twist_last(g.k)
    _assert_terms_match_six_terms(InducedCocycle(c), _factor_pairs(g))


@pytest.mark.parametrize("name, stem", [("T2", "pullback_theta"), ("B2xT1", "phi_theta")])
def test_sigma_c_sums_the_six_categorical_values_through_a_partition(name, stem):
    g = builtin(name)
    c = load_cocycle(os.path.join(FIXTURES, stem + ".json"), g)[0]
    _assert_terms_match_six_terms(InducedCocycle(c, build_partition(g, 3).member), _factor_pairs(g))


@settings(max_examples=8, deadline=None)
@given(single_vertex_two_graphs(), st.data())
def test_sigma_c_sums_the_six_categorical_values_on_random_2_graphs(g, data):
    c = PullbackCocycle(tuple(tuple(data.draw(phase_values) for _ in range(2)) for _ in range(2)))
    _assert_terms_match_six_terms(InducedCocycle(c), _factor_pairs(g, limit=150))


def test_sigma_c_sums_the_six_categorical_values_on_the_corrupted_table(t2):
    c = load_cocycle(os.path.join(GOLDEN, "t2_table_corrupt.json"), t2)[0]
    s = InducedCocycle(c)
    pairs = _factor_pairs(t2, limit=1000)
    _assert_terms_match_six_terms(s, pairs)
    # the table is corrupt where these pairs reach it, and both routes say so alike
    errors = [p for p in pairs if isinstance(_outcome(sigma_c, s, *p), tuple)]
    assert errors and len(errors) < len(pairs)
    assert _outcome(sigma_c, s, *errors[0]) == ("ResolutionError", RESOLUTION_TEXT)


def _identity_suite_reference(g, s, depth=1, max_triples=None):
    """The cocycle identity suite as it was before it kept sigma(a, b), ab,
    sigma(b, c) and bc per factor: four sigma_c calls for every triple."""
    d = dg.as_degree(g.k, depth, "depth")
    shifts = (dg.zero(g.k), (1,) * g.k)
    checked = 0
    bad = []
    for v in sorted(g.vertices):
        for b in _elements_at(g, v, d):
            lefts = [a for t in shifts for a in _left_factors(g, b, d, t)]
            rights = [x.inverse() for t in shifts for x in _left_factors(g, b.inverse(), d, t)]
            for a in lefts:
                for cc in rights:
                    try:
                        lhs = sigma_c(s, a, b) + sigma_c(s, compose_elements(a, b), cc)
                        rhs = sigma_c(s, b, cc) + sigma_c(s, a, compose_elements(b, cc))
                        if lhs != rhs:
                            bad.append(f"identity fails on ({a!r}, {b!r}, {cc!r})")
                    except ResolutionError as err:
                        bad.append(f"identity fails on ({a!r}, {b!r}, {cc!r}): {err}")
                    checked += 1
                    if max_triples is not None and checked >= max_triples:
                        return oracle.SuiteResult("cocycle_identity", checked, tuple(bad))
    return oracle.SuiteResult("cocycle_identity", checked, tuple(bad))


@pytest.mark.parametrize("name, stem", [
    ("T2", "pullback_theta"), ("B2", "pullback_b2"), ("B2xT1", "phi_theta"), ("T2", None),
])
@pytest.mark.parametrize("cap", [1, 7, 64, 1500])
def test_identity_suite_matches_the_four_call_loop(name, stem, cap):
    # None: the corrupted golden table, whose violations must read the same
    g = builtin(name)
    path = os.path.join(FIXTURES, stem + ".json") if stem else os.path.join(GOLDEN, "t2_table_corrupt.json")
    c = load_cocycle(path, g)[0]
    kept = suite_cocycle_identity(g, InducedCocycle(c), depth=1, max_triples=cap)
    assert kept == _identity_suite_reference(g, InducedCocycle(c), depth=1, max_triples=cap)
    assert bool(kept.violations) == (stem is None and cap >= 64)



def _perturbed_t2_table(t2):
    """The corrupted golden table with c(a, a.b.b) moved from 0 to 1/3."""
    with open(os.path.join(GOLDEN, "t2_table_corrupt.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    idx = next(i for i, e in enumerate(doc["entries"])
               if (e["mu"]["word"], e["nu"]["word"]) == (["a"], ["a", "b", "b"]))
    assert doc["entries"][idx]["value"] == "0"
    doc["entries"][idx]["value"] = "1/3"
    return cocycle_from_jsonable(doc, t2)


def test_suites_fail_on_a_perturbed_table_by_inequality(t2):
    # the bicharacter no longer depends on the resolution, and the identity,
    # conjugation and coboundary suites each find triples where both sides
    # resolve and differ
    suites, notes, _, om = run_suites(t2, _perturbed_t2_table(t2), 2, 200)
    assert notes == [] and om is not None
    found = {s.name: (s.checked, len(s.violations), s.violations[0] if s.violations else None) for s in suites}
    assert found == {
        "cocycle_identity": (200, 20, "identity fails on (GElt[a.b|*;(1, 1)], GElt[*|b;(0, -1)], GElt[*|a.b;(-1, -1)])"),
        "resolution_independence": (64, 7, "resolution fails on (GElt[a.b|*;(1, 1)], GElt[*|b;(0, -1)]): "
                                            + RESOLUTION_TEXT),
        "conjugation_formula": (200, 44, "conjugation additivity fails at (GElt[*|b;(0, -1)], (-1, -1), (-1, 0))"),
        "centre_phase_triviality": (0, 0, None),
        "coboundary_box": (81, 13, "delta b != ctilde at ((-1, -1), (-1, 0))"),
    }

def _suite_outcome(route, g, c, cap):
    """The SuiteResult of one route, or the text of the CocycleDomainError it raised."""
    try:
        return route(g, InducedCocycle(c), depth=1, max_triples=cap)
    except CocycleDomainError as err:
        return ("CocycleDomainError", str(err))


@pytest.mark.parametrize("missing", ["beyond_2_2", "pairs_ab_ab"])
def test_identity_suite_raises_the_same_domain_error_on_a_truncated_table(t2, missing):
    # the first triples are covered and later ones are not, so a route that
    # worked out sigma(b, c) before the loop asked for it would raise under a
    # cap that the four-call loop stays within
    base = PullbackCocycle(((zero, zero), (theta, zero)))
    if missing == "beyond_2_2":
        table = TableCocycle((2, 2), tuple(t2_table_entries(base, (2, 2))))
    else:
        table = TableCocycle((3, 3), tuple(
            e for e in t2_table_entries(base, (3, 3))
            if (sorted(e[0][1]), sorted(e[1][1])) != (["a", "b"], ["a", "b"])
        ))
    for cap in (1, 2, 3, 8, 64, None):
        kept = _suite_outcome(suite_cocycle_identity, t2, table, cap)
        assert kept == _suite_outcome(_identity_suite_reference, t2, table, cap), cap
    assert _suite_outcome(suite_cocycle_identity, t2, table, 1).checked == 1
    assert kept[0] == "CocycleDomainError" and kept[1].startswith("table does not cover the pair")


def _elements_at_reference(g, v, d):
    """`_elements_at` as the list it built before it became a generator."""
    z = canonical_tail(g, v)
    return [
        element(mu, nu, z)
        for m in dg.box(d)
        for n in dg.box(d)
        for mu in g.paths_into(v, m)
        for nu in g.paths_into(v, n)
    ]


@pytest.mark.parametrize("name, depth", [("T2", 1), ("T2", 2), ("B2", 2), ("B2xT1", 1), ("C3xT1", 2)])
def test_elements_at_yields_the_listed_sequence(name, depth):
    g = builtin(name)
    d = (depth,) * g.k
    for v in sorted(g.vertices):
        assert list(_elements_at(g, v, d)) == _elements_at_reference(g, v, d)


def test_a_capped_suite_builds_elements_only_up_to_its_cap():
    # the element box at depth 2 on B2xT3 holds 35,721 elements, and
    # building all of them grows the graph's table by 5,638 entries; a suite
    # capped at one triple builds the first, its factors and their paths
    g = builtin("B2xT3")
    c = load_cocycle(os.path.join(FIXTURES, "b2t3.json"), g)[0]
    box = sum(len(_elements_at_reference(builtin("B2xT3"), v, (2,) * g.k)) for v in g.vertices)
    assert box == 35721
    before = len(g._interned)
    assert suite_cocycle_identity(g, InducedCocycle(c), depth=2, max_triples=1).checked == 1
    assert len(g._interned) - before < box // 10


def _conjugation_suite_reference(g, s, per_basis, depth=1, max_checks=None):
    """The conjugation suite as it was before it kept the sums p + q, r(a, .)
    per element and the sigma differences per pair of paths: three r_sigma
    and two sigma_c calls for every check."""
    if not per_basis:
        return oracle.SuiteResult("conjugation_formula", 0, ())
    checked = 0
    bad = []
    d = dg.as_degree(g.k, depth, "depth")
    periods = list(oracle._period_samples(per_basis))
    for v in sorted(g.vertices):
        for a in _elements_at(g, v, d):
            xr, xs = a.range_path, a.source_path
            iso_r = {p: isotropy_element(xr, p) for p in periods}
            iso_s = {p: isotropy_element(xs, p) for p in periods}
            for p in periods:
                for q in periods:
                    try:
                        lhs = r_sigma(s, a, dg.add(p, q))
                        rhs = (
                            sigma_c(s, iso_r[p], iso_r[q])
                            - sigma_c(s, iso_s[p], iso_s[q])
                            + r_sigma(s, a, p)
                            + r_sigma(s, a, q)
                        )
                        if lhs != rhs:
                            bad.append(f"conjugation additivity fails at ({a!r}, {p}, {q})")
                    except ResolutionError as err:
                        bad.append(f"conjugation additivity fails at ({a!r}, {p}, {q}): {err}")
                    checked += 1
                    if max_checks is not None and checked >= max_checks:
                        return oracle.SuiteResult("conjugation_formula", checked, tuple(bad))
    return oracle.SuiteResult("conjugation_formula", checked, tuple(bad))


def _conjugation_outcome(route, g, c, cap):
    """The SuiteResult of one conjugation route at element depth 1, or the
    text of the CocycleDomainError it raised."""
    basis = tuple(per_group(g).lattice.rows)
    try:
        return route(g, InducedCocycle(c), basis, depth=1, max_checks=cap)
    except CocycleDomainError as err:
        return ("CocycleDomainError", str(err))


def _half_twist_off_at_a_a():
    """The half-twist table to bound (3, 3), off by 1/3 at (a, a): some
    isotropy pairs depend on the resolution and the others do not."""
    half = PullbackCocycle(((zero, zero), (Z(Fraction(1, 2)), zero)))
    return TableCocycle((3, 3), tuple(
        (mu, nu, val + Z(Fraction(1, 3)) if (mu[1], nu[1]) == (("a",), ("a",)) else val)
        for mu, nu, val in t2_table_entries(half, (3, 3))
    ))


def _suite_case(name, stem):
    """A graph and a cocycle: a fixture, the twist of `_twist_last` (None),
    or one of the corrupted T2 tables."""
    g = builtin(name)
    if stem is None:
        return g, _twist_last(g.k)
    if stem == "corrupt":
        return g, load_cocycle(os.path.join(GOLDEN, "t2_table_corrupt.json"), g)[0]
    if stem == "perturbed":
        return g, _perturbed_t2_table(g)
    if stem == "off_at_a_a":
        return g, _half_twist_off_at_a_a()
    return g, load_cocycle(os.path.join(FIXTURES, stem + ".json"), g)[0]


@pytest.mark.parametrize("name, stem", [
    ("T2", "pullback_theta"), ("B2", "pullback_b2"), ("B2xT1", "phi_theta"), ("C3xT1", None),
    ("T2", "corrupt"), ("T2", "perturbed"), ("T2", "off_at_a_a"),
])
@pytest.mark.parametrize("cap", [1, 7, 150, 1500])
def test_conjugation_suite_matches_the_five_call_loop(name, stem, cap):
    g, c = _suite_case(name, stem)
    kept = _conjugation_outcome(suite_conjugation_formula, g, c, cap)
    assert kept == _conjugation_outcome(_conjugation_suite_reference, g, c, cap)
    if stem in ("perturbed", "off_at_a_a") and cap >= 150:
        assert kept.violations


@pytest.mark.parametrize("bound", [(1, 1), (2, 2), (3, 3)])
def test_conjugation_suite_raises_the_same_domain_error_on_a_truncated_table(t2, bound):
    # a route that worked out a phase before the loop asked for it would
    # raise at another check, or with another pair, than the reference; the
    # (2, 2) table first fails at check 82, the first of the second element
    base = PullbackCocycle(((zero, zero), (Z(Fraction(1, 3)), zero)))
    table = TableCocycle(bound, tuple(t2_table_entries(base, bound)))
    outcomes = {}
    for cap in (1, 2, 7, 81, 82, 150, None):
        outcomes[cap] = _conjugation_outcome(suite_conjugation_formula, t2, table, cap)
        assert outcomes[cap] == _conjugation_outcome(_conjugation_suite_reference, t2, table, cap), cap
    if bound == (3, 3):
        assert outcomes[None].ok and outcomes[None].checked == 1296
    else:
        assert outcomes[None][0] == "CocycleDomainError"
    if bound == (2, 2):
        assert outcomes[81].checked == 81 and outcomes[82][0] == "CocycleDomainError"


def test_run_suites_stops_only_the_centre_suite_on_the_third_table(t2):
    # the exact table of Theta = [[0, 0], [1/3, 0]] to bound (3, 3)
    base = PullbackCocycle(((zero, zero), (Z(Fraction(1, 3)), zero)))
    table = TableCocycle((3, 3), tuple(t2_table_entries(base, (3, 3))))
    for depth in (1, 2):
        suites, notes, _, _ = run_suites(t2, table, depth, 1500)
        assert notes == []
        assert [(s.name, s.stopped) for s in suites] == [
            ("cocycle_identity", None),
            ("resolution_independence", None),
            ("conjugation_formula", None),
            ("centre_phase_triviality", "table does not cover the pair (a, a.b.b.b.b)"),
            ("coboundary_box", None),
        ]
        assert suites[2] == _conjugation_outcome(_conjugation_suite_reference, t2, table, 1500)


def test_oracle_reports_the_suites_a_table_lets_finish(tmp_path, capsys):
    # the exact table of a 2-cocycle to bound (3, 3) covers every pair but
    # those the centre suite asks for, past the bound: that suite stops,
    # naming the pair, and the others still report
    base = PullbackCocycle(((zero, zero), (Z(Fraction(1, 3)), zero)))
    path = tmp_path / "t2_third.json"
    path.write_text(serialize_cocycle(TableCocycle((3, 3), tuple(t2_table_entries(base, (3, 3))))), encoding="utf-8")
    stopped = "table does not cover the pair (a, a.b.b.b.b)"
    for depth in ("1", "2"):
        args = ["oracle", "builtin:T2", "--cocycle", str(path), "--depth", depth]
        assert cli.main(args) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == [
            "suite cocycle_identity: pass (1024 checks)",
            "suite resolution_independence: pass (64 checks)",
            "suite conjugation_formula: pass (1296 checks)",
            f"suite centre_phase_triviality: STOPPED ({stopped})",
            "suite coboundary_box: pass (81 checks)",
        ]
    assert cli.main([*args, "--format", "structured"]) == 1
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert suites[3] == {
        "name": "centre_phase_triviality", "checked": 0, "ok": False, "violations": [], "stopped": stopped,
    }
    assert all(s["ok"] and "stopped" not in s for i, s in enumerate(suites) if i != 3)
    # to bound (1, 1) the bicharacter stops too, and both suites that need it
    path.write_text(serialize_cocycle(TableCocycle((1, 1), tuple(t2_table_entries(base, (1, 1))))), encoding="utf-8")
    assert cli.main(["oracle", "builtin:T2", "--cocycle", str(path), "--depth", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and [line.split(": ")[1].split(" (")[0] for line in out.splitlines()] == ["STOPPED"] * 5
    assert out.splitlines()[3:] == [
        "suite centre_phase_triviality: STOPPED (table does not cover the pair (a, a.b.b))",
        "suite coboundary_box: STOPPED (table does not cover the pair (a, a.b.b))",
    ]


@pytest.mark.parametrize("name", ["T2", "B2xT1", "B2xT3", "C3xT1", "DISJOINT2"])
def test_terms_read_through_the_cell_tail_are_the_range_path_pieces(name):
    # a record keeps z = T^{d(mu)} x, and w = z(0, m - d(mu)) is the very
    # path x(d(mu), m) that a term asks c for
    g = builtin(name)
    s = InducedCocycle(PullbackCocycle(((PhaseExponent.zero(),) * g.k,) * g.k))
    d = (1,) * g.k
    checked = 0
    for v in sorted(g.vertices):
        for el in _elements_at(g, v, d):
            mu, _, z, _ = s.record(el)
            x = el.range_path
            assert z is x.shift(mu.degree)
            for r in dg.box((2,) * g.k):
                m = dg.add(mu.degree, r)
                assert z.segment_to(dg.sub(m, mu.degree)) is x.at(mu.degree, m)
                checked += 1
    assert checked


def test_run_suites_asks_two_categorical_values_per_term(monkeypatch, b2xt1):
    # every categorical value a run asks for belongs to one kept term
    c = load_cocycle(os.path.join(FIXTURES, "phi_theta.json"), b2xt1)[0]
    stores = []
    init = InducedCocycle.__init__
    monkeypatch.setattr(InducedCocycle, "__init__", lambda self, *a, **k: stores.append(self) or init(self, *a, **k))
    calls = []
    value_of = InducedCocycle.value_of
    monkeypatch.setattr(
        InducedCocycle, "value_of", lambda self, mu, nu: calls.append((mu, nu)) or value_of(self, mu, nu)
    )
    oracle.run_suites(b2xt1, c, 2, 200)
    (s,) = stores
    # each element's record keeps its terms keyed by degree
    terms = sum(len(terms) for _, _, _, terms in s._cells.values())
    assert terms and len(calls) == 2 * terms
    assert set(calls) == set(s._categorical)


# --- bicharacter extraction -------------------------------------------------


def test_omega_oracle_t2(t2, t2_cocycle):
    per = per_group(t2)
    om = omega_from_oracle(t2, InducedCocycle(t2_cocycle), tuple(per.lattice.rows))
    assert om.rank == 2
    anti = om.antisymmetrization()
    assert anti[0][1].coeff("theta") == -1
    assert anti[1][0].coeff("theta") == 1


def test_omega_oracle_matches_pullback_antisymmetry(t2):
    # for a degree-bilinear cocycle on the torus the commutator of the
    # extracted table must match the antisymmetrized exponent matrix
    c = PullbackCocycle(((Z(0, a=1), Z(0, b=1)), (Z(0, c=1), Z(0, d=1))))
    per = per_group(t2)
    om = omega_from_oracle(t2, InducedCocycle(c), tuple(per.lattice.rows))
    anti = om.antisymmetrization()
    # theta12 - theta21 = b - c
    assert anti[0][1].coeff("b") == 1
    assert anti[0][1].coeff("c") == -1
    assert anti[0][1].coeff("a") == 0


def test_omega_oracle_b2xt3():
    g = builtin("B2xT3")
    phi = OneCocyclePhi(
        3,
        {
            e.id: ((theta, zero, zero) if e.id == "f" else (zero, zero, zero))
            for e in g.edges
        },
    )
    om_in = BicharacterTable(
        3, ((zero, zero, zero), (zero, zero, zero), (zero, rho, zero))
    )
    c = PhiOmegaCocycle(3, phi, om_in)
    per = per_group(g)
    om = omega_from_oracle(g, InducedCocycle(c), tuple(per.lattice.rows))
    assert om.rank == 3
    assert om.rows[2][1].coeff("rho") == 1
    assert om.rows[1][0].is_trivial()
    assert om.rows[2][0].is_trivial()
    z = z_omega_of(om)
    assert z.rank == 1
    assert z.member((1, 0, 0))


def test_omega_closedform_symmetric_discrepancy(t2, t2_cocycle):
    # the verbatim closed form is symmetric, so its antisymmetrization
    # vanishes and disagrees with the oracle exactly when twisting is real
    per = per_group(t2)
    basis = tuple(per.lattice.rows)
    cf = omega_closedform(t2, t2_cocycle, basis)
    assert all(x.is_trivial() for row in cf.antisymmetrization() for x in row)
    om = omega_from_oracle(t2, InducedCocycle(t2_cocycle), basis)
    assert om.antisymmetrization() != cf.antisymmetrization()


def test_omega_closedform_agrees_when_untwisted(b2xt1, b2xt1_cocycle):
    per = per_group(b2xt1)
    basis = tuple(per.lattice.rows)
    om = omega_from_oracle(b2xt1, InducedCocycle(b2xt1_cocycle), basis)
    cf = omega_closedform(b2xt1, b2xt1_cocycle, basis)
    assert om.antisymmetrization() == cf.antisymmetrization()


# --- the bicharacter through cancelled cells --------------------------------

@pytest.fixture(scope="module")
def graphs():
    """Builtin graphs with their period bases, made once for this module."""
    out = {}
    for name in ("T2", "T3", "C3xT1", "C3xT2"):
        g = builtin(name)
        out[name] = (g, tuple(per_group(g).lattice.rows))
    return out


@pytest.fixture(scope="module")
def partitions():
    """Reference partitions by (graph name, depth), shared across cocycles."""
    return {}


def omega_by_partition(g, c, per_basis, partitions):
    """The bicharacter resolved through a cylinder partition: the reference.

    The partition starts at the box of the generators' absolute values plus
    one, doubling while it is too shallow.  `partitions` keeps them by
    graph and depth; sharing one across cocycles is sound, since each
    InducedCocycle keeps the values of its own cocycle.
    """
    l = len(per_basis)
    x = canonical_tail(g, min(g.vertices))
    depth = (1,) * g.k
    for p in per_basis:
        depth = dg.add(depth, dg.add(dg.pos_part(p), dg.neg_part(p)))
    for _ in range(4):
        key = (g.name, depth)
        if key not in partitions:
            partitions[key] = build_partition(g, depth)
        s = InducedCocycle(c, partitions[key].member)
        try:
            sig = {
                (i, j): sigma_c(s, isotropy_element(x, per_basis[i]), isotropy_element(x, per_basis[j]))
                for i in range(l)
                for j in range(l)
                if i != j
            }
            break
        except DepthError:
            depth = dg.add(depth, depth)
    else:
        raise DepthError("reference partition stayed too shallow")
    return tuple(
        tuple(sig[(i, j)] - sig[(j, i)] if i > j else zero for j in range(l)) for i in range(l)
    )


# The bundled pairings with periods; B2 is aperiodic and DISJOINT2 not cofinal.
PERIODIC_FIXTURE_PAIRINGS = [
    ("T2", "pullback_theta"),
    ("T2", "pullback_half"),
    ("B2xT1", "phi_theta"),
    ("B2xT1", "phi_zero"),
    ("B2xT3", "b2t3"),
]


@pytest.mark.parametrize("name, stem", PERIODIC_FIXTURE_PAIRINGS)
def test_omega_matches_partition_route_on_fixtures(partitions, name, stem):
    g = builtin(name)
    c, _ = load_cocycle(os.path.join(FIXTURES, stem + ".json"), g)
    basis = tuple(per_group(g).lattice.rows)
    assert basis
    assert omega_from_oracle(g, InducedCocycle(c), basis).rows == omega_by_partition(g, c, basis, partitions)


phase_values = st.builds(
    lambda n, d, s, t: Z(Fraction(n, d), s=s, t=t),
    st.integers(-3, 3),
    st.integers(1, 6),
    st.integers(-2, 2),
    st.integers(-2, 2),
)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_omega_of_random_torus_pullback(graphs, partitions, k, data):
    # on T_k the generators are the unit vectors, and the antisymmetrization
    # of a pullback Theta is Theta - Theta^T
    g, _ = graphs[f"T{k}"]
    theta_m = tuple(tuple(data.draw(phase_values) for _ in range(k)) for _ in range(k))
    c = PullbackCocycle(theta_m)
    basis = tuple(dg.unit(k, i + 1) for i in range(k))
    om = omega_from_oracle(g, InducedCocycle(c), basis)
    assert om.rows == omega_by_partition(g, c, basis, partitions)
    anti = om.antisymmetrization()
    for i in range(k):
        for j in range(k):
            assert anti[i][j] == theta_m[i][j] - theta_m[j][i]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["C3xT1", "C3xT2"]), st.data())
def test_omega_of_random_product_cocycle(graphs, partitions, name, data):
    # multi-vertex products with a random phase on the base edges (the torus
    # loops carry none, so the squares hold) and a random torus twist
    g, basis = graphs[name]
    l = g.k - 1
    phi = OneCocyclePhi(l, {
        e.id: tuple(data.draw(phase_values) if e.color == 1 else zero for _ in range(l))
        for e in g.edges
    })
    assert validate_phi(phi, g).ok
    om_in = BicharacterTable(
        l, tuple(tuple(data.draw(phase_values) if i > j else zero for j in range(l)) for i in range(l))
    )
    c = PhiOmegaCocycle(l, phi, om_in)
    assert omega_from_oracle(g, InducedCocycle(c), basis).rows == omega_by_partition(g, c, basis, partitions)


@pytest.mark.parametrize("name", ["T2", "B2xT3", "C3xT2"])
def test_cancelled_cell_is_a_function_of_the_element(name):
    # the products both ways and the isotropy element of the sum are one
    # element, written three ways; they must all resolve to one cell
    g = builtin(name)
    basis = tuple(per_group(g).lattice.rows)
    x = canonical_tail(g, min(g.vertices))
    periods = basis + tuple(dg.scale(-1, p) for p in basis)
    for p in periods:
        for q in periods:
            iso_p, iso_q = isotropy_element(x, p), isotropy_element(x, q)
            forms = [
                compose_elements(iso_p, iso_q),
                compose_elements(iso_q, iso_p),
                isotropy_element(x, dg.add(p, q)),
            ]
            found = {el.cell() for el in forms}
            assert len(found) == 1
            mu, nu = found.pop()
            for el in forms:
                assert el.range_path.segment_to(mu.degree) == mu
                assert el.source_path.segment_to(nu.degree) == nu
                assert el.range_path.shift(mu.degree) == el.source_path.shift(nu.degree)


# --- coboundary -------------------------------------------------------------


def test_coboundary_box_t2(t2, t2_cocycle):
    per = per_group(t2)
    basis = tuple(per.lattice.rows)
    om = omega_from_oracle(t2, InducedCocycle(t2_cocycle), basis)
    P6 = build_partition(t2, 6)
    bx = CoboundaryBx(om, InducedCocycle(t2_cocycle, P6.member), canonical_tail(t2, "v"), basis)
    checked, bad = bx.verify_box(3)
    assert checked == 49 * 49
    assert not bad


def _verify_box_reference(bx, radius):
    """`CoboundaryBx.verify_box` as the plain loop over `ctilde`."""
    checked = 0
    bad = []
    for p in dg.signed_box((radius,) * bx.l):
        for q in dg.signed_box((radius,) * bx.l):
            checked += 1
            try:
                lhs = (bx.value(p) + bx.value(q)) - bx.value(dg.add(p, q))
                if lhs != bx.ctilde(p, q):
                    bad.append(f"delta b != ctilde at ({p}, {q})")
            except ResolutionError as err:
                bad.append(f"delta b != ctilde at ({p}, {q}): {err}")
    return checked, bad


def _box_outcome(route, om, c, x, basis, radius):
    """(checked, bad) of one route on a fresh store, or the text of the
    CocycleDomainError it raised."""
    try:
        return route(CoboundaryBx(om, InducedCocycle(c), x, basis), radius)
    except CocycleDomainError as err:
        return ("CocycleDomainError", str(err))


# C3xT2 has rank 3, so radius 3 would be 117,649 pairs per route.
@pytest.mark.parametrize("name, stem, radii", [
    ("T2", "pullback_theta", (1, 2, 3)),
    ("B2xT1", "phi_theta", (1, 2, 3)),
    ("C3xT2", None, (1, 2)),
    ("T2", "perturbed", (1, 2, 3)),
])
def test_verify_box_matches_the_ctilde_loop(name, stem, radii):
    g, c = _suite_case(name, stem)
    basis = tuple(per_group(g).lattice.rows)
    x = canonical_tail(g, min(g.vertices))
    om = omega_from_oracle(g, InducedCocycle(c), basis)
    kept = {}
    for radius in radii:
        kept[radius] = _box_outcome(CoboundaryBx.verify_box, om, c, x, basis, radius)
        assert kept[radius] == _box_outcome(_verify_box_reference, om, c, x, basis, radius), radius
        if stem != "perturbed":
            assert kept[radius] == ((2 * radius + 1) ** (2 * len(basis)), [])
    if stem == "perturbed":
        # 13 of the 81 pairs at radius 1 fail; past it the table runs out
        assert kept[1][0] == 81 and len(kept[1][1]) == 13
        assert kept[3][0] == "CocycleDomainError"


def test_coboundary_rejects_wrong_target(t2, t2_sigma):
    per = per_group(t2)
    basis = tuple(per.lattice.rows)
    wrong = BicharacterTable.zero(2)
    with pytest.raises(ValueError):
        CoboundaryBx(wrong, t2_sigma, canonical_tail(t2, "v"), basis)


# --- property suites --------------------------------------------------------


def test_suite_identity_t2(t2, t2_sigma):
    res = suite_cocycle_identity(t2, t2_sigma, depth=1, max_triples=500)
    assert res.ok
    assert res.checked == 500


def test_suite_identity_b2xt1(b2xt1, b2xt1_sigma):
    res = suite_cocycle_identity(b2xt1, b2xt1_sigma, depth=1, max_triples=400)
    assert res.ok
    assert res.checked == 400


def test_suite_resolution(t2, t2_sigma):
    # T2 has 64 distinct pairs at depth 1, fewer than the cap
    res = suite_resolution_independence(t2, t2_sigma, depth=1)
    assert res.ok
    assert res.checked == 64


def test_suite_resolution_counts_only_resolution_errors(t2):
    # a 2-cocycle violation is a counted counterexample; a window too
    # shallow for the elements is not, and escapes
    corrupted = InducedCocycle(corrupted_t2_table((3, 3)), build_partition(t2, 3).member)
    res = suite_resolution_independence(t2, corrupted, depth=1)
    assert res.checked == 64
    assert res.violations and all("resolution" in v for v in res.violations)
    with pytest.raises(DepthError):
        shallow = InducedCocycle(PullbackCocycle(((zero,) * 2,) * 2), build_partition(t2, 1).member)
        suite_resolution_independence(t2, shallow, depth=1)


@pytest.mark.parametrize("name, pairs", [("T2", 64), ("B2", 27), ("DISJOINT2", 16), ("B2xT1", 200)])
def test_suite_resolution_checks_each_pair_once(name, pairs):
    # at depth 1 the pairs (a, b) number 16 * 4, 9 * 3, 2 * 4 * 2 and
    # 36 * 6; the last stops at the default cap of 200
    g = builtin(name)
    c = PullbackCocycle(((zero,) * g.k,) * g.k)
    res = suite_resolution_independence(g, InducedCocycle(c, build_partition(g, 3).member), depth=1)
    assert res.ok
    assert res.checked == pairs


def test_suite_conjugation(t2, t2_sigma):
    per = per_group(t2)
    res = suite_conjugation_formula(t2, t2_sigma, tuple(per.lattice.rows), depth=1, max_checks=150)
    assert res.ok
    assert res.checked == 150


def test_suite_centre_half_twist(t2, t2_partition):
    # with the half-integer twist the degeneracy lattice is 2Z x 2Z and the
    # phases of isotropy elements on it must all wind to one
    c = PullbackCocycle(((zero, zero), (Z(Fraction(1, 2)), zero)))
    per = per_group(t2)
    res = suite_centre_phase_triviality(
        t2, InducedCocycle(c, t2_partition.member), tuple(per.lattice.rows), ((2, 0), (0, 2)), depth=1
    )
    assert res.ok
    assert res.checked > 0
    # (1, 0) is outside that lattice: across (x, q, x) its phase is the
    # commutator q_2 / 2, so a centre that held it fails on the 6 samples q
    # with an odd q_2 at each of the 4 tails
    wrong = suite_centre_phase_triviality(
        t2, InducedCocycle(c, t2_partition.member), tuple(per.lattice.rows), ((1, 0),), depth=1
    )
    assert wrong.checked == 36 and len(wrong.violations) == 24
    assert all(v.startswith("nontrivial phase PhaseExponent('1/2') at (") for v in wrong.violations)


def test_suite_centre_b2xt1(b2xt1, b2xt1_sigma):
    per = per_group(b2xt1)
    res = suite_centre_phase_triviality(b2xt1, b2xt1_sigma, tuple(per.lattice.rows), ((1,),), depth=1)
    assert res.ok
    assert res.checked > 0


# --- the suites through either cell source ----------------------------------


def _twist_last(k):
    """The pullback twist with theta in entry [k-1][k-2] only."""
    return PullbackCocycle(
        tuple(tuple(theta if (i, j) == (k - 1, k - 2) else zero for j in range(k)) for i in range(k))
    )


def suites_by_cell_source(monkeypatch, g, c, reference_depth):
    """run_suites at element depth 1, through element cells and then through
    a partition to `reference_depth`, as (name, checked, ok) rows and notes."""
    runs = []
    P = build_partition(g, reference_depth)
    for store in (InducedCocycle, lambda c: InducedCocycle(c, P.member)):
        monkeypatch.setattr(oracle, "InducedCocycle", store)
        suites, notes, _, _ = oracle.run_suites(g, c, 2, 500)
        runs.append(([(s.name, s.checked, s.ok) for s in suites], notes))
    return runs


# The period (3, 0, ...) of the cycle needs a deeper reference box in its colour.
@pytest.mark.parametrize("name, stem, reference_depth", [
    pytest.param(name, stem, depth, id=name)
    for name, stem, depth in (
        ("T2", "pullback_theta", 3),
        ("B2", "pullback_b2", 3),
        ("B2xT1", "phi_theta", 3),
        ("DISJOINT2", "pullback_b2", 3),
        ("C3xT1", None, (9, 3)),
        ("C3xT2", None, (6, 3, 3)),
    )
])
def test_suites_agree_through_either_cell_source(monkeypatch, name, stem, reference_depth):
    # any cell that is a function of the element changes sigma by a
    # coboundary, so every suite checks as much and passes alike
    g = builtin(name)
    c = load_cocycle(os.path.join(FIXTURES, stem + ".json"), g)[0] if stem else _twist_last(g.k)
    cancelled, reference = suites_by_cell_source(monkeypatch, g, c, reference_depth)
    assert cancelled == reference
    assert all(ok for _, _, ok in cancelled[0])


def test_both_cell_sources_flag_the_corrupted_table(monkeypatch, t2):
    cancelled, reference = suites_by_cell_source(monkeypatch, t2, corrupted_t2_table((3, 3)), 3)
    assert cancelled == reference
    rows = {name: (checked, ok) for name, checked, ok in cancelled[0]}
    assert rows["cocycle_identity"][1] is False
    assert rows["resolution_independence"] == (64, False)


def test_each_suite_counts_its_resolution_errors(t2):
    # off by 1/3 at (a, a), the half-twist table still resolves the generator
    # pairs, so the bicharacter exists, and the centre and coboundary suites
    # meet resolution-dependent pairs of their own
    half = PullbackCocycle(((zero, zero), (Z(Fraction(1, 2)), zero)))
    entries = tuple(
        (mu, nu, val + Z(Fraction(1, 3)) if (mu[1], nu[1]) == (("a",), ("a",)) else val)
        for mu, nu, val in t2_table_entries(half, (3, 3))
    )
    suites, notes, _, om = oracle.run_suites(t2, TableCocycle((3, 3), entries), 1, 200)
    assert om is not None and not notes
    assert [s.name for s in suites] == [
        "cocycle_identity", "resolution_independence", "conjugation_formula",
        "centre_phase_triviality", "coboundary_box",
    ]
    for s in suites:
        assert any("depended on the resolution" in v for v in s.violations), s.name
