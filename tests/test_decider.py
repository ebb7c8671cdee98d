"""Decision cascade: verdicts, certificates, and their independent rechecks."""

import json
from collections import Counter
from fractions import Fraction

import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktwist import cli, decider
from ktwist import degrees as dg
from ktwist.cocycles import (
    BicharacterTable,
    OneCocyclePhi,
    PhiOmegaCocycle,
    PullbackCocycle,
    phi_tilde,
    validate_product_split,
)
from ktwist.decider import (
    NONSIMPLE,
    SIMPLE,
    RecheckError,
    decide_simplicity,
    orbit_phase_generators,
    potential_certificate,
    verify_potential,
    verify_z_omega,
    z_omega_of,
)
from ktwist.groupoid import InducedCocycle, omega_from_oracle
from ktwist.io import serialize_cocycle, serialize_graph
from ktwist.kgraph import Edge, KGraph, Square, builtin, product_base, product_with_Tl, validate_kgraph
from ktwist.lattices import LatticeBasis, integral_pairing_lattice, kronecker_dense
from ktwist.phases import PhaseExponent, format_phase, integer_rows, pair_int
from ktwist.structure import UNKNOWN, YES, Verdict, default_period_bound, is_aperiodic, is_cofinal, per_group

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    import analytic_families
    from test_structure import single_vertex_two_graphs
finally:
    sys.path.pop(0)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

Z = PhaseExponent.of
zero = PhaseExponent.zero()
theta = Z(0, theta=1)
rho = Z(0, rho=1)
half = Z(Fraction(1, 2))


def t2_pullback(x):
    return PullbackCocycle(((zero, zero), (x, zero)))


def b2xt1_phi(f_phase):
    g = builtin("B2xT1")
    phi = OneCocyclePhi(1, {e.id: ((f_phase if e.id == "f" else zero),) for e in g.edges})
    return g, PhiOmegaCocycle(1, phi, BicharacterTable.zero(1))


def strongly_connected(g):
    """The cofinality kind, as the cascade reads strong connectivity."""
    return is_cofinal(g).certificate == {"kind": "strongly_connected"}


def b2xt3_cocycle():
    g = builtin("B2xT3")
    phi = OneCocyclePhi(
        3,
        {e.id: ((theta, zero, zero) if e.id == "f" else (zero, zero, zero)) for e in g.edges},
    )
    om = BicharacterTable(3, ((zero, zero, zero), (zero, zero, zero), (zero, rho, zero)))
    return g, PhiOmegaCocycle(3, phi, om)


# --- the six cascade outcomes ------------------------------------------------


def test_torus_symbolic_twist_simple():
    rep = decide_simplicity(builtin("T2"), t2_pullback(theta))
    assert rep.verdict.status == SIMPLE
    assert rep.verdict.certificate["kind"] == "z_omega_trivial"
    assert rep.z_omega is not None and rep.z_omega.is_trivial()


def test_torus_half_twist_nonsimple():
    rep = decide_simplicity(builtin("T2"), t2_pullback(half))
    assert rep.verdict.status == NONSIMPLE
    assert rep.verdict.certificate["kind"] == "central_period_obstruction"
    z = rep.z_omega
    assert z.member((2, 0)) and z.member((0, 2))
    assert not z.member((1, 0)) and not z.member((0, 1))


def test_b2xt1_twisted_flow_simple():
    g, c = b2xt1_phi(theta)
    rep = decide_simplicity(g, c)
    assert rep.verdict.status == SIMPLE
    assert rep.verdict.certificate["kind"] == "kronecker_dense"
    # the projected orbit phase group must mention the irrational slope
    assert any(
        any(x.coeff("theta") for x in vec) for vec in rep.density_generators
    )


def test_b2xt1_untwisted_nonsimple_by_potential():
    g, c = b2xt1_phi(zero)
    rep = decide_simplicity(g, c)
    assert rep.verdict.status == NONSIMPLE
    cert = rep.verdict.certificate
    assert cert["kind"] == "orbit_potential"
    assert cert["n"] == [1] or cert["n"] == [-1]


def test_b2xt3_simple():
    g, c = b2xt3_cocycle()
    rep = decide_simplicity(g, c)
    assert rep.verdict.status == SIMPLE
    assert rep.z_omega.rank == 1
    assert rep.z_omega.member((1, 0, 0))


def test_disjoint_always_nonsimple():
    g = builtin("DISJOINT2")
    rep = decide_simplicity(g, PullbackCocycle(((zero,),)))
    assert rep.verdict.status == NONSIMPLE
    assert rep.verdict.certificate["kind"] == "not_cofinal"


def twist_last(k):
    """The pullback twist with theta in entry [k-1][k-2] only."""
    return PullbackCocycle(
        tuple(tuple(theta if (i, j) == (k - 1, k - 2) else zero for j in range(k)) for i in range(k))
    )


# The periods of C3 x T_l are 3e_1 and the torus units, and those of T3 the
# units.  Theta - Theta^T pairs only the last two colours, by -+theta, so
# on C3xT1 the generators pair irrationally and Z_omega is trivial, while
# on C3xT2 and T3 the first generator pairs trivially with everything and
# spans Z_omega.
@pytest.mark.parametrize("name, status, kind, periods, z_rows", [
    ("C3xT1", SIMPLE, "z_omega_trivial", ((3, 0), (0, 1)), ()),
    ("C3xT2", NONSIMPLE, "central_period_obstruction", ((3, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0),)),
    ("T3", NONSIMPLE, "central_period_obstruction", ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0),)),
])
def test_twist_of_the_last_two_colours(name, status, kind, periods, z_rows):
    g = builtin(name)
    rep = decide_simplicity(g, twist_last(g.k))
    assert rep.verdict.status == status
    assert rep.verdict.certificate["kind"] == kind
    assert tuple(rep.per.lattice.rows) == periods
    assert tuple(rep.z_omega.rows) == z_rows


def test_unhandled_shape_is_unknown():
    # a degree-bilinear twist on a non-torus graph with nontrivial central
    # periods falls outside every certified branch
    g = builtin("B2xT1")
    c = PullbackCocycle(((zero, zero), (theta, zero)))
    rep = decide_simplicity(g, c)
    assert rep.verdict.status == UNKNOWN


# a loop a at v and one edge b with range w and source v: cofinal, every
# degree is a period at v and none at w, and the algebra is M_2(C(T)), which
# is not simple
TAIL = KGraph(1, ("v", "w"), (Edge("a", 1, "v", "v"), Edge("b", 1, "w", "v")), (), name="TAIL")


def tail_files(tmp_path):
    """The tail graph and a zero pullback cocycle on it, as file paths."""
    graph = tmp_path / "tail.json"
    graph.write_text(serialize_graph(TAIL), encoding="utf-8")
    cocycle = tmp_path / "zero.json"
    cocycle.write_text(serialize_cocycle(PullbackCocycle(((zero,),))), encoding="utf-8")
    return str(graph), str(cocycle)


def test_periods_that_differ_by_vertex_are_unknown(tmp_path, capsys):
    # the intersection of the periods is trivial, so z_omega_trivial would
    # certify the tail graph simple
    rep = decide_simplicity(TAIL, PullbackCocycle(((zero,),)))
    assert rep.verdict.status == UNKNOWN
    assert "per_vertex_agreement" in rep.verdict.reason
    assert rep.per.per_vertex_agreement is False and rep.omega is None
    graph, cocycle = tail_files(tmp_path)
    assert cli.main(["simplicity", graph, "--cocycle", cocycle]) == 2
    assert capsys.readouterr().out == "verdict: UNKNOWN\n"


def test_cofinal_rank_two_graph_with_periods_that_differ_by_vertex_is_unknown():
    # TAIL x T1 is cofinal without being strongly connected, so it reaches
    # the period search, whose agreement guard declines it
    g = product_with_Tl(TAIL, 1)
    rep = decide_simplicity(g, PullbackCocycle(((zero, zero), (zero, zero))))
    assert rep.verdict.status == UNKNOWN
    assert "per_vertex_agreement" in rep.verdict.reason


def test_non_cofinal_rank_two_graph_is_certified_nonsimple(tmp_path, capsys):
    # no path from w reaches u, and w carries a loop of each colour
    cocycle = tmp_path / "zero.json"
    cocycle.write_text(serialize_cocycle(PullbackCocycle(((zero, zero), (zero, zero)))), encoding="utf-8")
    args = ["simplicity", "builtin:DISJOINT2xT1", "--cocycle", str(cocycle), "--format", "structured"]
    assert cli.main(args) == 0
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["status"] == NONSIMPLE and verdict["certificate"]["kind"] == "not_cofinal"
    assert cli.main(["analyze", "builtin:DISJOINT2xT1"]) == 0
    assert "cofinal: NO_CERTIFIED" in capsys.readouterr().out.splitlines()


def test_omega_analyze_and_oracle_refuse_periods_that_differ_by_vertex(tmp_path, capsys):
    graph, cocycle = tail_files(tmp_path)
    assert cli.main(["omega", graph, "--cocycle", cocycle]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the periods differ from vertex to vertex") and err.count("\n") == 1
    assert cli.main(["analyze", graph, "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["per_basis"] is None
    assert cli.main(["analyze", graph]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "per_basis: not computed (the periods differ from vertex to vertex)" in lines
    assert cli.main(["oracle", graph, "--cocycle", cocycle, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in doc["suites"]] == ["cocycle_identity", "resolution_independence"]
    assert doc["notes"] == ["the periods differ from vertex to vertex; period-dependent suites skipped"]


# --- certificate rechecks ----------------------------------------------------


def test_verify_z_omega_accepts_the_real_lattice_only():
    g = builtin("T2")
    per = per_group(g)
    om = omega_from_oracle(g, InducedCocycle(t2_pullback(half)), tuple(per.lattice.rows))
    z = z_omega_of(om)
    assert verify_z_omega(om, z)
    wrong = LatticeBasis.from_rows([(1, 0), (0, 1)], 2)
    assert not verify_z_omega(om, wrong)
    # central generators of the right rank that miss (2, 0): the index step finds it
    assert z.member((2, 0))
    assert not verify_z_omega(om, LatticeBasis.from_rows([(4, 0), (0, 2)], 2))


def test_verify_z_omega_sees_beyond_any_box():
    # the commutator denominator is 6, so Z_omega = 6Z x 6Z has no nonzero
    # vector in the radius-2 box; a box recheck accepted both forgeries
    sixth = Z(Fraction(1, 6))
    om = BicharacterTable(2, ((zero, sixth), (zero, zero)))
    z = z_omega_of(om)
    assert z == LatticeBasis.from_rows([(6, 0), (0, 6)], 2)
    assert verify_z_omega(om, z)
    assert not verify_z_omega(om, LatticeBasis.trivial(2))
    assert not verify_z_omega(om, LatticeBasis.from_rows([(0, 6)], 2))


def commutator_columns(omega):
    """Column j of the l x l commutator table: [e_i, e_j] over i."""
    units = [dg.unit(omega.rank, i + 1) for i in range(omega.rank)]
    return [tuple(omega.commutator(u, w) for u in units) for w in units]


def phase_rule(omega):
    """The earlier centre test, in phase arithmetic: p is central iff it
    pairs every commutator column into the integers."""
    columns = commutator_columns(omega)
    return lambda p: all(pair_int(p, col).is_trivial() for col in columns)


def dot(p, a):
    return sum(x * y for x, y in zip(p, a, strict=True))


@st.composite
def bicharacters(draw):
    """l x l tables, l = 1..3: rational parts with denominators 1..6, and
    0 to 2 symbols whose coefficients are often 0."""
    l = draw(st.integers(1, 3))
    symbols = ("theta", "rho")[: draw(st.integers(0, 2))]

    def entry():
        rat = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
        irr = tuple((s, Fraction(draw(st.sampled_from([0, 0, 1, -1, 2])), draw(st.integers(1, 6)))) for s in symbols)
        return PhaseExponent(rat, irr)

    return BicharacterTable(l, tuple(tuple(entry() for _ in range(l)) for _ in range(l)))


@settings(max_examples=200, deadline=None)
@given(bicharacters(), st.lists(st.tuples(*[st.integers(-6, 6)] * 3), max_size=3))
def test_integer_centre_rule_matches_phase_rule(om, drawn):
    l = om.rank
    box = list(dg.signed_box((2,) * l))
    central, reference = decider._centre_rule(*decider._integer_columns(om)), phase_rule(om)
    assert [central(p) for p in box] == [reference(p) for p in box]
    # the shared column decomposition gives back pair_int exactly
    for col in commutator_columns(om):
        S, a, b = integer_rows(col)
        symbols = sorted({s for x in col for s in x.symbols()})
        for p in box:
            irr = tuple((s, Fraction(dot(p, row), S)) for s, row in zip(symbols, b, strict=True))
            assert PhaseExponent(Fraction(dot(p, a), S), irr) == pair_int(p, col)
    z = z_omega_of(om)
    assert verify_z_omega(om, z)
    forged = [z.rows[:i] + (tuple(q * x for x in r),) + z.rows[i + 1:] for i, r in enumerate(z.rows) for q in (2, 3, 5)]
    forged += [z.rows[:i] + z.rows[i + 1:] for i in range(z.rank)]
    forged += [z.rows + (dg.unit(l, j + 1),) for j in range(l)]
    forged += [[r[:l] for r in drawn]]
    for rows in forged:
        lat = LatticeBasis.from_rows(rows, l)
        assert verify_z_omega(om, lat) == (lat == z)


def test_verify_z_omega_does_no_phase_arithmetic_after_its_columns(monkeypatch):
    g = builtin("C3xT2")
    per = per_group(g)
    om = omega_from_oracle(g, InducedCocycle(twist_last(3)), per.lattice.rows)
    z = z_omega_of(om)
    calls = []
    for name in ("scaled", "__add__", "__sub__"):
        method = getattr(PhaseExponent, name)
        monkeypatch.setattr(PhaseExponent, name, lambda x, y, f=method, n=name: calls.append(n) or f(x, y))
    rows = decider.integer_rows
    monkeypatch.setattr(decider, "integer_rows", lambda v: calls.append("column") or rows(v))
    assert verify_z_omega(om, z)
    assert calls.count("column") == 3
    last = len(calls) - calls[::-1].index("column")
    # each commutator entry is one difference of two table entries, read
    # while its column is built; no phase is scaled and nothing after the
    # columns is phase arithmetic
    assert calls[:last] == (["__sub__"] * 3 + ["column"]) * 3
    assert calls[last:] == []


def test_potential_certificate_and_verifier():
    g, c = b2xt1_phi(zero)
    zfull = LatticeBasis.from_rows([(1,)], 1)
    w = orbit_phase_generators(g, c.phi, zfull)
    hit = potential_certificate(g, w, zfull.rank)
    assert hit is not None
    n, psi = hit
    assert verify_potential(g, w, n, psi)
    # the twisted version admits no potential
    g2, c2 = b2xt1_phi(theta)
    assert potential_certificate(g2, orbit_phase_generators(g2, c2.phi, zfull), zfull.rank) is None


def test_verify_potential_rejects_false_claim():
    # the twisted cocycle has no potential; claiming the zero one must fail
    g, c = b2xt1_phi(theta)
    zfull = LatticeBasis.from_rows([(1,)], 1)
    psi = {v: zero for v in g.vertices}
    assert not verify_potential(g, orbit_phase_generators(g, c.phi, zfull), (1,), psi)
    # degenerate character vectors are rejected outright
    g0, c0 = b2xt1_phi(zero)
    w0 = orbit_phase_generators(g0, c0.phi, zfull)
    psi0 = {v: zero for v in g0.vertices}
    assert not verify_potential(g0, w0, (0,), psi0)
    # the true potential of the untwisted cocycle, with a vertex left out
    assert verify_potential(g0, w0, (1,), psi0)
    assert not verify_potential(g0, w0, (1,), {})
    # malformed certificates, as a saved report could hold them, are rejected
    for n in (("a",), (1.0,), 3):
        assert not verify_potential(g0, w0, n, psi0)
    assert not verify_potential(g0, w0, (1,), {v: format_phase(p) for v, p in psi0.items()})
    assert not verify_potential(g0, {eid: p for eid, p in w0.items() if eid != "e"}, (1,), psi0)


# --- analytic families -------------------------------------------------------


# the verdicts and certificate kinds that the families' default seeds give
FAMILY_COUNTS = {
    "B_n x T1 phi-omega": {(SIMPLE, "kronecker_dense"): 109, (NONSIMPLE, "orbit_potential"): 11},
    "T2 pullback": {(SIMPLE, "z_omega_trivial"): 85, (NONSIMPLE, "central_period_obstruction"): 35},
    "T3 and T4 pullback": {(SIMPLE, "z_omega_trivial"): 80, (NONSIMPLE, "central_period_obstruction"): 40},
}


@pytest.mark.parametrize("family", list(FAMILY_COUNTS))
def test_verdicts_agree_with_an_analytic_family(family):
    counts = Counter()
    for g, c, simple in analytic_families.FAMILIES[family]():
        verdict = decide_simplicity(g, c).verdict
        assert verdict.status == (SIMPLE if simple else NONSIMPLE), (g.name, c)
        counts[verdict.status, verdict.certificate["kind"]] += 1
    assert counts == FAMILY_COUNTS[family]


def test_no_verdict_contradicts_the_bn_t1_pullback_family():
    # no draw is certified yet: an UNKNOWN is counted by its reason, and a
    # certified verdict must agree with the prediction
    counts, predicted = Counter(), Counter()
    for g, c, simple in analytic_families.bn_t1_pullback():
        verdict = decide_simplicity(g, c).verdict
        assert verdict.status in (UNKNOWN, SIMPLE if simple else NONSIMPLE), (g.name, c)
        counts[verdict.status, verdict.certificate["kind"] if verdict.certificate else verdict.reason] += 1
        predicted[simple] += 1
    assert counts == {(UNKNOWN, "degenerate directions present and no applicable density reduction"): 120}
    assert predicted == {True: 80, False: 40}


# --- orbit phase group -------------------------------------------------------


def test_orbit_generators_are_dense_on_b2xt1():
    # the decision procedure enumerates orbits on the torus-free base graph
    g, c = b2xt1_phi(theta)
    zfull = LatticeBasis.from_rows([(1,)], 1)
    base = product_base(g, 1)
    gens = list(orbit_phase_generators(base, c.phi, zfull).values())
    assert any(any(x.coeff("theta") for x in vec) for vec in gens)
    res = kronecker_dense(gens, 1)
    assert res.dense


def test_full_period_density_fails_on_b2xt3():
    # restricted to the degenerate direction the phases are dense, but over
    # the whole period block the third coordinate stays rational
    g, c = b2xt3_cocycle()
    zfull = LatticeBasis.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    base = product_base(g, 3)
    gens = list(orbit_phase_generators(base, c.phi, zfull).values())
    res = kronecker_dense(gens, 3)
    assert not res.dense
    assert res.annihilator.member((0, 0, 1))


def reference_orbit_generators(g, phi, zbasis, bound):
    """The orbit phases of all source-matched path pairs up to the bound, by a plain phi_tilde loop."""
    by_source = {v: [] for v in g.vertices}
    for n in dg.box((bound,) * g.k):
        for v in g.vertices:
            for p in g.paths_from(v, n):
                by_source[p.source].append(p)
    seen, out = set(), []
    for v in sorted(by_source):
        for mu in by_source[v]:
            for nu in by_source[v]:
                vec = tuple(pair_int(z, phi_tilde(phi, mu, nu)) for z in zbasis.rows)
                if vec not in seen:
                    seen.add(vec)
                    out.append(vec)
    return out


phase_values = st.builds(
    lambda n, d, s, r: Z(Fraction(n, d), theta=s, rho=r),
    st.integers(-3, 3),
    st.integers(1, 4),
    st.integers(-2, 2),
    st.integers(-2, 2),
)


def orbit_base(name):
    """A strongly connected base: a builtin one, or UW of the two-vertex products below."""
    return two_vertex_base(("a", "b")) if name == "UW" else builtin(name)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["B2", "B3", "C3", "UW"]), st.integers(1, 4), st.integers(1, 2), st.data())
def test_orbit_generators_match_plain_pair_loop(name, bound, l, data):
    # a random phase on every edge, projected on a random sublattice of Z^l
    g = orbit_base(name)
    phi = OneCocyclePhi(l, {e.id: tuple(data.draw(phase_values) for _ in range(l)) for e in g.edges})
    rows = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * l), min_size=1, max_size=l))
    zbasis = LatticeBasis.from_rows(rows, l)
    proj = orbit_phase_generators(g, phi, zbasis)
    assert list(proj) == sorted(e.id for e in g.edges)
    # the edge projections span the group of the path pairs at every bound
    gens, ref = list(proj.values()), reference_orbit_generators(g, phi, zbasis, bound)
    assert integral_pairing_lattice(gens, zbasis.rank) == integral_pairing_lattice(ref, zbasis.rank)
    assert kronecker_dense(gens, zbasis.rank).dense == kronecker_dense(ref, zbasis.rank).dense
    # the fact step 4 rests on: the projections are dense unless some
    # n != 0 has n . P(e) in Z on every edge, and then psi = 0 is a potential
    if potential_certificate(g, proj, zbasis.rank) is None:
        assert kronecker_dense(gens, zbasis.rank).dense


# --- bounds ------------------------------------------------------------------


def test_bound_sets_only_the_period_box_of_a_density_certificate(capsys):
    # one generator per base edge, whatever the box: the bound reaches the
    # report only as exhaustive_up_to
    args = ["simplicity", os.path.join(FIXTURES, "B2xT1.json"), "--cocycle", os.path.join(FIXTURES, "phi_theta.json")]
    docs = []
    for extra in ([], ["--bound", "3"], ["--bound", "2,3"]):
        assert cli.main([*args, *extra, "--format", "structured"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    boxes = [doc["periods"].pop("exhaustive_up_to") for doc in docs]
    assert boxes == [[2, 2], [3, 3], [2, 3]]
    assert docs[0] == docs[1] == docs[2]
    assert docs[0]["verdict"]["certificate"]["kind"] == "kronecker_dense"
    assert docs[0]["density_generators"] == [["0"], ["0 + 1*theta"]]


def test_z_omega_invariant_under_symmetric_perturbation():
    # adding a symmetric table changes omega but not its antisymmetrization,
    # hence not the degeneracy lattice
    g = builtin("T2")
    per = per_group(g)
    om = omega_from_oracle(g, InducedCocycle(t2_pullback(half)), tuple(per.lattice.rows))
    sym = BicharacterTable(
        2, ((Z(0, s=1), Z(0, t=1)), (Z(0, t=1), Z(Fraction(1, 3))))
    )
    perturbed = BicharacterTable(
        2,
        tuple(
            tuple(om.rows[i][j] + sym.rows[i][j] for j in range(2)) for i in range(2)
        ),
    )
    assert z_omega_of(om).rows == z_omega_of(perturbed).rows


def test_report_serialization_shape():
    g, c = b2xt1_phi(theta)
    rep = decide_simplicity(g, c)
    doc = rep.to_jsonable()
    assert doc["verdict"]["status"] == SIMPLE
    assert "periods" in doc
    assert "z_omega" in doc
    assert "density_generators" in doc


def test_failed_recheck_exits_3_and_names_the_certificate(monkeypatch, capsys):
    monkeypatch.setattr(decider, "verify_z_omega", lambda omega, z: False)
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures", "pullback_theta.json")
    assert cli.main(["simplicity", "builtin:T2", "--cocycle", fixture]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: degeneracy lattice certificate failed its recheck\n"
    assert "verdict" not in captured.out
    # the torus step: a broken invariant exits 3, never UNKNOWN; a group
    # without a potential that is not dense is one, since the proof rules it out
    monkeypatch.undo()
    for name, forged, cocycle, certificate in (
        ("verify_potential", lambda *args: False, "phi_zero.json", "potential"),
        ("kronecker_dense", lambda gens, d: kronecker_dense([], d), "phi_theta.json", "density"),
        ("verify_kronecker", lambda *args: False, "phi_theta.json", "density"),
    ):
        with monkeypatch.context() as m:
            m.setattr(decider, name, forged)
            assert cli.main(["simplicity", "builtin:B2xT1", "--cocycle", os.path.join(FIXTURES, cocycle)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {certificate} certificate failed its recheck\n"
        assert "verdict" not in captured.out


# one vertex, red loops a and b, one blue loop t, with a.t = t.b and b.t = t.a:
# a blue loop at every vertex, but not a product with T1, since t swaps a and b
SWAP_T = KGraph(
    2,
    ("v",),
    (Edge("a", 1, "v", "v"), Edge("b", 1, "v", "v"), Edge("t", 2, "v", "v")),
    (Square(1, 2, "a", "t", "t", "b"), Square(1, 2, "b", "t", "t", "a")),
    name="SWAPT",
)


def test_human_report_prints_the_note(tmp_path, capsys):
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures", "phi_theta.json")
    assert cli.main(["simplicity", "builtin:B2xT3", "--cocycle", fixture]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "verdict: UNKNOWN",
        "note: period lattice is not exactly the torus directions; orbit reduction unavailable",
    ]
    assert validate_kgraph(SWAP_T).ok
    c = PhiOmegaCocycle(1, OneCocyclePhi(1, {e.id: (zero,) for e in SWAP_T.edges}), BicharacterTable.zero(1))
    assert decide_simplicity(SWAP_T, c).per.lattice == LatticeBasis.from_rows([(0, 2)], 2)
    graph, cocycle = tmp_path / "swapt.json", tmp_path / "phi.json"
    graph.write_text(serialize_graph(SWAP_T), encoding="utf-8")
    cocycle.write_text(serialize_cocycle(c), encoding="utf-8")
    assert cli.main(["simplicity", str(graph), "--cocycle", str(cocycle)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "verdict: UNKNOWN",
        "note: not a recognizable torus product: square of ('a', torus color 2) does not commute plainly",
    ]


def test_a_forged_yes_cofinality_verdict_fails_its_recheck(monkeypatch):
    # DISJOINT2 is not cofinal: a YES claim for it must not reach the cascade
    monkeypatch.setattr(decider, "is_cofinal", lambda g: Verdict(YES, {"kind": "tail_check"}))
    with pytest.raises(RecheckError, match="^cofinality certificate failed its recheck$"):
        decide_simplicity(builtin("DISJOINT2"), PullbackCocycle(((zero,),)))


# --- the orbit step on a two-vertex base -------------------------------------


def two_vertex_base(ids: tuple[str, str]) -> KGraph:
    """u <-> w with a loop l at u; ids names the edge with source u and range w, then the one back."""
    out, back = ids
    return KGraph(1, ("u", "w"), (Edge(out, 1, "w", "u"), Edge(back, 1, "u", "w"), Edge("l", 1, "u", "u")), ())


def two_vertex_product(ids: tuple[str, str], phases: dict[str, PhaseExponent]):
    """The two-vertex base, times T1, and phi_omega with l = 1, omega = 0.

    The order of ids decides whether the spanning forest leaves the root u
    along its first edge outward or inward.
    """
    g = product_with_Tl(two_vertex_base(ids), 1)
    phi = OneCocyclePhi(1, {e.id: (phases.get(e.id, zero),) for e in g.edges})
    return g, PhiOmegaCocycle(1, phi, BicharacterTable.zero(1))


@pytest.mark.parametrize("ids", [("a", "b"), ("b", "a")], ids=["outward", "inward"])
def test_orbit_step_on_a_two_vertex_base(ids):
    out, back = ids
    third = Z(Fraction(1, 3))

    def decide(phases):
        g, c = two_vertex_product(ids, phases)
        assert validate_product_split(g, 1).ok and strongly_connected(g)
        return decide_simplicity(g, c).verdict

    got = decide({})
    assert got.status == NONSIMPLE
    assert got.certificate == {"kind": "orbit_potential", "n": [1], "psi": {"u": "0", "w": "0"}}
    # phi = delta psi with psi(u) = 0 and psi(w) = 1/3
    got = decide({out: third, back: -third})
    assert got.certificate == {"kind": "orbit_potential", "n": [1], "psi": {"u": "0", "w": "1/3"}}
    got = decide({"l": theta})
    assert (got.status, got.certificate["kind"]) == (SIMPLE, "kronecker_dense")
    for edge in ids:
        got = decide({edge: third})
        assert got.status == NONSIMPLE
        assert (got.certificate["kind"], got.certificate["n"]) == ("orbit_potential", [3])


# B2 with a tail: loops e and f at u and one edge b with range w and source u
B2_TAIL = KGraph(
    1, ("u", "w"), (Edge("e", 1, "u", "u"), Edge("f", 1, "u", "u"), Edge("b", 1, "w", "u")), (), name="B2TAIL"
)


def test_torus_step_needs_a_strongly_connected_base(tmp_path, capsys):
    # B2TAIL x T1 is cofinal with kind tail_check and every vertex has the
    # periods 0 + Z, so the cascade reaches the torus step, which declines it
    g = product_with_Tl(B2_TAIL, 1)
    cof = is_cofinal(g)
    assert cof == Verdict(YES, {"kind": "tail_check"})
    per = per_group(g)
    assert per.per_vertex_agreement and per.lattice == LatticeBasis.from_rows([(0, 1)], 2)
    phi = OneCocyclePhi(1, {e.id: ((theta if e.id == "f" else zero),) for e in g.edges})
    graph, cocycle = tmp_path / "b2tail.json", tmp_path / "phi.json"
    graph.write_text(serialize_graph(g), encoding="utf-8")
    cocycle.write_text(serialize_cocycle(PhiOmegaCocycle(1, phi, BicharacterTable.zero(1))), encoding="utf-8")
    assert cli.main(["simplicity", str(graph), "--cocycle", str(cocycle)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "verdict: UNKNOWN",
        "note: base graph is not strongly connected; orbit reduction unavailable",
    ]


def reaches_torus_step(h: KGraph, l: int) -> bool:
    """Does h, at default bounds, pass the period guards the torus step checks?"""
    cof = is_cofinal(h)
    if cof.status != YES or not validate_product_split(h, l).ok:
        return False
    per = per_group(h)
    return per.per_vertex_agreement and per.lattice == decider._torus_unit_lattice(h.k, l)


def assert_base_aperiodic_where_the_step_is_reached(base: KGraph, l: int) -> bool:
    h = product_with_Tl(base, l)
    reached = reaches_torus_step(h, l)
    if reached:
        assert is_aperiodic(product_base(h, l)).status == YES
    return reached


@pytest.mark.parametrize("l", [1, 2])
def test_torus_step_implies_an_aperiodic_base(l):
    # the step no longer searches the base for periods: its guards imply
    # there are none in the default box
    bases = [builtin("B2"), builtin("B3"), two_vertex_base(("a", "b")), B2_TAIL, TAIL, builtin("C3")]
    reached = [assert_base_aperiodic_where_the_step_is_reached(base, l) for base in bases]
    assert reached == [True, True, True, True, False, False]


@settings(max_examples=20, deadline=None)
@given(single_vertex_two_graphs(), st.integers(1, 2))
def test_torus_step_implies_an_aperiodic_base_on_random_2_graphs(base, l):
    assert_base_aperiodic_where_the_step_is_reached(base, l)


# --- a period box below the default -----------------------------------------

# one red loop r0 and blue loops s0, s1, s2 whose squares swap s0 and s1 and
# fix s2: the base period (2, 0) lies outside the box of radius 1
R1X3 = KGraph(
    2,
    ("v",),
    (Edge("r0", 1, "v", "v"), Edge("s0", 2, "v", "v"), Edge("s1", 2, "v", "v"), Edge("s2", 2, "v", "v")),
    (
        Square(1, 2, "r0", "s0", "s1", "r0"),
        Square(1, 2, "r0", "s1", "s0", "r0"),
        Square(1, 2, "r0", "s2", "s2", "r0"),
    ),
    name="R1x3",
)


BOX_1_NOTE = "period box [1, 1, 1] is below the default [2, 3, 2]; periods outside it are not excluded"


def _r1x3_theta_files(tmp_path):
    """R1x3 times T1 with theta on r0 and omega = 0, written to graph and
    cocycle files; its default period box is (2, 3, 2)."""
    g = product_with_Tl(R1X3, 1)
    assert validate_kgraph(g).ok and default_period_bound(g) == (2, 3, 2)
    phi = OneCocyclePhi(1, {e.id: ((theta if e.id == "r0" else zero),) for e in g.edges})
    graph, cocycle = tmp_path / "r1x3xt1.json", tmp_path / "phi.json"
    graph.write_text(serialize_graph(g), encoding="utf-8")
    cocycle.write_text(serialize_cocycle(PhiOmegaCocycle(1, phi, BicharacterTable.zero(1))), encoding="utf-8")
    return g, phi, [str(graph), "--cocycle", str(cocycle)]


def test_a_period_box_below_the_default_is_noted(tmp_path, capsys):
    g, phi, files = _r1x3_theta_files(tmp_path)
    args = ["simplicity", *files]
    assert cli.main([*args, "--bound", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "verdict: CERTIFIED_SIMPLE", "certificate: kronecker_dense", f"note: {BOX_1_NOTE}",
    ]
    assert cli.main([*args, "--bound", "1", "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["notes"] == [BOX_1_NOTE]
    # one colour below the default is enough; the default box gives no note
    rep = decide_simplicity(g, PhiOmegaCocycle(1, phi, BicharacterTable.zero(1)), (2, 2, 2))
    assert rep.notes == ("period box [2, 2, 2] is below the default [2, 3, 2]; periods outside it are not excluded",)
    assert cli.main(args) == 0
    assert capsys.readouterr().out.splitlines() == ["verdict: CERTIFIED_SIMPLE", "certificate: z_omega_trivial"]
    for bound in ("3", "2,3,2"):
        assert cli.main([*args, "--bound", bound]) == 0
        assert not any(line.startswith("note: ") for line in capsys.readouterr().out.splitlines())


def test_omega_notes_a_period_box_below_the_default(tmp_path, capsys):
    args = ["omega", *_r1x3_theta_files(tmp_path)[2]]
    assert cli.main([*args, "--bound", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "period generators: [[0, 0, 1]]" and lines[-1] == f"note: {BOX_1_NOTE}"
    assert cli.main([*args, "--bound", "1", "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["notes"] == [BOX_1_NOTE]
    # the default box gives no note, and the structured report no notes key
    assert cli.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "period generators: [[2, 0, 0], [0, 0, 1]]"
    assert not any(line.startswith("note: ") for line in lines)
    assert cli.main([*args, "--format", "structured"]) == 0
    assert "notes" not in json.loads(capsys.readouterr().out)


def test_a_square_mismatch_is_worded_in_phase_literals(tmp_path, capsys):
    # phi = rho on the torus loop at u only breaks the squares of both base
    # edges between u and w
    g = product_with_Tl(two_vertex_base(("a", "b")), 1)
    phi = OneCocyclePhi(1, {e.id: ((rho if e.id == "t1_u" else zero),) for e in g.edges})
    graph, cocycle = tmp_path / "uwt1.json", tmp_path / "phi.json"
    graph.write_text(serialize_graph(g), encoding="utf-8")
    cocycle.write_text(serialize_cocycle(PhiOmegaCocycle(1, phi, BicharacterTable.zero(1))), encoding="utf-8")
    assert cli.main(["simplicity", str(graph), "--cocycle", str(cocycle)]) == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert "square (a,t1_u)->(t1_w,a): phi values differ by (0 + 1*rho)" in text
    assert "PhaseExponent(" not in text
