"""Decision cascade: verdicts, certificates, and their independent rechecks."""

from fractions import Fraction
from math import lcm

import os

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
)
from ktwist.decider import (
    NONSIMPLE,
    SIMPLE,
    DecisionBounds,
    decide_simplicity,
    orbit_phase_generators,
    potential_certificate,
    verify_potential,
    verify_z_omega,
    z_omega_of,
)
from ktwist.kgraph import builtin, product_base
from ktwist.lattices import LatticeBasis, hnf, kronecker_dense
from ktwist.oracle import omega_from_oracle
from ktwist.phases import PhaseExponent, pair_int
from ktwist.structure import UNKNOWN, per_group

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
    rep = decide_simplicity(g, c, DecisionBounds(orbit=4))
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


def test_unhandled_shape_is_unknown():
    # a degree-bilinear twist on a non-torus graph with nontrivial central
    # periods falls outside every certified branch
    g = builtin("B2xT1")
    c = PullbackCocycle(((zero, zero), (theta, zero)))
    rep = decide_simplicity(g, c)
    assert rep.verdict.status == UNKNOWN


# --- certificate rechecks ----------------------------------------------------


def test_verify_z_omega_accepts_the_real_lattice_only():
    g = builtin("T2")
    per = per_group(g)
    om = omega_from_oracle(g, t2_pullback(half), tuple(per.lattice.rows))
    z = z_omega_of(om)
    assert verify_z_omega(om, z)
    wrong = LatticeBasis.from_rows([(1, 0), (0, 1)], 2)
    assert not verify_z_omega(om, wrong)


def test_potential_certificate_and_verifier():
    g, c = b2xt1_phi(zero)
    zfull = LatticeBasis.from_rows([(1,)], 1)
    hit = potential_certificate(g, c.phi, zfull)
    assert hit is not None
    n, psi = hit
    assert verify_potential(g, c.phi, zfull, n, psi)
    # the twisted version admits no potential
    g2, c2 = b2xt1_phi(theta)
    assert potential_certificate(g2, c2.phi, zfull) is None


def test_verify_potential_rejects_false_claim():
    # the twisted cocycle has no potential; claiming the zero one must fail
    g, c = b2xt1_phi(theta)
    zfull = LatticeBasis.from_rows([(1,)], 1)
    psi = {v: zero for v in g.vertices}
    assert not verify_potential(g, c.phi, zfull, (1,), psi)
    # degenerate character vectors are rejected outright
    g0, c0 = b2xt1_phi(zero)
    psi0 = {v: zero for v in g0.vertices}
    assert not verify_potential(g0, c0.phi, zfull, (0,), psi0)


# --- orbit phase group -------------------------------------------------------


def test_orbit_generators_stabilize_on_b2xt1():
    # the decision procedure enumerates orbits on the torus-free base graph
    g, c = b2xt1_phi(theta)
    zfull = LatticeBasis.from_rows([(1,)], 1)
    gens, stabilized = orbit_phase_generators(product_base(g, 1), c.phi, zfull, 4)
    assert stabilized
    assert any(any(x.coeff("theta") for x in vec) for vec in gens)
    res = kronecker_dense(gens, 1)
    assert res.dense


def test_orbit_generators_require_strong_connectivity():
    g = builtin("DISJOINT2")
    phi = OneCocyclePhi(1, {"lu": (zero,), "lw": (zero,)})
    with pytest.raises(ValueError):
        orbit_phase_generators(g, phi, LatticeBasis.from_rows([(1,)], 1), 2)


def test_full_period_density_fails_on_b2xt3():
    # restricted to the degenerate direction the phases are dense, but over
    # the whole period block the third coordinate stays rational
    g, c = b2xt3_cocycle()
    zfull = LatticeBasis.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    gens, _ = orbit_phase_generators(product_base(g, 3), c.phi, zfull, 3)
    res = kronecker_dense(gens, 3)
    assert not res.dense
    assert res.annihilator.member((0, 0, 1))


def reference_orbit_generators(g, phi, zbasis, bound):
    """orbit_phase_generators as a plain phi_tilde loop over path pairs."""

    def gens_at(b):
        by_source = {v: [] for v in g.vertices}
        for n in dg.box((b,) * g.k):
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

    d = zbasis.rank
    gens = gens_at(bound)
    prev = gens_at(bound - 1) if bound > 1 else [tuple(zero for _ in range(d))]
    symbols = tuple(sorted({s for v in gens for e in v for s in e.symbols()}))
    scale = decider._gen_scale(gens)
    rows = decider._phase_group_rows
    return gens, rows(prev, d, symbols, scale) == rows(gens, d, symbols, scale)


phase_values = st.builds(
    lambda n, d, s: Z(Fraction(n, d), theta=s),
    st.integers(-3, 3),
    st.integers(1, 4),
    st.integers(-2, 2),
)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["B2", "C3"]), st.integers(1, 4), st.integers(1, 2), st.data())
def test_orbit_generators_match_plain_pair_loop(name, bound, l, data):
    # a random phase on every edge, projected on a random sublattice of Z^l
    g = builtin(name)
    phi = OneCocyclePhi(l, {e.id: tuple(data.draw(phase_values) for _ in range(l)) for e in g.edges})
    rows = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * l), min_size=1, max_size=l))
    zbasis = LatticeBasis.from_rows(rows, l)
    gens, stabilized = orbit_phase_generators(g, phi, zbasis, bound)
    ref_gens, ref_stabilized = reference_orbit_generators(g, phi, zbasis, bound)
    assert gens == ref_gens
    assert stabilized == ref_stabilized


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.data())
def test_phase_group_rows_flatten_the_fractions(d, data):
    # the rows read from the integer normal form equal the rational parts
    # and symbol coefficients, as Fractions, scaled by the common denominator
    entries = st.builds(lambda r, t, h: Z(r, theta=t, rho=h),
                        st.fractions(-3, 3, max_denominator=12),
                        st.fractions(-3, 3, max_denominator=6), st.integers(-2, 2))
    gens = data.draw(st.lists(st.tuples(*[entries] * d), min_size=1, max_size=4))
    symbols = ("rho", "theta")
    scale = decider._gen_scale(gens)
    assert scale == lcm(*(x.denominator for v in gens for e in v
                          for x in (e.rat, *(c for _, c in e.irr))))
    flat = [tuple(int(x * scale) for x in [e.rat for e in v] +
                  [e.coeff(s) for s in symbols for e in v]) for v in gens]
    units = [tuple(scale if j == i else 0 for j in range(d * 3)) for i in range(d)]
    assert decider._phase_group_rows(gens, d, symbols, scale) == hnf(flat + units)


# --- bounds ------------------------------------------------------------------


def test_verdict_stable_under_larger_orbit_bound():
    g, c = b2xt1_phi(theta)
    r4 = decide_simplicity(g, c, DecisionBounds(orbit=4))
    r5 = decide_simplicity(g, c, DecisionBounds(orbit=5))
    assert r4.verdict.status == r5.verdict.status == SIMPLE


def test_z_omega_invariant_under_symmetric_perturbation():
    # adding a symmetric table changes omega but not its antisymmetrization,
    # hence not the degeneracy lattice
    g = builtin("T2")
    per = per_group(g)
    om = omega_from_oracle(g, t2_pullback(half), tuple(per.lattice.rows))
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
