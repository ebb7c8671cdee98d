"""Acceptance gate: end-to-end checks over the bundled fixtures.

Each criterion prints exactly one pass/FAIL line on the real stdout so the
gate is readable straight off a pytest run.  Budgets are asserted; a slow
pass is a failure.
"""

import itertools
import os
import random
import sys
import time
from fractions import Fraction

from ktwist.decider import (
    decide_simplicity,
    orbit_phase_generators,
    verify_z_omega,
    z_omega_of,
)
from ktwist.io import load_cocycle, resolve_graph
from ktwist.kgraph import product_base
from ktwist.lattices import LatticeBasis, kronecker_dense, verify_kronecker
from ktwist.groupoid import InducedCocycle, omega_from_oracle
from ktwist.oracle import (
    build_partition,
    omega_closedform,
    suite_centre_phase_triviality,
    suite_cocycle_identity,
    suite_conjugation_formula,
    CoboundaryBx,
)
from ktwist.kgraph import canonical_tail
from ktwist.phases import PhaseExponent
from ktwist.structure import per_group

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

_times = {}  # criterion number -> seconds, recorded once per session
_started = set()
LINES = []  # printed by conftest in the terminal summary


def _pair(gname, cstem):
    g, _ = resolve_graph("builtin:" + gname)
    c, _ = load_cocycle(os.path.join(FIXTURES, cstem + ".json"), g)
    return g, c


def _emit(line):
    LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def _run(num, label, budget, body):
    _started.add(num)
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        _emit(f"criterion {num}: FAIL  {label}")
        raise
    dt = time.perf_counter() - t0
    _times.setdefault(num, dt)
    word = "pass" if dt < budget else "FAIL (over budget)"
    _emit(f"criterion {num}: {word}  {label} ({dt:.2f}s)")
    assert dt < budget, f"criterion {num} took {dt:.2f}s, budget {budget}s"


def _tables_agree(a, b):
    return all(
        (x - y).is_trivial() for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def test_criterion_1_irrational_torus_twist_is_simple():
    def body():
        g, c = _pair("T2", "pullback_theta")
        rep = decide_simplicity(g, c)
        assert rep.verdict.status == "CERTIFIED_SIMPLE"
        assert rep.verdict.certificate["kind"] == "z_omega_trivial"
        anti = rep.omega.antisymmetrization()
        assert anti[0][1].rat == 0 and anti[0][1].coeff("theta") == Fraction(-1)
        assert anti[1][0].coeff("theta") == Fraction(1)
        assert rep.z_omega is not None and rep.z_omega.is_trivial()

    _run(1, "irrational 2-torus twist certified simple, trivial centre lattice", 1.0, body)


def test_criterion_2_half_twist_is_nonsimple_with_congruence_centre():
    def body():
        g, c = _pair("T2", "pullback_half")
        rep = decide_simplicity(g, c)
        assert rep.verdict.status == "CERTIFIED_NONSIMPLE"
        assert rep.verdict.certificate["kind"] == "central_period_obstruction"
        assert rep.z_omega.rows == ((2, 0), (0, 2))
        assert verify_z_omega(rep.omega, rep.z_omega)
        assert not verify_z_omega(rep.omega, LatticeBasis.from_rows([(1, 0), (0, 1)], 2))
        # brute membership-versus-pairing cross-check over |p_i| <= 4
        units = [(1, 0), (0, 1)]
        for p in itertools.product(range(-4, 5), repeat=2):
            central = all(rep.omega.commutator(p, u).is_trivial() for u in units)
            assert rep.z_omega.member(p) == central

    _run(2, "half twist certified nonsimple via even-congruence centre", 1.0, body)


def test_criterion_3_twisted_product_is_simple_by_density():
    def body():
        g, c = _pair("B2xT1", "phi_theta")
        rep = decide_simplicity(g, c)
        assert rep.verdict.status == "CERTIFIED_SIMPLE"
        assert rep.verdict.certificate["kind"] == "kronecker_dense"
        assert any(
            x.coeff("theta") for vec in rep.density_generators for x in vec
        )

    _run(3, "irrationally twisted product certified simple by orbit density", 5.0, body)


def test_criterion_4_untwisted_product_has_orbit_potential():
    def body():
        g, c = _pair("B2xT1", "phi_zero")
        rep = decide_simplicity(g, c)
        assert rep.verdict.status == "CERTIFIED_NONSIMPLE"
        cert = rep.verdict.certificate
        assert cert["kind"] == "orbit_potential"
        assert [abs(x) for x in cert["n"]] == [1]
        assert set(cert["psi"].values()) == {"0"}

    _run(4, "untwisted product certified nonsimple by an orbit potential", 1.0, body)


def test_criterion_5_three_torus_product_with_partial_twist():
    def body():
        g, c = _pair("B2xT3", "b2t3")
        rep = decide_simplicity(g, c)
        assert rep.verdict.status == "CERTIFIED_SIMPLE"
        lat = rep.per.lattice
        assert lat.rank == 3
        assert all(r[0] == 0 for r in lat.rows)
        assert lat.member((0, 1, 0, 0)) and not lat.member((1, 0, 0, 0))
        assert rep.z_omega.rank == 1 and rep.z_omega.member((1, 0, 0))
        # without restricting to the degenerate directions, density fails:
        # the untouched torus coordinate carries no irrational phase
        zfull = LatticeBasis.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        base = product_base(g, 3)
        gens = list(orbit_phase_generators(base, c.phi, zfull).values())
        res = kronecker_dense(gens, 3)
        assert not res.dense
        assert res.annihilator.member((0, 0, 1))

    _run(5, "partially twisted 3-torus product decided through the centre lattice", 10.0, body)


def test_criterion_6_disconnected_graph_is_nonsimple():
    def body():
        g, c = _pair("DISJOINT2", "pullback_b2")
        rep = decide_simplicity(g, c)
        assert rep.verdict.status == "CERTIFIED_NONSIMPLE"
        assert rep.verdict.certificate["kind"] == "not_cofinal"

    _run(6, "non-cofinal graph certified nonsimple with a witness pair", 1.0, body)


def test_criterion_7_groupoid_oracle_suites():
    def body():
        # exhaustive identity runs at the oracle window the CLI uses for
        # --depth 2: elements one step deep, partition window three deep
        total = 0
        for gname, cstem in (
            ("T2", "pullback_theta"),
            ("B2", "pullback_b2"),
            ("B2xT1", "phi_theta"),
        ):
            g, c = _pair(gname, cstem)
            P = build_partition(g, 3)
            s = suite_cocycle_identity(g, InducedCocycle(c, P.member), depth=1, max_triples=None)
            assert s.ok, (gname, s.violations[:3])
            total += s.checked
        assert total >= 1000

        g, c = _pair("T2", "pullback_theta")
        basis = tuple(per_group(g).lattice.rows)
        P3 = build_partition(g, 3)
        s = suite_conjugation_formula(g, InducedCocycle(c, P3.member), basis, depth=1)
        assert s.ok and s.checked >= 100

        # centre phases on isotropy elements, exhaustive per case
        for gname, cstem, zrows, depth, pdepth, want in (
            ("T2", "pullback_half", ((2, 0), (0, 2)), 1, 3, 72),
            ("B2xT1", "phi_theta", ((1,),), 1, 3, 18),
            ("B2xT3", "b2t3", ((1, 0, 0),), 0, 2, 27),
        ):
            g, c = _pair(gname, cstem)
            basis = tuple(per_group(g).lattice.rows)
            om = omega_from_oracle(g, InducedCocycle(c), basis)
            z = z_omega_of(om)
            assert z.rows == zrows, (gname, z.rows)
            P = build_partition(g, pdepth)
            s = suite_centre_phase_triviality(
                g, InducedCocycle(c, P.member), basis, z.rows, depth=depth
            )
            assert s.ok, (gname, s.violations[:3])
            assert s.checked == want, (gname, s.checked)

        # coboundary box on the torus fixture out to radius 3
        g, c = _pair("T2", "pullback_theta")
        basis = tuple(per_group(g).lattice.rows)
        om = omega_from_oracle(g, InducedCocycle(c), basis)
        x = canonical_tail(g, "v")
        bx = CoboundaryBx(om, InducedCocycle(c, build_partition(g, 6).member), x, basis)
        checked, problems = bx.verify_box(3)
        assert not problems
        assert checked == 49 * 49

    _run(7, "oracle property suites: identity, conjugation, centre, coboundary", 30.0, body)


def test_criterion_8_closed_form_is_flagged_against_the_oracle():
    def body():
        pairings = (
            ("T2", "pullback_theta"),
            ("T2", "pullback_half"),
            ("B2", "pullback_b2"),
            ("B2xT1", "phi_theta"),
            ("B2xT1", "phi_zero"),
            ("B2xT3", "b2t3"),
        )
        disagree = set()
        zmap = {}
        for gname, cstem in pairings:
            g, c = _pair(gname, cstem)
            basis = tuple(per_group(g).lattice.rows)
            if not basis:
                continue  # aperiodic: no bicharacter to compare
            om = omega_from_oracle(g, InducedCocycle(c), basis)
            cf = omega_closedform(g, c, basis)
            if not _tables_agree(om.antisymmetrization(), cf.antisymmetrization()):
                disagree.add((gname, cstem))
            zmap[(gname, cstem)] = z_omega_of(om)
        # the symmetric closed form cannot see a genuine twist
        assert ("T2", "pullback_theta") in disagree
        assert ("T2", "pullback_half") in disagree
        assert ("B2xT3", "b2t3") in disagree
        assert ("B2xT1", "phi_theta") not in disagree
        assert ("B2xT1", "phi_zero") not in disagree
        # oracle-derived centre lattices match the decision runs above
        assert zmap[("T2", "pullback_theta")].is_trivial()
        assert zmap[("T2", "pullback_half")].rows == ((2, 0), (0, 2))
        assert zmap[("B2xT1", "phi_theta")].rows == ((1,),)
        assert zmap[("B2xT3", "b2t3")].member((1, 0, 0))

    _run(8, "symmetric closed form disagrees with the oracle exactly on twisted cases", 5.0, body)


def _rand_phase(rng):
    p = PhaseExponent.of(Fraction(rng.randrange(-4, 5), rng.choice([1, 2, 3, 4])))
    for s in ("theta", "rho"):
        if rng.random() < 0.5:
            p = p + PhaseExponent.of(0, **{s: Fraction(rng.randrange(-3, 4))})
    return p


def test_criterion_9_density_certificates_recheck():
    def body():
        theta = PhaseExponent.of(0, theta=1)
        half = PhaseExponent.of(Fraction(1, 2))
        r1 = kronecker_dense([(theta,)], 1)
        assert r1.dense and verify_kronecker([(theta,)], 1, r1)
        r2 = kronecker_dense([(half,)], 1)
        assert not r2.dense and r2.certificate["n"] == [2]
        assert verify_kronecker([(half,)], 1, r2)
        colinear = [(theta, PhaseExponent.of(0, theta=2))]
        r3 = kronecker_dense(colinear, 2)
        assert not r3.dense
        assert sorted(abs(x) for x in r3.certificate["n"]) == [1, 2]
        assert verify_kronecker(colinear, 2, r3)

        rng = random.Random(97)
        outcomes = set()
        for _ in range(200):
            d = rng.randrange(1, 4)
            gens = [
                tuple(_rand_phase(rng) for _ in range(d))
                for _ in range(rng.randrange(1, 4))
            ]
            res = kronecker_dense(gens, d)
            assert verify_kronecker(gens, d, res)
            outcomes.add(res.dense)
        assert outcomes == {True, False}

    _run(9, "density and annihilator certificates survive independent recheck", 5.0, body)


_CRITERIA = {
    1: test_criterion_1_irrational_torus_twist_is_simple,
    2: test_criterion_2_half_twist_is_nonsimple_with_congruence_centre,
    3: test_criterion_3_twisted_product_is_simple_by_density,
    4: test_criterion_4_untwisted_product_has_orbit_potential,
    5: test_criterion_5_three_torus_product_with_partial_twist,
    6: test_criterion_6_disconnected_graph_is_nonsimple,
    7: test_criterion_7_groupoid_oracle_suites,
    8: test_criterion_8_closed_form_is_flagged_against_the_oracle,
    9: test_criterion_9_density_certificates_recheck,
}


def test_total_budget():
    # criteria that have not run yet in this session (this test run alone,
    # or the others deselected) run here, with their own budgets and
    # assertions; one that already ran, even if it failed, does not run again
    for num, criterion in _CRITERIA.items():
        if num not in _started:
            criterion()
    assert len(_times) == 9, "a criterion did not complete"
    total = sum(_times.values())
    _emit(f"acceptance total: {total:.2f}s")
    assert total < 60.0
