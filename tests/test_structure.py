"""Reachability, cofinality, and the shift-period lattice."""

import pytest

from ktwist.kgraph import builtin
from ktwist.structure import (
    NO,
    UNKNOWN,
    YES,
    is_aperiodic,
    is_cofinal,
    is_strongly_connected,
    local_periodicity_pair,
    pair_relation,
    per_group,
    periodic_at,
    verify_cofinality,
)


def test_strong_connectivity():
    assert is_strongly_connected(builtin("T2"))
    assert is_strongly_connected(builtin("B2"))
    assert not is_strongly_connected(builtin("DISJOINT2"))


def test_cofinality_verdicts():
    for name in ("T2", "B2", "B2xT1", "B2xT3"):
        v = is_cofinal(builtin(name))
        assert v.status == YES, name
    bad = is_cofinal(builtin("DISJOINT2"))
    assert bad.status == NO
    assert bad.certificate is not None


def test_cofinality_certificates_recheck():
    for name in ("T2", "B2", "DISJOINT2"):
        g = builtin(name)
        v = is_cofinal(g)
        assert verify_cofinality(g, v)


def test_periodic_at_torus():
    g = builtin("T2")
    assert periodic_at(g, (1, 0), "v")
    assert periodic_at(g, (0, 1), "v")
    assert periodic_at(g, (1, -1), "v")


def test_periodic_at_b2_fails():
    # two loops of one color: distinct tails break every nonzero period
    g = builtin("B2")
    assert not periodic_at(g, (1,), "v")


def test_per_group_torus_is_full():
    per = per_group(builtin("T2"))
    assert per.lattice.rank == 2
    assert per.lattice.member((1, 0))
    assert per.lattice.member((0, 1))
    assert per.per_vertex_agreement


def test_per_group_b2_trivial():
    per = per_group(builtin("B2"))
    assert per.lattice.rank == 0
    assert per.lattice.is_trivial()


def test_per_group_b2xt1_is_torus_direction():
    per = per_group(builtin("B2xT1"))
    assert per.lattice.rank == 1
    assert per.lattice.member((0, 1))
    assert not per.lattice.member((1, 0))
    assert not per.lattice.member((1, 1))


def test_per_group_b2xt3_is_torus_block():
    per = per_group(builtin("B2xT3"))
    assert per.lattice.rank == 3
    for row in per.lattice.rows:
        assert row[0] == 0
    assert per.lattice.member((0, 1, 0, 0))
    assert per.lattice.member((0, 0, 1, 0))
    assert per.lattice.member((0, 0, 0, 1))
    assert not per.lattice.member((1, 0, 0, 0))


def test_per_group_refuses_non_cofinal():
    with pytest.raises(ValueError):
        per_group(builtin("DISJOINT2"))


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
    pair = local_periodicity_pair(builtin("B2xT1"), 2)
    assert pair is not None
    mu, nu = pair
    assert pair_relation(builtin("B2xT1"), mu, nu)


def test_per_group_bound_stability():
    # enlarging the search box does not change the answer on the fixtures
    for name in ("T2", "B2", "B2xT1"):
        g = builtin(name)
        small = per_group(g, 2)
        large = per_group(g, 3)
        assert small.lattice.rows == large.lattice.rows, name
