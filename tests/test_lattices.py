"""Integer lattice kit plus density certificates.

The worked examples here were derived by hand: annihilators of small
antisymmetric exponent matrices, and density or its failure for subgroups
of low-dimensional tori generated by symbolic irrationals.
"""

import dataclasses
import itertools
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ktwist.lattices import (
    LatticeBasis,
    _symbol_columns,
    annihilator_lattice,
    det_cofactor,
    hnf,
    integral_pairing_lattice,
    kernel,
    kronecker_dense,
    verify_kronecker,
    xgcd,
)
from ktwist.phases import PhaseExponent, pair_int

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    from fraction_lattices import fraction_integral_pairing_lattice, greedy_witness
finally:
    sys.path.pop(0)

Z = PhaseExponent.of
half = Fraction(1, 2)


# --- annihilator examples ---------------------------------------------------


def test_annihilator_symbolic_theta_is_trivial():
    # [[0, -theta], [theta, 0]]: no nonzero integer vector can clear a free symbol
    A = (
        (Z(0), Z(0, theta=-1)),
        (Z(0, theta=1), Z(0)),
    )
    lat = annihilator_lattice(A, 2)
    assert lat.is_trivial()
    assert lat.rank == 0


def test_annihilator_half_gives_index_four_sublattice():
    # [[0, -1/2], [1/2, 0]]: clearing 1/2 needs even entries in both slots
    A = (
        (Z(0), Z(-half)),
        (Z(half), Z(0)),
    )
    lat = annihilator_lattice(A, 2)
    assert lat.rank == 2
    assert lat.member((2, 0))
    assert lat.member((0, 2))
    assert not lat.member((1, 0))
    assert not lat.member((0, 1))
    assert lat.rows == ((2, 0), (0, 2))


def test_annihilator_zero_matrix_is_everything():
    A = tuple(tuple(Z(0) for _ in range(3)) for _ in range(3))
    lat = annihilator_lattice(A, 3)
    assert lat.rank == 3
    assert lat.member((1, 0, 0)) and lat.member((0, 1, 0)) and lat.member((0, 0, 1))


def test_annihilator_rejects_non_antisymmetric():
    A = (
        (Z(0), Z(0, theta=1)),
        (Z(0, theta=1), Z(0)),
    )
    with pytest.raises(ValueError):
        annihilator_lattice(A, 2)


# --- kronecker density examples ---------------------------------------------


def test_kronecker_single_irrational_is_dense():
    gens = [(Z(0, theta=1),)]
    res = kronecker_dense(gens, 1)
    assert res.dense
    assert res.certificate["kind"] == "irrational_full_rank"
    assert verify_kronecker(gens, 1, res)


def test_kronecker_half_is_not_dense():
    gens = [(Z(half),)]
    res = kronecker_dense(gens, 1)
    assert not res.dense
    assert res.certificate["kind"] == "annihilator_vector"
    assert res.certificate["n"] == [2]
    assert verify_kronecker(gens, 1, res)


def test_kronecker_colinear_pair_is_not_dense():
    # (theta, 2theta) is annihilated by (2, -1)
    gens = [(Z(0, theta=1), Z(0, theta=2))]
    res = kronecker_dense(gens, 2)
    assert not res.dense
    n = res.certificate["n"]
    assert n == [2, -1] or n == [-2, 1]
    assert verify_kronecker(gens, 2, res)


def test_kronecker_rationally_independent_pair_dense_in_t2():
    gens = [(Z(0, theta=1), Z(0)), (Z(0), Z(0, rho=1))]
    res = kronecker_dense(gens, 2)
    assert res.dense
    assert verify_kronecker(gens, 2, res)


def _random_phase(rng, symbols):
    p = Z(Fraction(rng.randrange(-4, 5), rng.choice([1, 2, 3, 4])))
    for s in symbols:
        if rng.random() < 0.5:
            p = p + PhaseExponent.of(0, **{s: Fraction(rng.randrange(-3, 4))})
    return p


def test_kronecker_certificates_recheck_randomized():
    # every produced certificate must survive its independent recheck
    rng = random.Random(20260822)
    rounds = 0
    dense_seen = 0
    for _ in range(200):
        d = rng.randrange(1, 4)
        gens = [
            tuple(_random_phase(rng, ("theta", "rho")) for _ in range(d))
            for _ in range(rng.randrange(1, 4))
        ]
        res = kronecker_dense(gens, d)
        assert verify_kronecker(gens, d, res)
        dense_seen += 1 if res.dense else 0
        rounds += 1
    assert rounds == 200
    assert 0 < dense_seen < 200  # the sampler hits both outcomes


# (theta, 2 theta) is annihilated by (2, -1); (theta, 0) and (0, rho) are dense
COLINEAR = [(Z(0, theta=1), Z(0, theta=2))]
INDEPENDENT = [(Z(0, theta=1), Z(0)), (Z(0), Z(0, rho=1))]
# 1/2 is annihilated by 2
RATIONAL = [(Z(half),)]
FORGED = {
    "n missing": (COLINEAR, 2, False, {"kind": "annihilator_vector"}),
    "n zero": (COLINEAR, 2, False, {"kind": "annihilator_vector", "n": [0, 0]}),
    "n too short": (COLINEAR, 2, False, {"kind": "annihilator_vector", "n": [2]}),
    "n too long": (COLINEAR, 2, False, {"kind": "annihilator_vector", "n": [2, -1, 0]}),
    "n does not annihilate": (COLINEAR, 2, False, {"kind": "annihilator_vector", "n": [1, 1]}),
    "zero_dimensional at d = 1": ([(Z(0, theta=1),)], 1, True, {"kind": "zero_dimensional"}),
    "zero_dimensional at d = 2": (INDEPENDENT, 2, True, {"kind": "zero_dimensional"}),
    "no columns": (INDEPENDENT, 2, True, {"kind": "irrational_full_rank", "det": "1"}),
    "too few columns": (INDEPENDENT, 2, True,
                        {"kind": "irrational_full_rank", "columns": [[0, "theta"]], "det": "1"}),
    "column of no generator": (INDEPENDENT, 2, True,
                               {"kind": "irrational_full_rank", "columns": [[0, "theta"], [5, "rho"]],
                                "det": "1"}),
    "column of no symbol": (INDEPENDENT, 2, True,
                            {"kind": "irrational_full_rank", "columns": [[0, "theta"], [1, "phi"]],
                             "det": "1"}),
    "wrong det": (INDEPENDENT, 2, True,
                  {"kind": "irrational_full_rank", "columns": [[0, "theta"], [1, "rho"]], "det": "2"}),
    "det not a number": (INDEPENDENT, 2, True,
                         {"kind": "irrational_full_rank", "columns": [[0, "theta"], [1, "rho"]], "det": "x"}),
    "column pair of one element": (INDEPENDENT, 2, True,
                                   {"kind": "irrational_full_rank", "columns": [[0, "theta"], [1]], "det": "1"}),
    "column of unhashable parts": (INDEPENDENT, 2, True,
                                   {"kind": "irrational_full_rank", "columns": [[0, "theta"], [[1], ["rho"]]],
                                    "det": "1"}),
    "n not integers": (RATIONAL, 1, False, {"kind": "annihilator_vector", "n": ["a"]}),
}


@pytest.mark.parametrize("gens, d, dense, cert", FORGED.values(), ids=list(FORGED))
def test_forged_kronecker_certificate_is_rejected(gens, d, dense, cert):
    honest = kronecker_dense(gens, d)
    assert honest.dense == dense and verify_kronecker(gens, d, honest)
    assert not verify_kronecker(gens, d, dataclasses.replace(honest, certificate=cert))


def test_a_zero_dimensional_minor_has_determinant_one():
    # d = 0: no column is chosen and the empty minor's determinant is 1
    assert det_cofactor([]) == 1
    honest = kronecker_dense([], 0)
    for det, ok in (("1", True), ("2", False)):
        cert = {"kind": "irrational_full_rank", "columns": [], "det": det}
        assert verify_kronecker([], 0, dataclasses.replace(honest, certificate=cert)) is ok


# --- integral pairing -------------------------------------------------------


def test_integral_pairing_mixed_example():
    # pairing (n1, n2) with (theta, 1/2): need n1 = 0 and n2 even
    gens = [(Z(0, theta=1), Z(half))]
    lat = integral_pairing_lattice(gens, 2)
    assert lat.member((0, 2))
    assert not lat.member((0, 1))
    assert not lat.member((1, 0))


# rational parts and symbol coefficients with denominators up to 12; a
# symbol may be listed twice in one entry, and the constructor merges it
fractions12 = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
entries = st.builds(
    lambda rat, irr: PhaseExponent(rat, tuple(irr)),
    fractions12,
    st.lists(st.tuples(st.sampled_from(("rho", "theta")), fractions12), max_size=3),
)


@st.composite
def phase_generators(draw, min_d=0):
    d = draw(st.integers(min_d, 4))
    gens = draw(st.lists(st.tuples(*[entries] * d), max_size=5))
    return gens, d


@settings(max_examples=300, deadline=None)
@given(phase_generators())
@example(([], 0))
@example(([(), ()], 0))
@example(([], 3))
@example(([(Z(half, theta=1), Z(0, theta=-1)), (Z(0, theta=2), Z(Fraction(1, 3), theta=-2))], 2))
def test_integral_pairing_matches_fraction_reference(data):
    gens, d = data
    lat = integral_pairing_lattice(gens, d)
    assert lat == fraction_integral_pairing_lattice(gens, d)
    for n in lat.rows:
        assert all(pair_int(n, v).is_trivial() for v in gens)


@settings(max_examples=300, deadline=None)
@given(phase_generators(min_d=1))
@example(([(Z(0, theta=1), Z(0, theta=2)), (Z(0, rho=1), Z(0, rho=1, theta=1))], 2))
def test_kronecker_witness_matches_greedy_columns(data):
    gens, d = data
    res = kronecker_dense(gens, d)
    assert res.dense == fraction_integral_pairing_lattice(gens, d).is_trivial()
    if res.dense:
        columns, det = greedy_witness(gens, d)
        assert res.certificate == {"kind": "irrational_full_rank", "columns": columns, "det": det}
        assert verify_kronecker(gens, d, res)


# four symbols and at least d generators: most draws are dense
dense_entries = st.builds(
    lambda rat, irr: PhaseExponent(rat, tuple(irr)),
    fractions12,
    st.lists(st.tuples(st.sampled_from(("a", "b", "c", "d")), fractions12), min_size=1, max_size=4),
)


@st.composite
def dense_generators(draw):
    d = draw(st.integers(1, 4))
    return draw(st.lists(st.tuples(*[dense_entries] * d), min_size=d, max_size=6)), d


@settings(max_examples=200, deadline=None)
@given(dense_generators())
def test_kronecker_det_is_the_cofactor_determinant_of_its_minor(data):
    # the determinant comes from the elimination that chose the columns
    gens, d = data
    res = kronecker_dense(gens, d)
    assume(res.dense)
    by_key = {(i, s): col for i, s, col in _symbol_columns(gens, d)}
    minor = [[by_key[i, s][r] for i, s in res.certificate["columns"]] for r in range(d)]
    assert Fraction(res.certificate["det"]) == det_cofactor(minor) != 0


# --- raw integer routines ---------------------------------------------------


def test_xgcd_examples():
    g, x, y = xgcd(12, 18)
    assert g == 6 and 12 * x + 18 * y == 6
    g, x, y = xgcd(0, 0)
    assert g == 0


def test_hnf_simple():
    rows = hnf([(2, 0), (0, 2), (1, 1)])
    basis = LatticeBasis.from_rows([(2, 0), (0, 2), (1, 1)], 2)
    assert basis.member((1, 1))
    assert basis.member((2, 0))
    assert not basis.member((1, 0))
    assert rows == tuple(basis.rows)


def test_kernel_is_left_kernel():
    # rows x of x . M = 0 for M = [[1, 2], [2, 4]]
    rows = kernel([(1, 2), (2, 4)], 2)
    assert len(rows) == 1
    x = rows[0]
    assert x[0] * 1 + x[1] * 2 == 0
    assert x[0] * 2 + x[1] * 4 == 0


small_int = st.integers(min_value=-9, max_value=9)


@st.composite
def int_rows(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    return [tuple(draw(small_int) for _ in range(dim)) for _ in range(n)], dim


@settings(max_examples=60)
@given(int_rows())
def test_hnf_canonical_and_membership(data):
    rows, dim = data
    basis = LatticeBasis.from_rows(rows, dim)
    # every generator is a member of the lattice it generates
    for r in rows:
        assert basis.member(r)
    # canonical: rebuilding from the basis rows changes nothing
    assert LatticeBasis.from_rows(list(basis.rows), dim).rows == basis.rows


@settings(max_examples=60)
@given(int_rows())
def test_kernel_rows_annihilate(data):
    rows, dim = data
    ker = kernel(rows, dim)
    for x in ker:
        for j in range(dim):
            assert sum(x[i] * rows[i][j] for i in range(len(rows))) == 0
    # the kernel is all of it: rank t - rank(M), and every small x with
    # x M = 0 is a member
    assert len(ker) == len(rows) - len(hnf(rows))
    lattice = LatticeBasis(len(rows), ker)
    for x in itertools.product(range(-2, 3), repeat=len(rows)):
        if not any(sum(x[i] * rows[i][j] for i in range(len(rows))) for j in range(dim)):
            assert lattice.member(x)


@settings(max_examples=60)
@given(int_rows(), int_rows())
def test_membership_respects_addition(a, b):
    rows, dim = a
    basis = LatticeBasis.from_rows(rows, dim)
    if len(basis.rows) >= 2:
        r1, r2 = basis.rows[0], basis.rows[1]
        assert basis.member(tuple(x + y for x, y in zip(r1, r2)))
        assert basis.member(tuple(-x for x in r1))
