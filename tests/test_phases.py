"""Exponent arithmetic over Q plus declared symbols, and the literal grammar.

The differential tests check the integer normal form against the earlier
Fraction-based class kept in `fraction_phases.py`.
"""

import os
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ktwist.phases import (
    PhaseExponent,
    PhaseSyntaxError,
    format_phase,
    pair_int,
    parse_phase,
    phase_is_trivial,
    vec_add,
    vec_sub,
    zero_vector,
)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    from fraction_phases import FractionPhase, format_fraction_phase, parse_fraction_phase
finally:
    sys.path.pop(0)


def test_literal_with_declared_symbol():
    # grammar example from the file-format contract
    p = parse_phase("1/3 + 2*theta", symbols=["theta"])
    assert p.rat == Fraction(1, 3)
    assert p.coeff("theta") == 2


def test_plain_rational_literal():
    # the rational part lives mod 1, so -5/7 lands on 2/7 and integers on 0
    assert parse_phase("-5/7").rat == Fraction(2, 7)
    assert parse_phase("3").rat == 0


def test_undeclared_symbol_rejected():
    with pytest.raises(PhaseSyntaxError):
        parse_phase("1/2 + 1*rho", symbols=["theta"])


def test_garbage_rejected():
    for bad in ("", "theta", "1 +", "1 + theta"):
        with pytest.raises(PhaseSyntaxError):
            parse_phase(bad, symbols=["theta"])
    for bad in ("1/0", "0 + 2/0*theta"):
        with pytest.raises(PhaseSyntaxError, match="zero denominator"):
            parse_phase(bad, symbols=["theta"])


def test_format_round_trip_on_examples():
    for text in ("0", "1/3 + 2*theta", "-1/2", "2 + -3/4*theta + 1*rho"):
        p = parse_phase(text, symbols=["theta", "rho"])
        again = parse_phase(format_phase(p), symbols=["theta", "rho"])
        assert again == p


def test_arithmetic():
    a = PhaseExponent.of(Fraction(1, 2), theta=1)
    b = PhaseExponent.of(Fraction(1, 2), theta=-1)
    assert (a + b).rat == 0  # 1/2 + 1/2 winds around
    assert (a + b).coeff("theta") == 0
    assert phase_is_trivial(a - a)
    assert (-a).coeff("theta") == -1


def test_triviality_is_mod_one_on_the_rational_part():
    # integer rational part with no symbol content winds to the trivial phase
    assert phase_is_trivial(PhaseExponent.of(3))
    assert not phase_is_trivial(PhaseExponent.of(Fraction(1, 2)))
    assert not phase_is_trivial(PhaseExponent.of(0, theta=1))


def test_pair_int():
    v = (PhaseExponent.of(0, theta=1), PhaseExponent.of(Fraction(1, 4)))
    got = pair_int((2, 4), v)
    assert got.coeff("theta") == 2
    assert got.rat == 0  # 4 * 1/4 is a whole turn


def test_vector_helpers():
    v = (PhaseExponent.of(1), PhaseExponent.of(0, theta=1))
    z = zero_vector(2)
    assert vec_add(v, z) == v
    assert vec_sub(v, v) == z or all((x - y).rat == 0 for x, y in zip(vec_sub(v, v), z))


frac = st.fractions(min_value=-50, max_value=50, max_denominator=12)


coef = st.integers(min_value=-5, max_value=5)


# two symbols, so a merge or ordering slip in the sum shows; the examples pin
# down cancellation of both symbols and of the rational part
@example(Fraction(1, 2), Fraction(1, 2), 1, -1, 2, -2)
@example(Fraction(0), Fraction(1, 3), 1, 0, 0, 1)
@given(frac, frac, coef, coef, coef, coef)
def test_addition_componentwise(r1, r2, t1, t2, h1, h2):
    a = PhaseExponent.of(r1, theta=t1, rho=h1)
    b = PhaseExponent.of(r2, theta=t2, rho=h2)
    s = a + b
    assert s.rat == (r1 + r2) % 1
    assert s.coeff("theta") == t1 + t2
    assert s.coeff("rho") == h1 + h2
    assert s == PhaseExponent(a.rat + b.rat, a.irr + b.irr)


@example(Fraction(1, 3), 2, -1, 0)
@example(Fraction(1, 4), 1, 1, 4)
@given(frac, coef, coef, st.integers(min_value=-4, max_value=4))
def test_scaling_matches_repeated_addition(r, t, h, m):
    a = PhaseExponent.of(r, theta=t, rho=h)
    total = PhaseExponent.of(0)
    for _ in range(abs(m)):
        total = total + a if m > 0 else total - a
    assert a.scaled(m) == total
    assert a.scaled(m) == PhaseExponent(a.rat * m, tuple((n, c * m) for n, c in a.irr))


@given(frac, st.integers(min_value=-5, max_value=5))
def test_format_parse_round_trip(r, c):
    p = PhaseExponent.of(r, theta=c)
    assert parse_phase(format_phase(p), symbols=["theta"]) == p


def test_constructor_merges_symbols_and_checks_its_arguments():
    p = PhaseExponent(Fraction(5, 2), (("theta", 1), ("rho", 0), ("theta", Fraction(1, 2))))
    assert p.rat == Fraction(1, 2) and p.irr == (("theta", Fraction(3, 2)),)
    assert (p.num, p.den, p.terms) == (1, 2, (("theta", 3),))
    with pytest.raises(PhaseSyntaxError):
        PhaseExponent(0, (("2theta", 1),))
    for bad in ((0.5, ()), (0, (("theta", 0.5),))):
        with pytest.raises(TypeError):
            PhaseExponent(*bad)


def test_scaling_takes_only_ints():
    p = PhaseExponent.of(Fraction(1, 3), theta=1)
    for m in (Fraction(1, 2), Fraction(2), 2.0, "2"):
        with pytest.raises(TypeError):
            p.scaled(m)
    assert p.scaled(3) == PhaseExponent.of(0, theta=3)


# --- differential tests against the Fraction-based reference -----------------

SYMBOLS = ("rho", "theta", "xi")
small_frac = st.builds(Fraction, st.integers(-150, 150), st.integers(1, 60))
# repeated symbols merge and may cancel; zero coefficients are allowed
term_lists = st.lists(st.tuples(st.sampled_from(SYMBOLS), small_frac | st.integers(-3, 3)),
                      max_size=4)
rats = small_frac | st.integers(-3, 3)
multiples = st.integers(min_value=-7, max_value=7)

CANCELLING = ((Fraction(1, 2), [("theta", 1), ("theta", -1)]),
              (Fraction(-7, 60), [("xi", Fraction(1, 60)), ("rho", 2), ("xi", Fraction(-1, 60))]),
              (Fraction(5, 4), [("theta", Fraction(1, 4)), ("rho", Fraction(3, 4)),
                                ("theta", Fraction(-1, 4))]))


def both(rat, terms):
    return PhaseExponent(rat, tuple(terms)), FractionPhase(rat, tuple(terms))


def literal(rat, terms):
    return str(rat) + "".join(f" + {c}*{s}" for s, c in terms)


def assert_normal(p):
    """The integer normal form's invariants."""
    assert p.den >= 1 and 0 <= p.num < p.den
    assert gcd(p.den, p.num, *(c for _, c in p.terms)) == 1
    names = [n for n, _ in p.terms]
    assert names == sorted(set(names))
    assert all(c for _, c in p.terms)


def assert_agrees(p, ref):
    assert_normal(p)
    assert p.rat == ref.rat
    assert p.irr == ref.irr
    for s in SYMBOLS:
        assert p.coeff(s) == ref.coeff(s)
    assert p.symbols() == tuple(n for n, _ in ref.irr)
    assert p.is_trivial() == ref.is_trivial()
    assert format_phase(p) == format_fraction_phase(ref)


@example(*CANCELLING[0], *CANCELLING[1], 2)
@example(*CANCELLING[2], *CANCELLING[0], -3)
@example(Fraction(1, 2), [], Fraction(1, 2), [], 2)
@given(rats, term_lists, rats, term_lists, multiples)
def test_arithmetic_agrees_with_fraction_reference(r1, t1, r2, t2, m):
    a, ra = both(r1, t1)
    b, rb = both(r2, t2)
    assert_agrees(a, ra)
    assert_agrees(a + b, ra + rb)
    assert_agrees(a - b, ra - rb)
    assert_agrees(-a, -ra)
    assert_agrees(a.scaled(m), ra.scaled(m))
    assert_agrees(pair_int((m, 1), (a, b)), ra.scaled(m) + rb)


@example(*CANCELLING[0], 1, [("theta", 0)])
@example(*CANCELLING[1], 0, [("xi", 1), ("xi", -1)])
@given(rats, term_lists, st.integers(-3, 3), term_lists)
def test_equality_and_hash_agree_with_fraction_reference(r1, t1, shift, t2):
    # b is a relabelled copy of a (shifted by an integer, terms reordered)
    # plus t2, so it often equals a and often does not
    a, ra = both(r1, t1)
    b, rb = both(r1 + shift, list(reversed(t1)) + t2)
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    if a == b:
        assert hash(a) == hash(b)
    c = a - b + b
    assert c == a and hash(c) == hash(a)


@example(*CANCELLING[0])
@example(*CANCELLING[1])
@example(*CANCELLING[2])
@given(rats, term_lists)
def test_parse_agrees_with_fraction_reference(rat, terms):
    text = literal(rat, terms)
    p = parse_phase(text, symbols=SYMBOLS)
    assert_agrees(p, parse_fraction_phase(text))
    assert p == PhaseExponent(rat, tuple(terms))
    assert parse_phase(format_phase(p), symbols=SYMBOLS) == p


def test_cancelling_literal_is_the_rational_part():
    p = parse_phase("1/2 + 1*theta + -1*theta", symbols=["theta"])
    assert p == PhaseExponent.of(Fraction(1, 2))
    assert (p.num, p.den, p.terms) == (1, 2, ())
    assert format_phase(p) == "1/2"
