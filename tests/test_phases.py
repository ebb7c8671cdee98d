"""Exponent arithmetic over Q plus declared symbols, and the literal grammar.

The differential tests check the integer normal form against the earlier
Fraction-based class kept in `fraction_phases.py`, and the literal reader,
with and without its one match for the common shapes, against the earlier
part-by-part one kept in `split_phases.py`.
"""

import itertools
import os
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktwist.phases import (
    PhaseExponent,
    PhaseSyntaxError,
    _read_parts,
    format_phase,
    pair_int,
    parse_phase,
    vec_add,
    vec_sub,
    zero_vector,
)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    from fraction_phases import FractionPhase, format_fraction_phase, parse_fraction_phase
    from split_phases import parse_split_phase
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
    assert (a - a).is_trivial()
    assert (-a).coeff("theta") == -1


def test_triviality_is_mod_one_on_the_rational_part():
    # integer rational part with no symbol content winds to the trivial phase
    assert PhaseExponent.of(3).is_trivial()
    assert not PhaseExponent.of(Fraction(1, 2)).is_trivial()
    assert not PhaseExponent.of(0, theta=1).is_trivial()


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

SYMBOLS = ("rho", "theta", "xi", "zeta")
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


# blanks that strip() removes, ASCII and not
BLANKS = st.sampled_from(["", " ", "  ", "\t", "\n", "\x1c", "\u3000"])


def literal(rat, terms, blanks=None, rational=True):
    """`rat` and `terms` written as a literal: in the canonical spelling
    when `blanks` is None, else with the strings of `blanks`, in turn,
    around each '+' and '*' and at both ends, and with no rational part
    when `rational` is false."""
    if blanks is None:
        return " + ".join([str(rat)] * rational + [f"{c}*{s}" for s, c in terms])
    pad = itertools.cycle(blanks)
    parts = [f"{next(pad)}{c}{next(pad)}*{next(pad)}{s}{next(pad)}" for s, c in terms]
    if rational:
        parts.insert(0, f"{next(pad)}{rat}{next(pad)}")
    return "+".join(parts)


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
# both operands carry the one symbol theta: the coefficients cancel in a - b
@example(Fraction(1, 2), [("theta", 1)], Fraction(1, 3), [("theta", 1)], 1)
# 1/4 + 1/2 = 3/4 keeps the denominator 4 that the rational part 1/2 alone would drop
@example(Fraction(1, 4), [("theta", Fraction(1, 4))], Fraction(1, 4), [("theta", Fraction(1, 2))], 1)
# both parts reduce: 1/2 + 1*theta
@example(Fraction(1, 4), [("theta", Fraction(1, 2))], Fraction(1, 4), [("theta", Fraction(1, 2))], 1)
# the denominators 6 and 12 differ
@example(Fraction(1, 3), [("theta", Fraction(1, 2))], Fraction(1, 4), [("theta", Fraction(1, 6))], 1)
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


def zeros(rat, terms):
    """0 three ways: the constant, a parsed integer and a - a for the given a."""
    a = PhaseExponent(rat, tuple(terms))
    return (PhaseExponent.zero(), parse_phase("3"), a - a)


@example(*CANCELLING[0], Fraction(1, 3), [("rho", 2)])
@example(Fraction(0), [], Fraction(0), [])
@given(rats, term_lists, rats, term_lists)
def test_zero_operands_agree_with_fraction_reference(r1, t1, r2, t2):
    x, rx = both(r1, t1)
    rzero = FractionPhase()
    for zero in zeros(r2, t2):
        assert_agrees(zero, rzero)
        assert_agrees(x + zero, rx + rzero)
        assert_agrees(x - zero, rx - rzero)
        assert_agrees(zero + x, rzero + rx)
        assert_agrees(zero - x, rzero - rx)
        assert zero + x == x == x - zero and zero - x == -x


def test_adding_zero_returns_the_other_operand():
    # the zero shortcut builds nothing: the nonzero operand itself comes back
    a = PhaseExponent.of(Fraction(2, 3), theta=1)
    for zero in zeros(Fraction(1, 2), [("rho", 1)]):
        assert a + zero is a
        assert a - zero is a
        assert zero + a is a


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


@example(*CANCELLING[0], None, True)
@example(*CANCELLING[1], None, True)
@example(*CANCELLING[2], None, True)
# no rational part, a repeated symbol, and blanks on every side
@example(*CANCELLING[1], ["\t", "", " \x1c", "\n"], False)
@given(rats, term_lists, st.none() | st.lists(BLANKS, min_size=1, max_size=5), st.booleans())
def test_parse_agrees_with_fraction_reference(rat, terms, blanks, rational):
    rational = rational or not terms
    text = literal(rat, terms, blanks, rational)
    p = parse_phase(text, symbols=SYMBOLS)
    assert_agrees(p, parse_fraction_phase(text))
    assert p == PhaseExponent(rat if rational else 0, tuple(terms))
    assert p == parse_split_phase(text, SYMBOLS)
    assert parse_phase(format_phase(p), symbols=SYMBOLS) == p


@given(rats, term_lists)
def test_format_parse_round_trip_with_several_symbols(rat, terms):
    # up to four distinct symbols; a literal of two or more terms is read by
    # _read_parts, past the one match
    p = PhaseExponent(rat, tuple(terms))
    assert parse_phase(format_phase(p), symbols=SYMBOLS) == p


def test_cancelling_literal_is_the_rational_part():
    p = parse_phase("1/2 + 1*theta + -1*theta", symbols=["theta"])
    assert p == PhaseExponent.of(Fraction(1, 2))
    assert (p.num, p.den, p.terms) == (1, 2, ())
    assert format_phase(p) == "1/2"


# Every PhaseSyntaxError of the literal grammar, with symbols=["theta"]: an
# empty part makes the whole literal malformed, before any term is read; a
# term is checked for its rational or coefficient, its symbol, the
# declaration and then the denominator.
BAD_LITERALS = [
    ("", "malformed phase literal ''"),
    (" ", "malformed phase literal ' '"),
    ("+", "malformed phase literal '+'"),
    ("+1", "malformed phase literal '+1'"),
    ("1 +", "malformed phase literal '1 +'"),
    ("x + ", "malformed phase literal 'x + '"),
    ("1/0 + ", "malformed phase literal '1/0 + '"),
    ("1 + 2 + ", "malformed phase literal '1 + 2 + '"),
    ("2*rho +", "malformed phase literal '2*rho +'"),
    ("1/2 +  + 1*theta", "malformed phase literal '1/2 +  + 1*theta'"),
    ("theta", "bad rational 'theta' in 'theta'"),
    ("--1", "bad rational '--1' in '--1'"),
    ("0x1", "bad rational '0x1' in '0x1'"),
    ("1.5", "bad rational '1.5' in '1.5'"),
    ("1_0", "bad rational '1_0' in '1_0'"),
    ("1/-2", "bad rational '1/-2' in '1/-2'"),
    ("1/2/3", "bad rational '1/2/3' in '1/2/3'"),
    ("1/0/0", "bad rational '1/0/0' in '1/0/0'"),
    ("1/ 2", "bad rational '1/ 2' in '1/ 2'"),
    ("1 /2", "bad rational '1 /2' in '1 /2'"),
    ("a/b", "bad rational 'a/b' in 'a/b'"),
    ("1 + 2", "rational term allowed only first in '1 + 2'"),
    ("1 + theta", "rational term allowed only first in '1 + theta'"),
    ("1 + -", "rational term allowed only first in '1 + -'"),
    ("1*theta + 1/2", "rational term allowed only first in '1*theta + 1/2'"),
    ("*theta", "bad coefficient '' in '*theta'"),
    ("x*theta", "bad coefficient 'x' in 'x*theta'"),
    ("1/2 + x*theta", "bad coefficient 'x' in '1/2 + x*theta'"),
    ("1*", "bad symbol '' in '1*'"),
    ("1/0*9", "bad symbol '9' in '1/0*9'"),
    ("1/2 + 1*9a", "bad symbol '9a' in '1/2 + 1*9a'"),
    ("0 + 1*theta*theta", "bad symbol 'theta*theta' in '0 + 1*theta*theta'"),
    ("1/2 + 1*rho", "undeclared symbol 'rho' in '1/2 + 1*rho'"),
    ("1/0*rho", "undeclared symbol 'rho' in '1/0*rho'"),
    ("1/0", "zero denominator in '1/0'"),
    ("1/00", "zero denominator in '1/00'"),
    ("1/0*theta", "zero denominator in '1/0'"),
    ("0 + 2/0*theta", "zero denominator in '2/0'"),
    ("1 + 1/0*theta", "zero denominator in '1/0'"),
]


@pytest.mark.parametrize("text, message", BAD_LITERALS, ids=[repr(t) for t, _ in BAD_LITERALS])
def test_syntax_error_message_and_precedence(text, message):
    with pytest.raises(PhaseSyntaxError) as err:
        parse_phase(text, symbols=["theta"])
    assert str(err.value) == message


@pytest.mark.parametrize("text, expected", [
    (" 1/2 ", "1/2"), ("1/2+1*theta", "1/2 + 1*theta"), ("2 * theta", "0 + 2*theta"),
    ("1/2\n + 1*theta", "1/2 + 1*theta"), ("-0/3", "0"), ("１/２", "1/2"),
])
def test_literals_that_parse(text, expected):
    # spaces around a term and its parts, and any Unicode decimal digits
    assert format_phase(parse_phase(text, symbols=["theta"])) == expected


# The literal alphabet: the pieces of every spelling, blanks that strip()
# removes, an Arabic-Indic digit, and a name that is no symbol.  Longer
# words of it make well-formed literals, and near misses, common.
ALPHABET = ["0", "1", "2", "7", "-", "/", "+", "*", " ", "\t", "\x1c", "\u0663", "theta", "rho", "9a"]
WORDS = ["12", "-3/4", "1/2 ", " + ", " * ", "2*theta", "-1/3*rho", "0 + "]


def outcome(parse, text, symbols):
    """The value `parse` reads from `text`, or its error's type and message."""
    try:
        return parse(text, symbols)
    except ValueError as err:  # PhaseSyntaxError, or any other error int() raises
        return type(err), str(err)


LITERAL_TEXTS = st.lists(st.sampled_from(ALPHABET + WORDS), max_size=12).map("".join)
SYMBOL_CHOICES = st.sampled_from([None, ["theta"]])


@example("12*theta", None)  # not a rational 1 and a term 2*theta
@example("1/0 + 1*rho", ["theta"])  # the zero denominator comes first
@example("1*theta + 2/0*theta + 1*9a", ["theta"])
@example("0 + 1*theta + 2*rho + -1*theta", None)
@example("1/" + "2" * 5000, ["theta"])  # too many digits for int()
@example("1/0 + " + "2" * 5000 + "*theta", ["theta"])
@settings(max_examples=1000, deadline=None)
@given(LITERAL_TEXTS, SYMBOL_CHOICES)
def test_parse_agrees_with_the_split_reference(text, symbols):
    # the same literals are accepted, with equal values, and every other
    # one is refused with the same error
    got = outcome(parse_phase, text, symbols)
    assert got == outcome(parse_split_phase, text, symbols)
    if isinstance(got, PhaseExponent):
        assert_agrees(got, parse_fraction_phase(text))


@example("-3/4 + 2*theta", ["theta"])  # a shape the one match reads
@example("0 + 1*rho", ["theta"])  # matched, but the symbol is undeclared
@example("1/" + "2" * 5000, ["theta"])  # matched, but too many digits for int()
@settings(max_examples=1000, deadline=None)
@given(LITERAL_TEXTS, SYMBOL_CHOICES)
def test_the_part_reader_alone_agrees_with_parse_phase(text, symbols):
    # the one match only speeds up the common shapes: the part reader by
    # itself gives every value and every error that parse_phase gives
    assert outcome(_read_parts, text, symbols) == outcome(parse_phase, text, symbols)


def test_short_literals_agree_with_the_split_reference():
    # every string of up to three pieces of the alphabet
    for n in range(4):
        for pieces in itertools.product(ALPHABET, repeat=n):
            text = "".join(pieces)
            for symbols in (None, ["theta"]):
                assert outcome(parse_phase, text, symbols) == outcome(parse_split_phase, text, symbols), text
