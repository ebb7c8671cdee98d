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
the integers.  A sum or difference with 0 returns the other operand (or
its negative) with no arithmetic.  Other sums, differences, negatives and
integer multiples are integer arithmetic followed by one gcd reduction,
skipped when den = 1.
The public constructor takes the rational part and symbol coefficients as
ints or Fractions; the accessors `rat`, `irr` and `coeff` give them back
as Fractions.

`parse_phase` reads the two shapes that literals in files take, a
rational part alone or followed by one symbol term, with one
regular-expression match, and builds the integers straight from the
matched digits.  Every other literal, and one that fails a check, goes to
`_read_parts`, which reads it part by part from the left and gives its
value or names its first fault; the match only speeds up the common
shapes.  `format_phase` writes the canonical literal.

The symbol declaration lives with the input files (cocycle files list their
symbols); this module only checks that names are well formed.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable

# The literal grammar's two pieces, written once: a rational p or p/q, its
# groups p and q, and a symbol name.
_RAT = r"(-?\d+)(?:/(\d+))?"
_SYM = r"[A-Za-z_][A-Za-z0-9_]*"
SYMBOL_NAME = re.compile(_SYM)  # whole names: use fullmatch
_RATIONAL_RE = re.compile(_RAT)  # whole rationals: use fullmatch
# A rational part, alone or followed by '+' and one symbol term, with blanks
# around each part: the shapes of the literals in files.  Groups 1-2 are the
# rational part, 3-4 the coefficient and 5 the symbol.
_LITERAL_RE = re.compile(rf"\s*{_RAT}\s*(?:\+\s*{_RAT}\s*\*\s*({_SYM})\s*)?")


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

    # den 1 with no terms is the normal form of 0, so a sum with 0 is the other side
    def __add__(self, other: "PhaseExponent") -> "PhaseExponent":
        if other.den == 1 and not other.terms:
            return self
        if self.den == 1 and not self.terms:
            return other
        return _combine(self, other, 1)

    def __sub__(self, other: "PhaseExponent") -> "PhaseExponent":
        if other.den == 1 and not other.terms:
            return self
        if self.den == 1 and not self.terms:
            return -other
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
    """x + sign * y for sign = 1 or -1, neither of them 0."""
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
    den = _int(q) if q else 1
    if den == 0:
        raise PhaseSyntaxError(f"zero denominator in {text!r}")
    return _int(p), den


def _int(digits: str) -> int:
    """int(digits), as a PhaseSyntaxError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        n, limit = len(digits.lstrip("-")), sys.get_int_max_str_digits()
        raise PhaseSyntaxError(f"integer of {n} digits exceeds the limit of {limit} digits") from None


def parse_phase(text: str, symbols: Collection[str] | None = None) -> PhaseExponent:
    """Parse a phase literal.

    Grammar: "<rational>" or "<rational> + <rational>*<symbol> [+ ...]",
    rationals written p or p/q with optional leading minus; the rational
    part may be left out, and blanks may surround each part.  When
    `symbols` is given, any symbol not `in` it is rejected; a caller that
    parses many literals passes a set, built once.  A symbol may appear in
    more than one term; its coefficients add up.

    One match of `_LITERAL_RE` reads a rational part, alone or with one
    symbol term, whose denominators are nonzero, whose symbol is declared
    and whose integers are within the interpreter's digit limit.
    `_read_parts` reads every other literal: it gives the value, or raises
    the error that names the first fault.
    """
    m = _LITERAL_RE.fullmatch(text)
    if m is not None:
        rp, rq, p, q, sym = m.groups()
        try:
            num = int(rp)
            rden = int(rq) if rq else 1
            if sym is None:
                if rden:
                    return _reduced(num, rden, ())
            else:
                cden = int(q) if q else 1
                den = lcm(rden, cden)
                if den and (symbols is None or sym in symbols):
                    c = int(p) * (den // cden)
                    return _reduced(num * (den // rden), den, ((sym, c),) if c else ())
        except ValueError:
            pass  # an integer too long for int(), which _read_parts names
    return _read_parts(text, symbols)


def _read_parts(text: str, symbols: Collection[str] | None) -> PhaseExponent:
    """The value of a phase literal, read part by part from the left, or
    the PhaseSyntaxError that names its first fault.

    An empty part, between '+' signs or at either end, makes the whole
    literal malformed, whatever its other parts hold.  Then each part, in
    order, is read as a rational, which only the first part may be, or,
    when it holds a '*', as a symbol term, which is checked for its
    coefficient, its symbol, the declaration and then the denominator.
    """
    parts = [p.strip() for p in text.split("+")]
    if not all(parts):
        raise PhaseSyntaxError(f"malformed phase literal {text!r}")
    num, rden = 0, 1
    written: list[tuple[str, int, int]] = []
    for pos, part in enumerate(parts):
        if "*" in part:
            coef_s, _, sym = part.partition("*")
            coef_s, sym = coef_s.strip(), sym.strip()
            m = _RATIONAL_RE.fullmatch(coef_s)
            if m is None:
                raise PhaseSyntaxError(f"bad coefficient {coef_s!r} in {text!r}")
            if not SYMBOL_NAME.fullmatch(sym):
                raise PhaseSyntaxError(f"bad symbol {sym!r} in {text!r}")
            if symbols is not None and sym not in symbols:
                raise PhaseSyntaxError(f"undeclared symbol {sym!r} in {text!r}")
            written.append((sym, *_rational(m, coef_s)))
        else:
            if pos != 0:
                raise PhaseSyntaxError(f"rational term allowed only first in {text!r}")
            m = _RATIONAL_RE.fullmatch(part)
            if m is None:
                raise PhaseSyntaxError(f"bad rational {part!r} in {text!r}")
            num, rden = _rational(m, part)
    den = lcm(rden, *(b for _, _, b in written))
    merged: dict[str, int] = {}
    for s, a, b in written:
        merged[s] = merged.get(s, 0) + a * (den // b)
    terms = tuple(sorted(t for t in merged.items() if t[1]))
    return _reduced(num * (den // rden), den, terms)


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

