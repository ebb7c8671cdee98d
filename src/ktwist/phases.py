"""Exact elements of the circle group, written additively.

A PhaseExponent stores the exponent t of a phase e^(2*pi*i*t) as

    t = q0 + sum_j q_j * xi_j      (q0, q_j rational)

where the xi_j are declared symbols assumed linearly independent over Q
together with 1 (think theta, rho).  Two exponents describe the same phase
iff their symbol coefficients agree exactly and their rational parts differ
by an integer, so the rational part is normalized into [0, 1) on
construction and equality/hashing are then structural.

The symbol declaration lives with the input files (cocycle files list their
symbols); this module only checks that names are well formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

_SYMBOL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


class PhaseSyntaxError(ValueError):
    pass


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class PhaseExponent:
    """Exponent of a phase, rational part reduced mod 1."""

    rat: Fraction = Fraction(0)
    irr: tuple[tuple[str, Fraction], ...] = field(default=())

    def __post_init__(self):
        rat = _as_fraction(self.rat) % 1
        seen = {}
        for name, coef in self.irr:
            if not _SYMBOL_RE.match(name):
                raise PhaseSyntaxError(f"bad symbol name {name!r}")
            coef = _as_fraction(coef)
            if coef:
                seen[name] = seen.get(name, Fraction(0)) + coef
        irr = tuple(sorted((n, c) for n, c in seen.items() if c))
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "irr", irr)

    @classmethod
    def _canonical(cls, rat: Fraction, irr) -> "PhaseExponent":
        """Build from parts that are already canonical, skipping validation.

        `irr` must hold well-formed symbol names, each at most once, sorted
        by name, with Fraction coefficients.  As in the public constructor,
        `rat` is reduced mod 1 and zero coefficients are dropped.
        """
        num, den = rat.numerator, rat.denominator
        if not 0 <= num < den:
            rat = Fraction(num % den, den)
        self = object.__new__(cls)
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "irr", tuple(t for t in irr if t[1]))
        return self

    @staticmethod
    def zero() -> "PhaseExponent":
        return _ZERO

    @staticmethod
    def of(rat=0, **symbols) -> "PhaseExponent":
        """Convenience: PhaseExponent.of(Fraction(1,3), theta=2)."""
        return PhaseExponent(_as_fraction(rat), tuple((k, _as_fraction(v)) for k, v in symbols.items()))

    def coeff(self, symbol: str) -> Fraction:
        for name, c in self.irr:
            if name == symbol:
                return c
        return Fraction(0)

    def symbols(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.irr)

    def is_trivial(self) -> bool:
        """True iff the phase is 1, i.e. the exponent is an integer."""
        return not self.irr and self.rat == 0

    def __add__(self, other: "PhaseExponent") -> "PhaseExponent":
        a, b = self.irr, other.irr
        if a and b:
            merged = dict(a)
            for name, coef in b:
                merged[name] = merged.get(name, 0) + coef
            irr = sorted(merged.items())
        else:
            irr = a or b
        return PhaseExponent._canonical(self.rat + other.rat, irr)

    def __sub__(self, other: "PhaseExponent") -> "PhaseExponent":
        return self + (-other)

    def __neg__(self) -> "PhaseExponent":
        return PhaseExponent._canonical(-self.rat, tuple((n, -c) for n, c in self.irr))

    def scaled(self, m) -> "PhaseExponent":
        """Integer or rational multiple of the exponent.

        Rational scaling is only meaningful for bookkeeping (it picks a
        branch); everything in the decision pipeline scales by ints.
        """
        m = _as_fraction(m)
        return PhaseExponent._canonical(self.rat * m, tuple((n, c * m) for n, c in self.irr))

    def __repr__(self):
        return f"PhaseExponent({format_phase(self)!r})"


_ZERO = PhaseExponent()


def parse_phase(text: str, symbols: Iterable[str] | None = None) -> PhaseExponent:
    """Parse a phase literal.

    Grammar: "<rational>" or "<rational> + <rational>*<symbol> [+ ...]",
    rationals written p or p/q with optional leading minus.  When `symbols`
    is given, any symbol outside it is rejected.
    """
    allowed = None if symbols is None else set(symbols)
    parts = [p.strip() for p in text.split("+")]
    if not parts or any(not p for p in parts):
        raise PhaseSyntaxError(f"malformed phase literal {text!r}")
    rat = Fraction(0)
    irr: list[tuple[str, Fraction]] = []
    for pos, part in enumerate(parts):
        if "*" in part:
            coef_s, _, sym = part.partition("*")
            coef_s, sym = coef_s.strip(), sym.strip()
            if not _RATIONAL_RE.match(coef_s):
                raise PhaseSyntaxError(f"bad coefficient {coef_s!r} in {text!r}")
            if not _SYMBOL_RE.match(sym):
                raise PhaseSyntaxError(f"bad symbol {sym!r} in {text!r}")
            if allowed is not None and sym not in allowed:
                raise PhaseSyntaxError(f"undeclared symbol {sym!r} in {text!r}")
            irr.append((sym, Fraction(coef_s)))
        else:
            if pos != 0:
                raise PhaseSyntaxError(f"rational term allowed only first in {text!r}")
            if not _RATIONAL_RE.match(part):
                raise PhaseSyntaxError(f"bad rational {part!r} in {text!r}")
            rat = Fraction(part)
    return PhaseExponent(rat, tuple(irr))


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


def pair_int(n: Iterable[int], v: PhaseVector) -> PhaseExponent:
    """<n, v> = sum n_j v_j for an integer vector n."""
    acc = PhaseExponent.zero()
    for nj, vj in zip(tuple(n), v, strict=True):
        if nj:
            acc = acc + vj.scaled(nj)
    return acc


def phase_is_trivial(p: PhaseExponent) -> bool:
    return p.is_trivial()
