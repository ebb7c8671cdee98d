"""Reference phases for the differential tests of `ktwist.phases`.

This is the earlier `PhaseExponent`, renamed and cut to its simplest form:
it stores the rational part and the symbol coefficients as `Fraction`s,
every operation goes through the validating constructor, which reduces the
rational part mod 1, and equality is structural.  `ktwist.phases` must give
the same answers with its integer normal form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

_SYMBOL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class FractionPhase:
    """Exponent of a phase, rational part reduced mod 1."""

    rat: Fraction = Fraction(0)
    irr: tuple[tuple[str, Fraction], ...] = field(default=())

    def __post_init__(self):
        rat = _as_fraction(self.rat) % 1
        seen = {}
        for name, coef in self.irr:
            if not _SYMBOL_RE.match(name):
                raise ValueError(f"bad symbol name {name!r}")
            coef = _as_fraction(coef)
            if coef:
                seen[name] = seen.get(name, Fraction(0)) + coef
        irr = tuple(sorted((n, c) for n, c in seen.items() if c))
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "irr", irr)

    def coeff(self, symbol: str) -> Fraction:
        for name, c in self.irr:
            if name == symbol:
                return c
        return Fraction(0)

    def is_trivial(self) -> bool:
        return not self.irr and self.rat == 0

    def __add__(self, other: "FractionPhase") -> "FractionPhase":
        return FractionPhase(self.rat + other.rat, self.irr + other.irr)

    def __sub__(self, other: "FractionPhase") -> "FractionPhase":
        return self + (-other)

    def __neg__(self) -> "FractionPhase":
        return FractionPhase(-self.rat, tuple((n, -c) for n, c in self.irr))

    def scaled(self, m) -> "FractionPhase":
        m = _as_fraction(m)
        return FractionPhase(self.rat * m, tuple((n, c * m) for n, c in self.irr))


def parse_fraction_phase(text: str) -> FractionPhase:
    """The phase literal grammar, read with Fractions."""
    parts = [p.strip() for p in text.split("+")]
    if any(not p for p in parts):
        raise ValueError(f"malformed phase literal {text!r}")
    rat = Fraction(0)
    irr = []
    for pos, part in enumerate(parts):
        if "*" in part:
            coef_s, _, sym = part.partition("*")
            coef_s, sym = coef_s.strip(), sym.strip()
            if not _RATIONAL_RE.match(coef_s) or not _SYMBOL_RE.match(sym):
                raise ValueError(f"bad term {part!r} in {text!r}")
            irr.append((sym, Fraction(coef_s)))
        else:
            if pos != 0 or not _RATIONAL_RE.match(part):
                raise ValueError(f"bad rational {part!r} in {text!r}")
            rat = Fraction(part)
    return FractionPhase(rat, tuple(irr))


def format_fraction_phase(p: FractionPhase) -> str:
    """Canonical literal: rational part first, then symbol terms sorted."""
    out = str(p.rat)
    for name, coef in p.irr:
        out += f" + {coef}*{name}"
    return out
