"""Reference reading of phase literals for the differential tests of `ktwist.phases`.

This is the earlier `parse_phase`: it splits the literal on '+', strips
each part and reads the parts in order with one regex each, so its checks
run in the order their messages name faults.  It builds the value with
the public `PhaseExponent` constructor from Fractions.  `parse_phase`
must accept exactly the literals this accepts, with equal values, and
raise this one's message on every other.  An integer past the
interpreter's digit limit is refused with a message of its own.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from ktwist.phases import SYMBOL_NAME, PhaseExponent, PhaseSyntaxError

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def _rational(m: re.Match, text: str) -> Fraction:
    p, q = m.group(1, 2)
    den = _int(q) if q else 1
    if den == 0:
        raise PhaseSyntaxError(f"zero denominator in {text!r}")
    return Fraction(_int(p), den)


def _int(digits: str) -> int:
    """int(digits); past the interpreter's digit limit, the error names the digit count."""
    if len(digits.lstrip("-")) > sys.get_int_max_str_digits() > 0:
        n, limit = len(digits.lstrip("-")), sys.get_int_max_str_digits()
        raise PhaseSyntaxError(f"integer of {n} digits exceeds the limit of {limit} digits")
    return int(digits)


def parse_split_phase(text: str, symbols=None) -> PhaseExponent:
    """The phase literal grammar, read part by part."""
    allowed = None if symbols is None else set(symbols)
    parts = [p.strip() for p in text.split("+")]
    if not all(parts):
        raise PhaseSyntaxError(f"malformed phase literal {text!r}")
    rat = Fraction(0)
    irr: list[tuple[str, Fraction]] = []
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
            irr.append((sym, _rational(m, coef_s)))
        else:
            if pos != 0:
                raise PhaseSyntaxError(f"rational term allowed only first in {text!r}")
            m = _RATIONAL_RE.match(part)
            if m is None:
                raise PhaseSyntaxError(f"bad rational {part!r} in {text!r}")
            rat = _rational(m, part)
    return PhaseExponent(rat, tuple(irr))
