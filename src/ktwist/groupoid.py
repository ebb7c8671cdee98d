"""The path groupoid of a k-colored graph and the cocycle induced on it.

An element of G = {(x, m - n, y) : T^m x = T^n y} is the triple
(x, p, y) itself, so (mu.e.z, p, nu.e.z) built from (mu.e, nu.e, z) or
from (mu, nu, e.z) is one value and one object (`GroupoidElement`).

A categorical cocycle c induces a groupoid 2-cocycle, `sigma_c`.  Its
value on a composable pair is the coboundary b(g) + b(h) - b(gh) of one
term per element at a common extension degree, each term read through
the cell that resolves the element (Kumjian-Pask-Sims, "On twisted
higher-rank graph C*-algebras", 2015).  `r_sigma` gives its conjugation
phases and `omega_from_oracle` the bicharacter the simplicity decider
reads.  Any cell that is a function of the element changes the cocycle
by a coboundary only (Kumjian-Pask-Sims, "Homology for higher-rank
graphs and twisted C*-algebras", 2012), so the cocycle identities and
the bicharacter's antisymmetrization hold through any such rule; the
default, `GroupoidElement.cell`, needs no partition.
An `InducedCocycle` is the one place where values are kept across calls
(its docstring lists them); a command builds at most one, and `run_suites`
hands its own to `omega_from_oracle`.  Below the stores, paths and
elements are one object per value, so a value already seen costs one
lookup by identity.  A value that depends on the resolution means c is
not a 2-cocycle: sigma_c keeps that outcome and raises ResolutionError on
every request for the pair, and it keeps no other error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, sub
from typing import Callable

from . import degrees as dg
from .degrees import Degree
from .cocycles import BicharacterTable, CocycleSpec, cocycle_value
from .kgraph import EventuallyPeriodicPath, KGraph, Path, canonical_tail
from .phases import PhaseExponent


class ResolutionError(RuntimeError):
    """sigma_c depended on the resolution: the input is not a 2-cocycle."""


# --- groupoid elements ------------------------------------------------------


@dataclass(frozen=True, init=False, eq=False)
class GroupoidElement:
    """The element (x, p, y) of G = {(x, m - n, y) : T^m x = T^n y}.

    Both paths are in diagonal normal form, so every presentation of an
    element gives the same three fields, and the constructor returns the
    graph's one object for them: equal elements are identical, and the
    element is compared and hashed by identity.  The constructor does not
    check that T^m x = T^n y for some m - n = p; `element` and the other
    builders do, and `cell` raises on a triple that fails it.
    """

    range_path: EventuallyPeriodicPath
    degree: Degree
    source_path: EventuallyPeriodicPath

    def __new__(cls, range_path: EventuallyPeriodicPath, degree: Degree, source_path: EventuallyPeriodicPath):
        key = (range_path, tuple(degree), source_path)
        table = range_path.graph._interned
        self = table.get(key)
        if self is None:
            self = table[key] = object.__new__(cls)
            self.__dict__.update(range_path=range_path, degree=key[1], source_path=source_path)
        return self

    def inverse(self) -> "GroupoidElement":
        return GroupoidElement(self.source_path, dg.scale(-1, self.degree), self.range_path)

    def cell(self) -> tuple[Path, Path]:
        """The cylinder (mu, nu) that resolves the element: a function of it.

        With D = (1, ..., 1), start from mu = x(0, p+ + tD) and
        nu = y(0, p- + tD) at the least t >= 0 with T^(p+ + tD) x =
        T^(p- + tD) y, then strip common source-end edges colour by colour.
        From t = max(s_x, s_y) on, where a path's ints s and r count its
        prefix and cycle steps, the pair of shifts repeats with period
        lcm(r_x, r_y); a triple with no such t below both is not an element.
        """
        x, y = self.range_path, self.source_path
        g = x.graph
        a, b = dg.pos_part(self.degree), dg.neg_part(self.degree)
        diag = (1,) * g.k
        for t in range(max(x.s, y.s) + math.lcm(x.r, y.r)):
            m, n = dg.add(a, dg.scale(t, diag)), dg.add(b, dg.scale(t, diag))
            if x.shift(m) is y.shift(n):
                break
        else:
            raise ValueError(f"no shifts of the two paths agree at degree difference {self.degree}")
        mu, nu = x.segment_to(m), y.segment_to(n)
        changed = True
        while changed:
            changed = False
            for i in range(1, g.k + 1):
                if mu.degree[i - 1] and nu.degree[i - 1]:
                    ei = dg.unit(g.k, i)
                    m0, e1 = g.factorize(mu, dg.sub(mu.degree, ei))
                    n0, e2 = g.factorize(nu, dg.sub(nu.degree, ei))
                    if e1 == e2:
                        mu, nu, changed = m0, n0, True
        return mu, nu

    def __repr__(self):
        mu, nu = self.cell()
        return f"GElt[{'.'.join(mu.word) or '*'}|{'.'.join(nu.word) or '*'};{self.degree}]"


def element(mu: Path, nu: Path, tail: EventuallyPeriodicPath) -> GroupoidElement:
    """The element (mu.tail, d(mu) - d(nu), nu.tail)."""
    if mu.source != nu.source:
        raise ValueError("pair must share a source vertex")
    if tail.range != mu.source:
        raise ValueError("tail must begin at the pair's source vertex")
    return GroupoidElement(tail.prepend(mu), dg.sub(mu.degree, nu.degree), tail.prepend(nu))


def compose_elements(g1: GroupoidElement, g2: GroupoidElement) -> GroupoidElement:
    """(x, p, y)(y, q, z) = (x, p + q, z)."""
    if g1.source_path is not g2.range_path:
        raise ValueError("elements are not composable")
    return GroupoidElement(g1.range_path, dg.add(g1.degree, g2.degree), g2.source_path)


def isotropy_element(x: EventuallyPeriodicPath, p: Degree) -> GroupoidElement:
    """The element (x, p, x); requires p to be a shift period along x."""
    if x.shift(dg.pos_part(p)) is not x.shift(dg.neg_part(p)):
        raise ValueError(f"{p} is not a period along the given path")
    return GroupoidElement(x, p, x)



# --- the induced groupoid cocycle -------------------------------------------


@dataclass(eq=False)
class InducedCocycle:
    """The groupoid 2-cocycle sigma_c induced by the categorical cocycle c.

    `cell` gives each element the cylinder (mu, nu) that resolves it.
    `_cells` keeps one record per element looked up so far: the tuple
    (mu, nu, x, terms) of its cell, its range path x and a dict of its
    terms b(e, m) keyed by the degree m, which sigma_c sums.  `_values`
    keeps the outcome of each sigma_c pair under (g, h, paddings), a
    ResolutionError included, and the phase of each r_sigma pair under
    (alpha, p); `_categorical` the value c(mu, nu) of each pair of paths
    that a term has asked for.  Elements are hashed and compared by
    identity, so a repeated request finds its key with no field-by-field
    work.  An error raised by `cell` or by `cocycle_value` propagates
    before anything is kept, so it is raised afresh on every request.
    """

    c: CocycleSpec
    cell: Callable[[GroupoidElement], tuple[Path, Path]] = GroupoidElement.cell
    _cells: dict = field(default_factory=dict, repr=False)
    _values: dict = field(default_factory=dict, repr=False)
    _categorical: dict = field(default_factory=dict, repr=False)

    def record(self, gelt: GroupoidElement) -> tuple:
        """The element's record (mu, nu, x, terms), made on the first request."""
        rec = self._cells.get(gelt)
        if rec is None:
            mu, nu = self.cell(gelt)
            rec = self._cells[gelt] = (mu, nu, gelt.range_path, {})
        return rec

    def value_of(self, mu: Path, nu: Path) -> PhaseExponent:
        """c(mu, nu), evaluated once per pair."""
        key = (mu, nu)
        val = self._categorical.get(key)
        if val is None:
            val = self._categorical[key] = cocycle_value(self.c, mu, nu)
        return val

    def term(self, rec: tuple, m: Degree) -> PhaseExponent:
        """b(e, m) = c(mu_e, w) - c(nu_e, w), w = x_e(d(mu_e), m), kept in rec.

        rec is the record of e = (x_e, p, y_e), whose cell is (mu_e, nu_e),
        and m >= d(mu_e).
        """
        mu, nu, x, terms = rec
        val = terms.get(m)
        if val is None:
            w = x.at(mu.degree, m)
            val = terms[m] = self.value_of(mu, w) - self.value_of(nu, w)
        return val


def sigma_c(
    s: InducedCocycle,
    gelt: GroupoidElement,
    helt: GroupoidElement,
    paddings: tuple[int, ...] = (0, 1),
) -> PhaseExponent:
    """Value of the induced groupoid 2-cocycle on a composable pair.

    Resolves both factors and their product through their cells and, at
    each padding, a common extension degree n >= d(nu_g), d(mu_h),
    d(mu_gh) - p_g, where g = (x_g, p_g, y_g).  With u = y_g = x_h the
    six categorical values are

        c(mu_g, alpha) - c(nu_g, alpha) + c(mu_h, beta) - c(nu_h, beta)
            - c(mu_gh, gamma) + c(nu_gh, gamma),
        alpha = u(d(nu_g), n),  beta = u(d(mu_h), n),
        gamma = x_g(d(mu_gh), n + p_g),

    and they pair up into the per-element terms of `InducedCocycle.term`:
    sigma_c(g, h) = b(g, n + p_g) + b(h, n) - b(gh, n + p_g).  The cell
    resolves g, so x_g = mu_g.w and y_g = nu_g.w for one infinite path w;
    hence alpha = w(0, n - d(nu_g)) = x_g(d(mu_g), n + p_g), as p_g =
    d(mu_g) - d(nu_g), and the first pair is b(g, n + p_g).  Since
    x_h = y_g, beta = x_h(d(mu_h), n) and the second pair is b(h, n);
    since x_gh = x_g, gamma = x_gh(d(mu_gh), n + p_g) and the third is
    -b(gh, n + p_g).  Each term's degree is at least its cell's d(mu), by
    the bound on n.  Phase sums are exact, so the value is the six-term
    value, and a term asks for its two categorical values in the order
    the six-term sum did, so the first CocycleDomainError is the same.

    The result is independent of the resolution; every padding in
    `paddings` re-derives it with a larger extension, and disagreement
    raises ResolutionError once every padding is evaluated.  s keeps the
    outcome, value or error, so each distinct (gelt, helt, paddings) is
    resolved once, and a kept error is raised afresh on each request.  A
    miss fetches the records of g, h and gh once; their terms, which
    recur across pairs far more often than pairs do, are read from the
    records.  `paddings` is part of the key as given, so it must be a
    tuple.
    """
    key = (gelt, helt, paddings)
    out = s._values.get(key)
    if out is None:
        prod = compose_elements(gelt, helt)
        rec_g, rec_h, rec_gh = s.record(gelt), s.record(helt), s.record(prod)
        _, nu_g, _, terms_g = rec_g
        mu_h, _, _, terms_h = rec_h
        mu_gh, _, _, terms_gh = rec_gh
        b = s.term
        pg = gelt.degree
        # every degree comes from one graph, so the lengths agree
        base = tuple(map(max, nu_g.degree, mu_h.degree, map(sub, mu_gh.degree, pg)))
        agree = True
        for pad in paddings:
            n = tuple(map(add, base, repeat(pad))) if pad else base
            m = tuple(map(add, n, pg))
            # a kept term is read straight from its record; a phase is never falsy
            val = (
                (terms_g.get(m) or b(rec_g, m))
                + (terms_h.get(n) or b(rec_h, n))
                - (terms_gh.get(m) or b(rec_gh, m))
            )
            if out is None:
                out = val
            elif val != out:
                agree = False
        if not agree:
            out = ResolutionError(
                "cocycle value depended on the resolution choice; the cocycle is not a 2-cocycle"
            )
        s._values[key] = out
    if out.__class__ is ResolutionError:
        raise ResolutionError(str(out))
    return out


def r_sigma(s: InducedCocycle, alpha: GroupoidElement, p: Degree) -> PhaseExponent:
    """Conjugation phase of the period p across the element alpha.

    s keeps the phase under (alpha, p), next to the sigma_c values it is
    made of, so each distinct pair is derived once.  A
    ResolutionError is not kept here: sigma_c keeps and re-raises it.
    """
    key = (alpha, tuple(p))
    out = s._values.get(key)
    if out is None:
        iso = isotropy_element(alpha.source_path, p)
        ai = alpha.inverse()
        t1 = sigma_c(s, alpha, iso)
        t2 = sigma_c(s, compose_elements(alpha, iso), ai)
        t3 = sigma_c(s, alpha, ai)
        out = s._values[key] = (t1 + t2) - t3
    return out


# --- bicharacter extraction -------------------------------------------------


def omega_from_oracle(g: KGraph, s: InducedCocycle, per_basis: tuple[Degree, ...]) -> BicharacterTable:
    """Bicharacter with the isotropy cocycle's antisymmetrization.

    Evaluates the induced cocycle s, which keeps the values, on generator
    pairs along the canonical tail at the least vertex and stores the pair
    differences in a strictly lower triangular matrix.  per_basis must be
    rows from `per_group`, which are periods at every vertex, so any vertex
    serves.  Only the antisymmetrization (hence the annihilator lattice) is
    meaningful; the triangular choice is a canonical gauge.
    """
    l = len(per_basis)
    x = canonical_tail(g, min(g.vertices))
    sig = {}
    for i in range(l):
        for j in range(l):
            if i != j:
                sig[(i, j)] = sigma_c(s, isotropy_element(x, per_basis[i]), isotropy_element(x, per_basis[j]))
    zero = PhaseExponent.zero()
    rows = [
        [sig[(i, j)] - sig[(j, i)] if i > j else zero for j in range(l)]
        for i in range(l)
    ]
    return BicharacterTable(l, tuple(tuple(r) for r in rows))
