"""Exact brute-force layer over the path groupoid of a k-colored graph.

An element of the groupoid G = {(x, m - n, y) : T^m x = T^n y} is the
triple (x, p, y) itself: two eventually periodic paths in diagonal normal
form and their degree difference.  Every presentation of an element,
such as (mu.e.z, p, nu.e.z) built from (mu.e, nu.e, z) or from
(mu, nu, e.z), is one value and, by construction, one object.  Inversion
and composition touch only the triple; `element(mu, nu, tail)` builds one
from a pair of paths and a tail.

The central construction is a groupoid 2-cocycle induced by a categorical
cocycle on the graph.  Its value on a composable pair is resolved through
cylinder cells of the two factors and their product via common
extensions, where it is the coboundary b(g) + b(h) - b(gh) of one term
per element at a common extension degree (Kumjian-Pask-Sims, "On twisted
higher-rank graph C*-algebras", 2015); the helpers then restrict it to
isotropy, build conjugation phases, inductive coboundaries, and the
bicharacter used by the simplicity decider.  One `InducedCocycle` holds
a categorical cocycle c and the rule that gives each element its cell;
by default that is `GroupoidElement.cell`, which needs no partition.
The tests' reference rule is membership in a depth-truncated partition
into cylinder cells, which raises DepthError (not wrong answers) when
too shallow.  Any cell that is a function of the element changes the
cocycle by a coboundary only (Kumjian-Pask-Sims, "Homology for
higher-rank graphs and twisted C*-algebras", 2012), so the identities of
the suites and the bicharacter's antisymmetrization hold through either.
The InducedCocycle is the one place where values are kept across calls:
one record per element, holding its cell, its range path and the terms
b(e, m) that sigma_c has summed, keyed by the degree m; the outcome of
each sigma_c pair; the phase of each r_sigma pair; and the categorical
value c(mu, nu) of each pair of paths that a term has asked for.  A
command builds one: `run_suites` hands its own to `omega_from_oracle`,
and `omega` and `simplicity` each build one for the bicharacter.  The
suites also keep loop-local values, dropped when they return: the
identity suite its factors' sigma_c values and products, the
conjugation suite its phases per element and its sigma_c differences
per pair of paths, and the coboundary box its points' isotropy elements
and their images under the target bicharacter's matrix.  Below the
stores, finite paths, infinite paths and elements are one object per
value, by construction: their constructors return the graph's one
object for the normal form, so they are hashed and compared by
identity.  Each finite path keeps its own splits and each infinite path
its own shifts and segments.  A value already seen costs the stores
above one lookup with no field-by-field comparison.
A value that depends on the resolution means the categorical cocycle is
not a 2-cocycle: sigma_c keeps that outcome too and raises
ResolutionError on every request for the pair, and a suite records it
against each check that asked.  DepthError and CocycleDomainError are
never kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, sub
from typing import Callable, Iterator

from . import degrees as dg
from .degrees import Degree
from .cocycles import BicharacterTable, CocycleDomainError, CocycleSpec, cocycle_value
from .kgraph import EventuallyPeriodicPath, KGraph, Path, canonical_tail
from .lattices import LatticeBasis, annihilator_lattice
from .phases import PhaseExponent, pair_int
from .structure import YES, is_cofinal, per_group


class DepthError(RuntimeError):
    """The partition's truncation depth cannot resolve the request; increase depth."""


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
        From t = max(s_x, s_y) on, where s and r are a path's prefix and
        cycle steps, the pair of shifts repeats with period lcm(r_x, r_y);
        a triple with no such t below both is not an element.
        """
        x, y = self.range_path, self.source_path
        g = x.graph
        a, b = dg.pos_part(self.degree), dg.neg_part(self.degree)
        diag = (1,) * g.k
        steps = max(x.prefix.degree[0], y.prefix.degree[0])
        for t in range(steps + math.lcm(x.cycle.degree[0], y.cycle.degree[0])):
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


# --- the cylinder partition -------------------------------------------------


def cylinders_intersect(g: KGraph, a: tuple[Path, Path], b: tuple[Path, Path]) -> bool:
    """Exact emptiness test for the intersection of two cylinder cells.

    Cells with different degree differences are disjoint.  Otherwise the
    intersection is nonempty iff some common extension witnesses it, and
    the minimal witness degree is the positive part of the degree gap.
    """
    mu1, nu1 = a
    mu2, nu2 = b
    if dg.sub(mu1.degree, nu1.degree) != dg.sub(mu2.degree, nu2.degree):
        return False
    delta = dg.sub(mu2.degree, mu1.degree)
    for alpha in g.paths_from(mu1.source, dg.pos_part(delta)):
        ma = g.compose(mu1, alpha)
        head, alpha2 = g.factorize(ma, mu2.degree)
        if head != mu2:
            continue
        if g.compose(nu1, alpha) == g.compose(nu2, alpha2):
            return True
    return False


@dataclass(eq=False)
class PartitionP:
    """Cylinder cells, indexed by degree difference for `member`."""

    graph: KGraph
    depth: Degree
    cells: tuple[tuple[Path, Path], ...]
    _by_p: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        by_p: dict[Degree, list[tuple[Path, Path]]] = {}
        for mu, nu in self.cells:
            by_p.setdefault(dg.sub(mu.degree, nu.degree), []).append((mu, nu))
        self._by_p = by_p

    def member(self, gelt: GroupoidElement) -> tuple[Path, Path]:
        """The unique cell whose cylinder contains the element."""
        x, y = gelt.range_path, gelt.source_path
        hits = []
        for mu, nu in self._by_p.get(gelt.degree, ()):
            if (
                x.segment_to(mu.degree) == mu
                and y.segment_to(nu.degree) == nu
                and x.shift(mu.degree) is y.shift(nu.degree)
            ):
                hits.append((mu, nu))
        if not hits:
            raise DepthError("no partition cell contains the element; increase depth")
        if len(hits) > 1:
            raise RuntimeError("partition cells overlap; internal invariant broken")
        return hits[0]


def _is_reduced(g: KGraph, mu: Path, nu: Path) -> bool:
    for i in range(1, g.k + 1):
        ei = dg.unit(g.k, i)
        if mu.degree[i - 1] and nu.degree[i - 1]:
            if g.factorize(mu, dg.sub(mu.degree, ei))[1] == g.factorize(nu, dg.sub(nu.degree, ei))[1]:
                return False
    return True


def build_partition(g: KGraph, depth) -> PartitionP:
    """Greedy cylinder partition of the groupoid truncated at a degree box.

    Starts from the diagonal cells (lambda, source vertex) for every path
    within the box, then sweeps all reduced source-matched pairs in graded
    lexicographic order, keeping each one whose cylinder misses everything
    kept so far.
    """
    depth = dg.as_degree(g.k, depth, "depth")
    paths_by_degree: dict[Degree, list[Path]] = {}
    for n in dg.box(depth):
        bucket = []
        for v in g.vertices:
            bucket.extend(g.paths_from(v, n))
        bucket.sort(key=lambda p: (p.range, p.word))
        paths_by_degree[n] = bucket

    cells: list[tuple[Path, Path]] = []
    by_p: dict[Degree, list[tuple[Path, Path]]] = {}  # kept cells by degree difference
    for n in sorted(paths_by_degree, key=lambda n: (dg.total(n), n)):
        for lam in paths_by_degree[n]:
            cells.append((lam, g.vertex_path(lam.source)))
            by_p.setdefault(n, []).append(cells[-1])

    degree_pairs = sorted(
        ((m, n) for m in paths_by_degree for n in paths_by_degree),
        key=lambda mn: (dg.total(mn[0]) + dg.total(mn[1]), mn[0], mn[1]),
    )
    for m, n in degree_pairs:
        same_p = by_p.setdefault(dg.sub(m, n), [])
        for mu in paths_by_degree[m]:
            for nu in paths_by_degree[n]:
                if nu.source != mu.source:
                    continue
                if not _is_reduced(g, mu, nu):
                    continue
                if any(cylinders_intersect(g, (mu, nu), cell) for cell in same_p):
                    continue
                same_p.append((mu, nu))
                cells.append((mu, nu))
    return PartitionP(g, depth, tuple(cells))


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

    def cell_of(self, gelt: GroupoidElement) -> tuple[Path, Path]:
        """The element's cell (mu, nu), read off its record."""
        return self.record(gelt)[:2]

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


def isotropy_restriction(
    s: InducedCocycle, x: EventuallyPeriodicPath, p: Degree, q: Degree
) -> PhaseExponent:
    """sigma on the isotropy pair ((x,p,x), (x,q,x))."""
    return sigma_c(s, isotropy_element(x, p), isotropy_element(x, q))


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


def ambient(per_basis: tuple[Degree, ...], m) -> Degree:
    """The integer vector sum(m_i * basis_i)."""
    k = len(per_basis[0])
    out = dg.zero(k)
    for coef, gen in zip(m, per_basis):
        out = dg.add(out, dg.scale(coef, gen))
    return out


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
                sig[(i, j)] = isotropy_restriction(s, x, per_basis[i], per_basis[j])
    zero = PhaseExponent.zero()
    rows = [
        [sig[(i, j)] - sig[(j, i)] if i > j else zero for j in range(l)]
        for i in range(l)
    ]
    return BicharacterTable(l, tuple(tuple(r) for r in rows))


def omega_closedform(g: KGraph, c: CocycleSpec, per_basis: tuple[Degree, ...]) -> BicharacterTable:
    """The printed single-path product formula for the bicharacter.

    Kept as a cross-check target only: the expression is symmetric under
    swapping the two generators, so its antisymmetrization always
    vanishes, which disagrees with the oracle on some twisted fixtures.
    The comparison is reported by callers; the oracle is authoritative.
    """
    l = len(per_basis)
    big = dg.zero(g.k)
    for p in per_basis:
        big = dg.add(big, dg.add(dg.pos_part(p), dg.neg_part(p)))
    lam = g.paths_from(min(g.vertices), big)[0]

    def split(m: Degree) -> tuple[Path, Path]:
        return g.factorize(lam, m)

    zero = PhaseExponent.zero()
    rows = []
    for i in range(l):
        row = []
        for j in range(l):
            if i == j:
                row.append(zero)
                continue
            gi, gj = per_basis[i], per_basis[j]
            mu_i, tau_i = split(dg.pos_part(gi))
            nu_i, rho_i = split(dg.neg_part(gi))
            mu_j, tau_j = split(dg.pos_part(gj))
            nu_j, rho_j = split(dg.neg_part(gj))
            mu_ij, tau_ij = split(dg.pos_part(dg.add(gi, gj)))
            nu_ij, rho_ij = split(dg.neg_part(dg.add(gi, gj)))
            val = (
                cocycle_value(c, mu_i, tau_i)
                - cocycle_value(c, nu_i, rho_i)
                + cocycle_value(c, mu_j, tau_j)
                - cocycle_value(c, nu_j, rho_j)
                - cocycle_value(c, mu_ij, tau_ij)
                + cocycle_value(c, nu_ij, rho_ij)
            )
            row.append(val)
        rows.append(tuple(row))
    return BicharacterTable(l, tuple(rows))


def z_omega_of(omega: BicharacterTable) -> LatticeBasis:
    """Integer vectors whose bicharacter commutator with everything is trivial."""
    return annihilator_lattice(omega.antisymmetrization(), omega.rank)


# --- coboundary reconstruction ----------------------------------------------


class CoboundaryBx:
    """Inductive 1-cochain b with delta b = (isotropy cocycle) - (target).

    Built on the generator filtration: b(0) = b(g_i) = 0, and each step in
    the top nonzero coordinate peels one generator off.
    """

    def __init__(self, omega_target: BicharacterTable, s: InducedCocycle, x, per_basis):
        per_basis = tuple(per_basis)
        l = len(per_basis)
        if omega_target.rank != l:
            raise ValueError("target rank does not match the generator count")
        self.s = s
        self.x = x
        self.per_basis = per_basis
        self.omega = omega_target
        self.l = l
        self._memo: dict[Degree, PhaseExponent] = {dg.zero(l): PhaseExponent.zero()}
        for i in range(l):
            for j in range(i + 1, l):
                ei, ej = dg.unit(l, i + 1), dg.unit(l, j + 1)
                if self.ctilde(ei, ej) != self.ctilde(ej, ei):
                    raise ValueError(
                        "target bicharacter has a different antisymmetrization; not cohomologous"
                    )

    def sigma(self, m: Degree, n: Degree) -> PhaseExponent:
        """The isotropy cocycle at x on generator coordinates (kept on s by sigma_c)."""
        return isotropy_restriction(self.s, self.x, ambient(self.per_basis, m), ambient(self.per_basis, n))

    def ctilde(self, m: Degree, n: Degree) -> PhaseExponent:
        return self.sigma(m, n) - self.omega.value(m, n)

    def value(self, m: Degree) -> PhaseExponent:
        m = tuple(m)
        if m in self._memo:
            return self._memo[m]
        i = max(t for t in range(self.l) if m[t])
        gi = dg.unit(self.l, i + 1)
        if m[i] > 0:
            prev = dg.sub(m, gi)
            out = self.value(prev) - self.ctilde(gi, prev)
        else:
            out = self.value(dg.add(m, gi)) + self.ctilde(gi, m)
        self._memo[m] = out
        return out

    def verify_box(self, radius: int) -> tuple[int, list[str]]:
        """Check delta b = ctilde on all pairs inside the box.

        The box is listed once, and each point's period and isotropy
        element at x are built once, and so is the vector M q of each
        point q, M the target's matrix; ctilde(p, q) is then
        sigma_c(iso(p), iso(q)) - <p, M q>, as omega(p, q) = sum of
        M[i][j] p_i q_j.
        """
        checked = 0
        bad = []
        box = list(dg.signed_box((radius,) * self.l))
        iso = [isotropy_element(self.x, ambient(self.per_basis, p)) for p in box]
        rows = self.omega.rows
        mq = [tuple(pair_int(q, row) for row in rows) for q in box]
        for p, iso_p in zip(box, iso):
            for q, iso_q, mq_q in zip(box, iso, mq):
                checked += 1
                try:
                    lhs = (self.value(p) + self.value(q)) - self.value(dg.add(p, q))
                    if lhs != sigma_c(self.s, iso_p, iso_q) - pair_int(p, mq_q):
                        bad.append(f"delta b != ctilde at ({p}, {q})")
                except ResolutionError as err:
                    bad.append(f"delta b != ctilde at ({p}, {q}): {err}")
        return checked, bad


# --- property suites --------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    violations: tuple[str, ...]
    stopped: str | None = None  # why the suite could not finish, if it could not

    @property
    def ok(self) -> bool:
        return not self.violations and self.stopped is None

    def to_jsonable(self):
        out = {
            "name": self.name,
            "checked": self.checked,
            "ok": self.ok,
            "violations": list(self.violations),
        }
        if self.stopped is not None:
            out["stopped"] = self.stopped
        return out


def _paths_into(g: KGraph, v: str, m: Degree) -> list[Path]:
    """The paths of degree m with source v, in order of range vertex."""
    return [p for w in sorted(g.vertices) for p in g.paths_from(w, m) if p.source == v]


def _elements_at(g: KGraph, v: str, d: Degree) -> Iterator[GroupoidElement]:
    """Elements (mu, nu) over the canonical tail at v, both degrees in the box d.

    A generator: each element is built when the caller asks for it, so a
    suite that stops at its cap builds no more.
    """
    z = canonical_tail(g, v)
    return (
        element(mu, nu, z)
        for m in dg.box(d)
        for n in dg.box(d)
        for mu in _paths_into(g, v, m)
        for nu in _paths_into(g, v, n)
    )


def _left_factors(g: KGraph, b: GroupoidElement, d: Degree, s: Degree) -> list[GroupoidElement]:
    """Elements a = (mu.T^s u, d(mu) - s, u) with a.b defined, u = b's range path.

    mu runs over the paths of degree in the box d.  The right factors of b
    are the inverses of the left factors of b's inverse.
    """
    u = b.range_path
    us = u.shift(s)
    return [
        GroupoidElement(us.prepend(mu), dg.sub(mu.degree, s), u)
        for m in dg.box(d)
        for mu in _paths_into(g, us.range, m)
    ]


def suite_cocycle_identity(
    g: KGraph,
    s: InducedCocycle,
    depth=1,
    max_triples: int | None = None,
) -> SuiteResult:
    """sigma(a,b) + sigma(ab,c) = sigma(b,c) + sigma(a,bc) on sampled triples.

    The middle element b runs over source-matched pairs over a canonical
    tail; a and c are grafted onto its boundary paths at the shifts 0 and
    (1, ..., 1), so all compositions exist by construction.  For each b,
    sigma(a, b) and ab are worked out once per a and sigma(b, c) and bc
    once per c, each when the loop first asks for it, so every cap checks
    the same triples and the first error that is not a ResolutionError is
    the same; s keeps the sigma_c values, so each extra triple costs two
    new sigma_c resolutions.  A ResolutionError is not kept here: sigma_c
    keeps and re-raises it.
    """
    d = dg.as_degree(g.k, depth, "depth")
    shifts = (dg.zero(g.k), (1,) * g.k)
    checked = 0
    bad = []
    for v in sorted(g.vertices):
        for b in _elements_at(g, v, d):
            lefts = [a for t in shifts for a in _left_factors(g, b, d, t)]
            rights = [x.inverse() for t in shifts for x in _left_factors(g, b.inverse(), d, t)]
            with_c: dict = {}  # c -> (sigma(b, c), bc)
            for a in lefts:
                a_b = None  # (sigma(a, b), ab)
                for cc in rights:
                    try:
                        if a_b is None:
                            a_b = (sigma_c(s, a, b), compose_elements(a, b))
                        lhs = a_b[0] + sigma_c(s, a_b[1], cc)
                        b_c = with_c.get(cc)
                        if b_c is None:
                            b_c = with_c[cc] = (sigma_c(s, b, cc), compose_elements(b, cc))
                        rhs = b_c[0] + sigma_c(s, a, b_c[1])
                        if lhs != rhs:
                            bad.append(f"identity fails on ({a!r}, {b!r}, {cc!r})")
                    except ResolutionError as err:
                        bad.append(f"identity fails on ({a!r}, {b!r}, {cc!r}): {err}")
                    checked += 1
                    if max_triples is not None and checked >= max_triples:
                        return SuiteResult("cocycle_identity", checked, tuple(bad))
    return SuiteResult("cocycle_identity", checked, tuple(bad))


RESOLUTION_PAIRS = 200


def suite_resolution_independence(g: KGraph, s: InducedCocycle, depth=1) -> SuiteResult:
    """Recompute sigma(a, b) with three paddings; sigma_c asserts agreement.

    Makes at most RESOLUTION_PAIRS checks: b as in the cocycle identity
    suite, a over its unshifted left factors.  `_elements_at` can yield one
    element twice, so a pair may be checked, and counted, more than once.
    """
    d = dg.as_degree(g.k, depth, "depth")
    zero = dg.zero(g.k)
    checked = 0
    bad = []
    for v in sorted(g.vertices):
        for b in _elements_at(g, v, d):
            for a in _left_factors(g, b, d, zero):
                try:
                    sigma_c(s, a, b, paddings=(0, 1, 2))
                except ResolutionError as err:
                    bad.append(f"resolution fails on ({a!r}, {b!r}): {err}")
                checked += 1
                if checked >= RESOLUTION_PAIRS:
                    return SuiteResult("resolution_independence", checked, tuple(bad))
    return SuiteResult("resolution_independence", checked, tuple(bad))


def _period_samples(per_basis: tuple[Degree, ...]):
    """The periods whose generator coordinates all lie in {-1, 0, 1}."""
    for coeffs in dg.signed_box((1,) * len(per_basis)):
        yield ambient(per_basis, coeffs)


def suite_conjugation_formula(
    g: KGraph,
    s: InducedCocycle,
    per_basis: tuple[Degree, ...],
    depth=1,
    max_checks: int | None = None,
) -> SuiteResult:
    """r(a, p+q) = sigma_r(p,q) - sigma_s(p,q) + r(a,p) + r(a,q) on samples.

    Elements a run over source-matched pairs at every vertex; p and q run
    over the periods with generator coordinates in {-1, 0, 1}.  per_basis
    must be rows from `per_group`, which are periods at every vertex.
    The sums p + q are worked out once; r(a, .) once per element a and
    period, and sigma(iso(x_r, p), iso(x_r, q)) - sigma(iso(x_s, p),
    iso(x_s, q)) once per pair of paths (x_r, x_s) and (p, q), each when
    the loop first asks for it, so every cap checks the same samples and
    the first error that is not a ResolutionError is the same.  A
    ResolutionError is not kept here: sigma_c keeps and re-raises it.
    """
    if not per_basis:
        return SuiteResult("conjugation_formula", 0, ())
    checked = 0
    bad = []
    d = dg.as_degree(g.k, depth, "depth")
    periods = list(_period_samples(per_basis))
    pairs = [(i, p, j, q, dg.add(p, q)) for i, p in enumerate(periods) for j, q in enumerate(periods)]
    with_paths: dict = {}  # (x_r, x_s) -> (isotropy at x_r, at x_s, {(i, j): sigma difference})
    for v in sorted(g.vertices):
        for a in _elements_at(g, v, d):
            xr, xs = a.range_path, a.source_path
            kept = with_paths.get((xr, xs))
            if kept is None:
                kept = with_paths[(xr, xs)] = (
                    [isotropy_element(xr, p) for p in periods],
                    [isotropy_element(xs, p) for p in periods],
                    {},
                )
            iso_r, iso_s, diffs = kept
            r_a: dict = {}  # period -> r(a, period)
            for i, p, j, q, pq in pairs:
                try:
                    lhs = r_a.get(pq)
                    if lhs is None:
                        lhs = r_a[pq] = r_sigma(s, a, pq)
                    diff = diffs.get((i, j))
                    if diff is None:
                        diff = diffs[(i, j)] = (
                            sigma_c(s, iso_r[i], iso_r[j]) - sigma_c(s, iso_s[i], iso_s[j])
                        )
                    rp = r_a.get(p)
                    if rp is None:
                        rp = r_a[p] = r_sigma(s, a, p)
                    rq = r_a.get(q)
                    if rq is None:
                        rq = r_a[q] = r_sigma(s, a, q)
                    if lhs != diff + rp + rq:
                        bad.append(f"conjugation additivity fails at ({a!r}, {p}, {q})")
                except ResolutionError as err:
                    bad.append(f"conjugation additivity fails at ({a!r}, {p}, {q}): {err}")
                checked += 1
                if max_checks is not None and checked >= max_checks:
                    return SuiteResult("conjugation_formula", checked, tuple(bad))
    return SuiteResult("conjugation_formula", checked, tuple(bad))


def suite_centre_phase_triviality(
    g: KGraph,
    s: InducedCocycle,
    per_basis: tuple[Degree, ...],
    zbasis: tuple[tuple[int, ...], ...],
    depth=1,
) -> SuiteResult:
    """Conjugation phases of isotropy elements vanish on central periods.

    zbasis rows are generator coordinates of periods annihilated by the
    bicharacter commutator.  Across isotropy elements (x, q, x), with x
    ranging over dressed canonical tails at every vertex and q over the
    periods with generator coordinates in {-1, 0, 1}, the r-phase of every
    central period must be trivial.  per_basis must be rows from
    `per_group`, which are periods at every vertex.  Non-isotropy elements
    are exempt: their phases are exactly what moves orbits.
    """
    checked = 0
    bad = []
    d = dg.as_degree(g.k, depth, "depth")
    central = [ambient(per_basis, row) for row in zbasis]
    if not central:
        return SuiteResult("centre_phase_triviality", 0, ())
    for v in sorted(g.vertices):
        base = canonical_tail(g, v)
        tails = [base]
        for m in dg.box(d):
            if not dg.is_zero(m):
                tails += [base.prepend(mu) for mu in _paths_into(g, v, m)]
        for x in tails:
            for q in _period_samples(per_basis):
                gamma = isotropy_element(x, q)
                for p in central:
                    try:
                        val = r_sigma(s, gamma, p)
                        if not val.is_trivial():
                            bad.append(f"nontrivial phase {val!r} at ({gamma!r}, {p})")
                    except ResolutionError as err:
                        bad.append(f"no phase at ({gamma!r}, {p}): {err}")
                    checked += 1
    return SuiteResult("centre_phase_triviality", checked, tuple(bad))


# --- the suite pipeline -----------------------------------------------------


def run_suites(
    g: KGraph, c: CocycleSpec, depth: int, cap: int
) -> tuple[list[SuiteResult], list[str], tuple[Degree, ...], BicharacterTable | None]:
    """Run every property suite that applies to the graph.

    Elements come from the degree box max(1, depth - 1), for a depth of at
    least 1, and each resolves through its own cell on one InducedCocycle,
    which keeps every value the suites and the bicharacter share; `cap`
    bounds the sampled identity triples and conjugation checks.  The
    period-dependent suites need certified cofinality and periods that
    agree at every vertex, and the centre and coboundary suites a
    nontrivial period lattice and a bicharacter that does not depend on
    the resolution.  A suite that asks a table for a pair it does not
    cover stops there, with no checks and the table's message, and the
    others still run; the centre and coboundary suites both stop when the
    bicharacter asks for such a pair.  Returns the suites, notes on the suites skipped, the
    period basis and the bicharacter the suites used (None when none did).
    """
    if depth < 1:
        raise ValueError(f"the depth must be >= 1, got {depth}")
    if cap < 1:
        raise ValueError(f"the sample cap must be >= 1, got {cap}")
    element_depth = max(1, depth - 1)
    s = InducedCocycle(c)
    suites: list[SuiteResult] = []

    def run(name: str, suite: Callable[[], SuiteResult]) -> None:
        try:
            suites.append(suite())
        except CocycleDomainError as err:
            suites.append(SuiteResult(name, 0, (), stopped=str(err)))

    run("cocycle_identity", lambda: suite_cocycle_identity(g, s, depth=element_depth, max_triples=cap))
    run("resolution_independence", lambda: suite_resolution_independence(g, s, depth=element_depth))
    cof = is_cofinal(g)
    if cof.status != YES:
        return suites, ["cofinality not certified; period-dependent suites skipped"], (), None
    per = per_group(g, cof)
    if not per.per_vertex_agreement:
        return suites, ["the periods differ from vertex to vertex; period-dependent suites skipped"], (), None
    basis = tuple(per.lattice.rows)
    run("conjugation_formula", lambda: suite_conjugation_formula(g, s, basis, depth=element_depth, max_checks=cap))
    if not basis:
        return suites, ["trivial period lattice; centre and coboundary suites are vacuous"], basis, None
    try:
        om = omega_from_oracle(g, s, basis)
    except ResolutionError as err:
        return suites, [f"no bicharacter ({err}); centre and coboundary suites skipped"], basis, None
    except CocycleDomainError as err:
        # both suites left need the bicharacter, so both stop where it did
        suites += [SuiteResult(name, 0, (), stopped=str(err)) for name in ("centre_phase_triviality", "coboundary_box")]
        return suites, [], basis, None
    zrows = z_omega_of(om).rows
    run("centre_phase_triviality", lambda: suite_centre_phase_triviality(g, s, basis, zrows, depth=element_depth))

    def coboundary_box() -> SuiteResult:
        checked, bad = CoboundaryBx(om, s, canonical_tail(g, min(g.vertices)), basis).verify_box(element_depth)
        return SuiteResult("coboundary_box", checked, tuple(bad))

    run("coboundary_box", coboundary_box)
    return suites, [], basis, om
