"""Exact brute-force layer over the path groupoid of a k-colored graph.

Elements of the groupoid are represented as (mu, nu, tail): two finite
paths with a common source and an eventually periodic infinite tail; the
element is (mu.tail, d(mu)-d(nu), nu.tail).  Equality, inversion and
composition are computed exactly through eventually periodic path
arithmetic, so every identity asserted here is checked on the nose.
Elements hash by value, (degree, range path, source path), so two
representations of one element, such as (mu.e, nu.e, x) and (mu, nu, e.x),
are one dictionary key.

The central construction is a groupoid 2-cocycle induced by a categorical
cocycle on the graph.  Its value on a composable pair is resolved through
cylinder cells of the two factors and their product via common
extensions; the helpers then restrict it to isotropy, build conjugation
phases, inductive coboundaries, and the bicharacter used by the
simplicity decider.  Every command resolves each element through its own
cancelled cell, which needs no partition.  The tests' reference route is
a depth-truncated partition into cylinder cells, which raises DepthError
(not wrong answers) when too shallow.  Any cell that is a function of
the element changes the cocycle by a coboundary only, so the identities
of the suites and the bicharacter's antisymmetrization hold through
either.  Each cell source keeps the cell of each element and the value
of each pair it has resolved.  A value that depends on the resolution
means the categorical cocycle is not a 2-cocycle: sigma_c raises
ResolutionError, and a suite records it against the check that asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import degrees as dg
from .degrees import Degree
from .cocycles import BicharacterTable, CocycleSpec, cocycle_value
from .kgraph import EventuallyPeriodicPath, KGraph, Path, canonical_tail
from .lattices import LatticeBasis, annihilator_lattice
from .phases import PhaseExponent, phase_is_trivial
from .structure import YES, is_cofinal, per_group, periodic_at


class DepthError(RuntimeError):
    """The partition's truncation depth cannot resolve the request; increase depth."""


class ResolutionError(RuntimeError):
    """sigma_c depended on the resolution: the input is not a 2-cocycle."""


# --- groupoid elements ------------------------------------------------------


@dataclass(eq=False)
class GroupoidElement:
    """The element (mu.tail, d(mu) - d(nu), nu.tail).

    The boundary paths and the hash are computed on first use and kept, so
    the fields must not be reassigned.
    """

    mu: Path
    nu: Path
    tail: EventuallyPeriodicPath
    _range: EventuallyPeriodicPath | None = field(default=None, init=False, repr=False)
    _source: EventuallyPeriodicPath | None = field(default=None, init=False, repr=False)
    _hash: int | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.mu.source != self.nu.source:
            raise ValueError("pair must share a source vertex")
        if self.tail.range != self.mu.source:
            raise ValueError("tail must begin at the pair's source vertex")

    @property
    def graph(self) -> KGraph:
        return self.tail.graph

    @property
    def degree(self) -> Degree:
        return dg.sub(self.mu.degree, self.nu.degree)

    def range_path(self) -> EventuallyPeriodicPath:
        if self._range is None:
            self._range = self.tail.prepend(self.mu)
        return self._range

    def source_path(self) -> EventuallyPeriodicPath:
        if self._source is None:
            self._source = self.tail.prepend(self.nu)
        return self._source

    def inverse(self) -> "GroupoidElement":
        inv = GroupoidElement(self.nu, self.mu, self.tail)
        inv._range, inv._source = self._source, self._range
        return inv

    def cancelled(self) -> "GroupoidElement":
        """Strip common source-end edges of mu and nu into the tail."""
        g = self.graph
        mu, nu, tail = self.mu, self.nu, self.tail
        changed = True
        while changed:
            changed = False
            for i in range(1, g.k + 1):
                ei = dg.unit(g.k, i)
                if mu.degree[i - 1] and nu.degree[i - 1]:
                    m0, e1 = g.factorize(mu, dg.sub(mu.degree, ei))
                    n0, e2 = g.factorize(nu, dg.sub(nu.degree, ei))
                    if e1 == e2:
                        mu, nu, tail = m0, n0, tail.prepend(e1)
                        changed = True
        return GroupoidElement(mu, nu, tail)

    def __eq__(self, other):
        if not isinstance(other, GroupoidElement):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.range_path() == other.range_path()
            and self.source_path() == other.source_path()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.degree, self.range_path(), self.source_path()))
        return self._hash

    def __repr__(self):
        return f"GElt[{'.'.join(self.mu.word) or '*'}|{'.'.join(self.nu.word) or '*'};{self.degree}]"


def unit_at(x: EventuallyPeriodicPath) -> GroupoidElement:
    v = x.graph.vertex_path(x.range)
    return GroupoidElement(v, v, x)


def compose_elements(g1: GroupoidElement, g2: GroupoidElement) -> GroupoidElement:
    if g1.source_path() != g2.range_path():
        raise ValueError("elements are not composable")
    g = g1.graph
    z = g2.range_path()
    n1, m2 = g1.nu.degree, g2.mu.degree
    n = dg.join(n1, m2)
    prod = GroupoidElement(
        g.compose(g1.mu, z.at(n1, n)),
        g.compose(g2.nu, z.at(m2, n)),
        z.shift(n),
    )
    # The product runs from g1's range path to g2's source path.
    prod._range, prod._source = g1.range_path(), g2.source_path()
    return prod


def isotropy_element(x: EventuallyPeriodicPath, p: Degree) -> GroupoidElement:
    """The element (x, p, x); requires p to be a shift period along x."""
    a, b = dg.pos_part(p), dg.neg_part(p)
    if x.shift(a) != x.shift(b):
        raise ValueError(f"{p} is not a period along the given path")
    return GroupoidElement(x.segment_to(a), x.segment_to(b), x.shift(a))


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
    """Cylinder cells, with what has been resolved through them.

    `_cell_of` maps each element looked up so far to its cell, and `_sigma`
    maps id(c) to (c, {(g, h, paddings): sigma_c value}); holding c keeps
    its id from being reused while the partition lives.
    """

    graph: KGraph
    depth: Degree
    cells: tuple[tuple[Path, Path], ...]
    _by_p: dict = field(default_factory=dict, repr=False)
    _cell_of: dict = field(default_factory=dict, repr=False)
    _sigma: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        by_p: dict[Degree, list[tuple[Path, Path]]] = {}
        for mu, nu in self.cells:
            by_p.setdefault(dg.sub(mu.degree, nu.degree), []).append((mu, nu))
        self._by_p = by_p

    def member(self, gelt: GroupoidElement) -> tuple[Path, Path]:
        """The unique cell whose cylinder contains the element."""
        cell = self._cell_of.get(gelt)
        if cell is not None:
            return cell
        x = gelt.range_path()
        y = gelt.source_path()
        hits = []
        for mu, nu in self._by_p.get(gelt.degree, ()):
            if (
                x.segment_to(mu.degree) == mu
                and y.segment_to(nu.degree) == nu
                and x.shift(mu.degree) == y.shift(nu.degree)
            ):
                hits.append((mu, nu))
        if not hits:
            raise DepthError("no partition cell contains the element; increase depth")
        if len(hits) > 1:
            raise RuntimeError("partition cells overlap; internal invariant broken")
        self._cell_of[gelt] = hits[0]
        return hits[0]


@dataclass(eq=False)
class CancelledCells:
    """Each element's own cancelled cell: every command's cell source.

    It has the interface of PartitionP, the tests' reference.  The first
    lookup of an element keeps the (mu, nu) of its cancelled form in
    `_cell_of`, so the cell is a function of the element, and sigma_c
    through these cells differs from sigma_c through a partition by a
    coboundary.
    """

    graph: KGraph
    _cell_of: dict = field(default_factory=dict, repr=False)
    _sigma: dict = field(default_factory=dict, repr=False)

    def member(self, gelt: GroupoidElement) -> tuple[Path, Path]:
        cell = self._cell_of.get(gelt)
        if cell is None:
            red = gelt.cancelled()
            cell = self._cell_of[gelt] = (red.mu, red.nu)
        return cell


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


def sigma_c(
    c: CocycleSpec,
    P: PartitionP | CancelledCells,
    gelt: GroupoidElement,
    helt: GroupoidElement,
    paddings: tuple[int, ...] = (0, 1),
) -> PhaseExponent:
    """Value of the induced groupoid 2-cocycle on a composable pair.

    Resolves both factors and their product through their partition cells,
    picks common extensions out of the shared infinite path, and combines
    six categorical cocycle values.  The result is independent of the
    resolution; every padding in `paddings` re-derives it with a larger
    extension and the agreement is asserted.  The value is kept on P, so
    each distinct (gelt, helt, paddings) is resolved once per partition.
    """
    values = P._sigma.setdefault(id(c), (c, {}))[1]
    key = (gelt, helt, tuple(paddings))
    hit = values.get(key)
    if hit is not None:
        return hit
    if gelt.source_path() != helt.range_path():
        raise ValueError("elements are not composable")
    prod = compose_elements(gelt, helt)
    mu_g, nu_g = P.member(gelt)
    mu_h, nu_h = P.member(helt)
    mu_gh, nu_gh = P.member(prod)
    pg = gelt.degree
    u = gelt.source_path()
    z = gelt.range_path()
    base = dg.join(dg.join(nu_g.degree, mu_h.degree), dg.sub(mu_gh.degree, pg))
    g = P.graph
    ones = (1,) * g.k
    vals = []
    for pad in paddings:
        n = dg.add(base, dg.scale(pad, ones))
        alpha = u.at(nu_g.degree, n)
        beta = u.at(mu_h.degree, n)
        gamma = z.at(mu_gh.degree, dg.add(n, pg))
        val = (
            cocycle_value(c, mu_g, alpha)
            - cocycle_value(c, nu_g, alpha)
            + cocycle_value(c, mu_h, beta)
            - cocycle_value(c, nu_h, beta)
            - cocycle_value(c, mu_gh, gamma)
            + cocycle_value(c, nu_gh, gamma)
        )
        vals.append(val)
    for other in vals[1:]:
        if vals[0] != other:
            raise ResolutionError(
                "cocycle value depended on the resolution choice; the cocycle is not a 2-cocycle"
            )
    values[key] = vals[0]
    return vals[0]


def isotropy_restriction(
    c: CocycleSpec, P: PartitionP | CancelledCells, x: EventuallyPeriodicPath, p: Degree, q: Degree
) -> PhaseExponent:
    """sigma on the isotropy pair ((x,p,x), (x,q,x))."""
    return sigma_c(c, P, isotropy_element(x, p), isotropy_element(x, q))


def r_sigma(
    c: CocycleSpec, P: PartitionP | CancelledCells, alpha: GroupoidElement, p: Degree
) -> PhaseExponent:
    """Conjugation phase of the period p across the element alpha."""
    iso = isotropy_element(alpha.source_path(), p)
    ai = alpha.inverse()
    t1 = sigma_c(c, P, alpha, iso)
    t2 = sigma_c(c, P, compose_elements(alpha, iso), ai)
    t3 = sigma_c(c, P, alpha, ai)
    return (t1 + t2) - t3


# --- bicharacter extraction -------------------------------------------------


def ambient(per_basis: tuple[Degree, ...], m) -> Degree:
    """The integer vector sum(m_i * basis_i)."""
    k = len(per_basis[0])
    out = dg.zero(k)
    for coef, gen in zip(m, per_basis):
        out = dg.add(out, dg.scale(coef, gen))
    return out


def periodic_base_vertex(g: KGraph, per_basis: tuple[Degree, ...]) -> str:
    for v in sorted(g.vertices):
        if all(periodic_at(g, p, v) for p in per_basis):
            return v
    raise ValueError("no vertex is locally periodic for every period generator")


def omega_from_oracle(
    g: KGraph,
    c: CocycleSpec,
    per_basis: tuple[Degree, ...],
    v: str | None = None,
) -> BicharacterTable:
    """Bicharacter with the isotropy cocycle's antisymmetrization.

    Evaluates the induced cocycle, resolved through cancelled cells, on
    generator pairs along one eventually periodic path and stores the pair
    differences in a strictly lower triangular matrix.  Only the
    antisymmetrization (hence the annihilator lattice) is meaningful; the
    triangular choice is a canonical gauge.
    """
    l = len(per_basis)
    if l == 0:
        return BicharacterTable.zero(0)
    if v is None:
        v = periodic_base_vertex(g, per_basis)
    elif not all(periodic_at(g, p, v) for p in per_basis):
        raise ValueError(f"vertex {v!r} is not locally periodic for every generator")
    x = canonical_tail(g, v)
    cells = CancelledCells(g)
    sig = {}
    for i in range(l):
        for j in range(l):
            if i != j:
                sig[(i, j)] = isotropy_restriction(c, cells, x, per_basis[i], per_basis[j])
    zero = PhaseExponent.zero()
    rows = [
        [sig[(i, j)] - sig[(j, i)] if i > j else zero for j in range(l)]
        for i in range(l)
    ]
    return BicharacterTable(l, tuple(tuple(r) for r in rows))


def omega_closedform(
    g: KGraph, c: CocycleSpec, per_basis: tuple[Degree, ...], v: str | None = None
) -> BicharacterTable:
    """The printed single-path product formula for the bicharacter.

    Kept as a cross-check target only: the expression is symmetric under
    swapping the two generators, so its antisymmetrization always
    vanishes, which disagrees with the oracle on some twisted fixtures.
    The comparison is reported by callers; the oracle is authoritative.
    """
    l = len(per_basis)
    if l == 0:
        return BicharacterTable.zero(0)
    if v is None:
        v = periodic_base_vertex(g, per_basis)
    big = dg.zero(g.k)
    for p in per_basis:
        big = dg.add(big, dg.add(dg.pos_part(p), dg.neg_part(p)))
    lam = g.paths_from(v, big)[0]

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

    def __init__(self, omega_target: BicharacterTable, c, P, x, per_basis):
        per_basis = tuple(per_basis)
        l = len(per_basis)
        if omega_target.rank != l:
            raise ValueError("target rank does not match the generator count")
        self.c = c
        self.P = P
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
        """The isotropy cocycle at x on generator coordinates (kept on P by sigma_c)."""
        return isotropy_restriction(
            self.c, self.P, self.x, ambient(self.per_basis, m), ambient(self.per_basis, n)
        )

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
        """Check delta b = ctilde on all pairs inside the box."""
        checked = 0
        bad = []
        for p in dg.signed_box((radius,) * self.l):
            for q in dg.signed_box((radius,) * self.l):
                checked += 1
                try:
                    lhs = (self.value(p) + self.value(q)) - self.value(dg.add(p, q))
                    if lhs != self.ctilde(p, q):
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

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_jsonable(self):
        return {
            "name": self.name,
            "checked": self.checked,
            "ok": self.ok,
            "violations": list(self.violations),
        }


def _paths_into(g: KGraph, v: str, m: Degree) -> list[Path]:
    """The paths of degree m with source v, in order of range vertex."""
    return [p for w in sorted(g.vertices) for p in g.paths_from(w, m) if p.source == v]


def _elements_at(g: KGraph, v: str, d: Degree) -> list[GroupoidElement]:
    """Elements (mu, nu) over the canonical tail at v, both degrees in the box d."""
    z = canonical_tail(g, v)
    return [
        GroupoidElement(mu, nu, z)
        for m in dg.box(d)
        for n in dg.box(d)
        for mu in _paths_into(g, v, m)
        for nu in _paths_into(g, v, n)
    ]


def _left_factors(g: KGraph, b: GroupoidElement, d: Degree, s: Degree) -> list[GroupoidElement]:
    """Elements a = (mu, x(0, s), T^s x) with a.b defined, x = b's range path.

    mu runs over the paths of degree in the box d.  The right factors of b
    are the inverses of the left factors of b's inverse.
    """
    u = b.range_path()
    us = u.shift(s)
    return [
        GroupoidElement(mu, u.segment_to(s), us)
        for m in dg.box(d)
        for mu in _paths_into(g, us.range, m)
    ]


def _sigma_or_error(c: CocycleSpec, P, gelt: GroupoidElement, helt: GroupoidElement):
    """sigma_c(gelt, helt), or the ResolutionError it raised, for several checks to share."""
    try:
        return sigma_c(c, P, gelt, helt)
    except ResolutionError as err:
        return err


def _resolved(value: PhaseExponent | ResolutionError) -> PhaseExponent:
    """A shared value, raising its error afresh in each check that uses it."""
    if isinstance(value, ResolutionError):
        raise ResolutionError(str(value))
    return value


def suite_cocycle_identity(
    g: KGraph,
    c: CocycleSpec,
    P: PartitionP | CancelledCells,
    depth=1,
    max_triples: int | None = None,
) -> SuiteResult:
    """sigma(a,b) + sigma(ab,c) = sigma(b,c) + sigma(a,bc) on sampled triples.

    The middle element b runs over source-matched pairs over a canonical
    tail; a and c are grafted onto its boundary paths at the shifts 0 and
    (1, ..., 1), so all compositions exist by construction.  Values and
    compositions involving b are hoisted so each extra triple costs two
    cocycle evaluations.
    """
    d = dg.as_degree(g.k, depth, "depth")
    shifts = (dg.zero(g.k), (1,) * g.k)
    checked = 0
    bad = []
    for v in sorted(g.vertices):
        for b in _elements_at(g, v, d):
            lefts = [
                (a, _sigma_or_error(c, P, a, b), compose_elements(a, b))
                for s in shifts
                for a in _left_factors(g, b, d, s)
            ]
            rights = [
                (cc, _sigma_or_error(c, P, b, cc), compose_elements(b, cc))
                for s in shifts
                for cc in (x.inverse() for x in _left_factors(g, b.inverse(), d, s))
            ]
            for a, s_ab, ab in lefts:
                for cc, s_bc, bc in rights:
                    try:
                        lhs = _resolved(s_ab) + sigma_c(c, P, ab, cc)
                        rhs = _resolved(s_bc) + sigma_c(c, P, a, bc)
                        if lhs != rhs:
                            bad.append(f"identity fails on ({a!r}, {b!r}, {cc!r})")
                    except ResolutionError as err:
                        bad.append(f"identity fails on ({a!r}, {b!r}, {cc!r}): {err}")
                    checked += 1
                    if max_triples is not None and checked >= max_triples:
                        return SuiteResult("cocycle_identity", checked, tuple(bad))
    return SuiteResult("cocycle_identity", checked, tuple(bad))


def suite_resolution_independence(
    g: KGraph, c: CocycleSpec, P: PartitionP | CancelledCells, depth=1, max_pairs: int = 200
) -> SuiteResult:
    """Recompute sigma(a, b) with three paddings; sigma_c asserts agreement.

    Runs over distinct pairs: b as in the cocycle identity suite, a over
    its unshifted left factors.
    """
    d = dg.as_degree(g.k, depth, "depth")
    zero = dg.zero(g.k)
    checked = 0
    bad = []
    for v in sorted(g.vertices):
        for b in _elements_at(g, v, d):
            for a in _left_factors(g, b, d, zero):
                try:
                    sigma_c(c, P, a, b, paddings=(0, 1, 2))
                except ResolutionError as err:
                    bad.append(str(err))
                checked += 1
                if checked >= max_pairs:
                    return SuiteResult("resolution_independence", checked, tuple(bad))
    return SuiteResult("resolution_independence", checked, tuple(bad))


def _period_samples(per_basis: tuple[Degree, ...], radius: int):
    l = len(per_basis)
    for coeffs in dg.signed_box((radius,) * l):
        yield ambient(per_basis, coeffs)


def suite_conjugation_formula(
    g: KGraph,
    c: CocycleSpec,
    P: PartitionP | CancelledCells,
    per_basis: tuple[Degree, ...],
    depth=1,
    radius: int = 1,
    max_checks: int | None = None,
) -> SuiteResult:
    """r(a, p+q) = sigma_r(p,q) - sigma_s(p,q) + r(a,p) + r(a,q) on samples.

    Elements a run over source-matched pairs at vertices that carry every
    period generator; p and q run over small integer combinations.
    """
    if not per_basis:
        return SuiteResult("conjugation_formula", 0, ())
    checked = 0
    bad = []
    d = dg.as_degree(g.k, depth, "depth")
    periods = list(_period_samples(per_basis, radius))
    for v in sorted(g.vertices):
        if not all(periodic_at(g, p, v) for p in per_basis):
            continue
        for a in _elements_at(g, v, d):
            xr = a.range_path()
            xs = a.source_path()
            r_at: dict[Degree, PhaseExponent] = {}

            def r_cached(p: Degree) -> PhaseExponent:
                if p not in r_at:
                    r_at[p] = r_sigma(c, P, a, p)
                return r_at[p]

            iso_r = {p: isotropy_element(xr, p) for p in periods}
            iso_s = {p: isotropy_element(xs, p) for p in periods}
            for p in periods:
                for q in periods:
                    try:
                        lhs = r_cached(dg.add(p, q))
                        rhs = (
                            sigma_c(c, P, iso_r[p], iso_r[q])
                            - sigma_c(c, P, iso_s[p], iso_s[q])
                            + r_cached(p)
                            + r_cached(q)
                        )
                        if lhs != rhs:
                            bad.append(f"conjugation additivity fails at ({a!r}, {p}, {q})")
                    except ResolutionError as err:
                        bad.append(f"conjugation additivity fails at ({a!r}, {p}, {q}): {err}")
                    checked += 1
                    if max_checks is not None and checked >= max_checks:
                        return SuiteResult("conjugation_formula", checked, tuple(bad))
    return SuiteResult("conjugation_formula", checked, tuple(bad))


def suite_centre_phase_triviality(
    g: KGraph,
    c: CocycleSpec,
    P: PartitionP | CancelledCells,
    per_basis: tuple[Degree, ...],
    zbasis: tuple[tuple[int, ...], ...],
    depth=1,
    radius: int = 1,
) -> SuiteResult:
    """Conjugation phases of isotropy elements vanish on central periods.

    zbasis rows are generator coordinates of periods annihilated by the
    bicharacter commutator.  Across isotropy elements (x, q, x), with x
    ranging over dressed canonical tails, the r-phase of every central
    period must be trivial.  Non-isotropy elements are exempt: their
    phases are exactly what moves orbits.
    """
    checked = 0
    bad = []
    d = dg.as_degree(g.k, depth, "depth")
    central = [ambient(per_basis, row) for row in zbasis] if per_basis else []
    if not central:
        return SuiteResult("centre_phase_triviality", 0, ())
    for v in sorted(g.vertices):
        if not all(periodic_at(g, p, v) for p in per_basis):
            continue
        base = canonical_tail(g, v)
        tails = [base]
        for m in dg.box(d):
            if not dg.is_zero(m):
                tails += [base.prepend(mu) for mu in _paths_into(g, v, m)]
        for x in tails:
            for q in _period_samples(per_basis, radius):
                gamma = isotropy_element(x, q)
                for p in central:
                    try:
                        val = r_sigma(c, P, gamma, p)
                        if not phase_is_trivial(val):
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

    Elements come from the degree box max(1, depth - 1), and each resolves
    through its own cancelled cell; `cap` bounds the sampled identity
    triples and conjugation checks.  The period-dependent suites need
    certified cofinality, and the centre and coboundary suites a
    nontrivial period lattice and a bicharacter that does not depend on
    the resolution.  Returns the suites, notes on the suites skipped, the
    period basis and the bicharacter the suites used (None when none did).
    """
    if cap < 1:
        raise ValueError(f"the sample cap must be >= 1, got {cap}")
    element_depth = max(1, depth - 1)
    P = CancelledCells(g)
    suites = [
        suite_cocycle_identity(g, c, P, depth=element_depth, max_triples=cap),
        suite_resolution_independence(g, c, P, depth=element_depth),
    ]
    if is_cofinal(g).status != YES:
        return suites, ["cofinality not certified; period-dependent suites skipped"], (), None
    basis = tuple(per_group(g).lattice.rows)
    suites.append(suite_conjugation_formula(g, c, P, basis, depth=element_depth, max_checks=cap))
    if not basis:
        return suites, ["trivial period lattice; centre and coboundary suites are vacuous"], basis, None
    try:
        om = omega_from_oracle(g, c, basis)
    except ResolutionError as err:
        return suites, [f"no bicharacter ({err}); centre and coboundary suites skipped"], basis, None
    zrows = z_omega_of(om).rows
    suites.append(suite_centre_phase_triviality(g, c, P, basis, zrows, depth=element_depth))
    x = canonical_tail(g, periodic_base_vertex(g, basis))
    checked, bad = CoboundaryBx(om, c, P, x, basis).verify_box(element_depth)
    suites.append(SuiteResult("coboundary_box", checked, tuple(bad)))
    return suites, [], basis, om
