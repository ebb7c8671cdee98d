"""Brute-force property suites over the groupoid model of `groupoid`.

The suites check the induced cocycle on sampled elements: its 2-cocycle
identity, its independence of the resolution, the conjugation formula,
trivial phases on the centre, and an inductive coboundary to the
bicharacter (`CoboundaryBx`).  `run_suites` runs those that apply on one
InducedCocycle, and `omega_closedform` is the printed formula that
reports compare with.  A suite keeps only loop-local values, and records
a ResolutionError against each check that asked.
The depth-truncated partition into cylinder cells stays here, though no
command calls it: `PartitionP.member` is the tests' reference cell rule,
which raises DepthError (not wrong answers) when too shallow, and the
benchmark's tracer looks up the partition's functions in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import degrees as dg
from .degrees import Degree
from .cocycles import BicharacterTable, CocycleDomainError, CocycleSpec, cocycle_value
from .groupoid import (
    GroupoidElement,
    InducedCocycle,
    ResolutionError,
    compose_elements,
    element,
    isotropy_element,
    omega_from_oracle,
    r_sigma,
    sigma_c,
)
from .kgraph import KGraph, Path, canonical_tail
from .lattices import z_omega_of
from .phases import PhaseExponent, pair_int
from .structure import cofinal_kind, per_group


class DepthError(RuntimeError):
    """The partition's truncation depth cannot resolve the request; increase depth."""


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


# --- bicharacter extraction -------------------------------------------------


def ambient(per_basis: tuple[Degree, ...], m) -> Degree:
    """The integer vector sum(m_i * basis_i)."""
    k = len(per_basis[0])
    out = dg.zero(k)
    for coef, gen in zip(m, per_basis):
        out = dg.add(out, dg.scale(coef, gen))
    return out


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

    def ctilde(self, m: Degree, n: Degree) -> PhaseExponent:
        """The isotropy cocycle at x on generator coordinates (kept on s by sigma_c), less the target."""
        p, q = ambient(self.per_basis, m), ambient(self.per_basis, n)
        return sigma_c(self.s, isotropy_element(self.x, p), isotropy_element(self.x, q)) - self.omega.value(m, n)

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
    period-dependent suites need a graph that the rotation rule
    `cofinal_kind` finds cofinal and periods that agree at every vertex,
    and the centre and coboundary suites a nontrivial period lattice and
    a bicharacter that does not depend on the resolution.  A suite that
    asks a table for a pair it does not cover stops there, with no checks
    and the table's message, and the others still run; the centre and
    coboundary suites both stop when the bicharacter asks for such a pair.
    Returns the suites, notes on the suites skipped, the period basis and
    the bicharacter the suites used (None when none did).
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
    if cofinal_kind(g) is None:
        return suites, ["cofinality not certified; period-dependent suites skipped"], (), None
    per = per_group(g)
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
