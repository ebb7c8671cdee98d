"""Certified simplicity decisions for twisted colored-graph algebras.

The decision cascade glues the independently tested components:

1. a graph that is not cofinal is never simple (unreachable-cycle witness);
2. a trivial degeneracy sublattice of the extracted bicharacter certifies
   simplicity;
3. on single-path bases (exactly one path of every degree from every
   vertex) the converse holds, so a nontrivial degeneracy sublattice
   certifies nonsimplicity;
4. for torus-product presentations carrying an edge phase 1-cochain over
   an aperiodic strongly connected base, density of the orbit phase group
   in the degenerate directions decides the question: a vertex potential
   freezing some character is a nonsimple certificate, and a full-rank
   Kronecker witness a simple one;
5. everything else stays UNKNOWN with the computed invariants attached.

Every certified verdict carries a certificate, and the decider recertifies
it through an independent verifier before reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from . import degrees as dg
from .degrees import Degree
from .cocycles import BicharacterTable, CocycleSpec, OneCocyclePhi, PhiOmegaCocycle, validate_product_split
from .kgraph import KGraph, product_base
from .lattices import (
    LatticeBasis,
    hnf,
    integral_pairing_lattice,
    kronecker_dense,
    verify_kronecker,
)
from .oracle import omega_from_oracle, z_omega_of
from .phases import PhaseExponent, PhaseVector, format_phase, format_phase_rows, pair_int, phase_is_trivial
from .structure import (
    NO,
    UNKNOWN,
    YES,
    PeriodicityResult,
    Verdict,
    is_aperiodic,
    is_cofinal,
    is_strongly_connected,
    per_group,
    verify_cofinality,
)

SIMPLE = "CERTIFIED_SIMPLE"
NONSIMPLE = "CERTIFIED_NONSIMPLE"


class RecheckError(RuntimeError):
    """A certificate failed its independent recheck; no verdict is reported."""

    def __init__(self, certificate: str):
        super().__init__(f"{certificate} certificate failed its recheck")


# --- the degeneracy sublattice ----------------------------------------------


def verify_z_omega(omega: BicharacterTable, z: LatticeBasis, radius: int = 2) -> bool:
    """Recheck the degeneracy lattice without the congruence solver.

    Every claimed generator must commute with all unit vectors, and within
    a brute-force box every vector must be classified consistently.
    """
    l = omega.rank
    if z.dim != l:
        return False
    units = [dg.unit(l, i + 1) for i in range(l)]
    for row in z.rows:
        if not all(phase_is_trivial(omega.commutator(row, u)) for u in units):
            return False
    if l == 0:
        return True
    for p in dg.signed_box((radius,) * l):
        central = all(phase_is_trivial(omega.commutator(p, u)) for u in units)
        if central != z.member(p):
            return False
    return True


# --- single-path bases -------------------------------------------------------


def is_single_path_base(g: KGraph) -> bool:
    """Exactly one path of every degree from every vertex."""
    return all(len(g.in_edges(v, i)) == 1 for v in g.vertices for i in range(1, g.k + 1))


# --- orbit phase groups for torus products -----------------------------------


def _paths_by_source(g: KGraph, bound: int):
    by_source: dict[str, list] = {v: [] for v in g.vertices}
    for n in dg.box((bound,) * g.k):
        for v in g.vertices:
            for p in g.paths_from(v, n):
                by_source[p.source].append(p)
    return by_source


def _phase_group_rows(gens: list[PhaseVector], d: int, symbols: tuple[str, ...], scale: int):
    """Integer rows presenting the generated subgroup of the d-torus.

    Coordinates flatten to (rational part, one block per symbol); unit
    vectors on the rational block encode working mod Z; everything is
    scaled to integers by the caller-supplied `scale`, a multiple of every
    entry's denominator.
    """
    width = d * (1 + len(symbols))
    rows = []
    for v in gens:
        factors = [scale // entry.den for entry in v]
        flat = [entry.num * f for entry, f in zip(v, factors)]
        terms = [dict(entry.terms) for entry in v]
        for s in symbols:
            flat.extend(t.get(s, 0) * f for t, f in zip(terms, factors))
        rows.append(tuple(flat))
    for i in range(d):
        unit = [0] * width
        unit[i] = scale
        rows.append(tuple(unit))
    return hnf(rows)


def _gen_scale(gens: list[PhaseVector]) -> int:
    return lcm(1, *(entry.den for v in gens for entry in v))


def orbit_phase_generators(
    g: KGraph, phi: OneCocyclePhi, zbasis: LatticeBasis, bound: int
) -> tuple[list[PhaseVector], bool]:
    """Phase vectors of all source-matched path pairs, in zbasis coordinates.

    Enumerates pairs (mu, nu) with s(mu) = s(nu) and degrees at most the
    bound, pairs each zbasis row with the 1-cochain difference, and reports
    whether the generated torus subgroup was already unchanged between the
    previous bound and this one.  Pairing is linear, so each path is
    projected onto the zbasis rows once, for both bounds, and a pair's
    vector is the difference of its two projections.
    """
    if not is_strongly_connected(g):
        raise ValueError("orbit phase enumeration requires a strongly connected graph")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    d = zbasis.rank
    projected: dict = {}

    def projection(p) -> PhaseVector:
        out = projected.get(p)
        if out is None:
            value = phi.value(p)
            out = projected[p] = tuple(pair_int(z, value) for z in zbasis.rows)
        return out

    def gens_at(b: int) -> list[PhaseVector]:
        seen = set()
        out: list[PhaseVector] = []
        for v, paths in sorted(_paths_by_source(g, b).items()):
            projs = [projection(p) for p in paths]
            for pm in projs:
                for pn in projs:
                    vec = tuple(a - c for a, c in zip(pm, pn))
                    if vec not in seen:
                        seen.add(vec)
                        out.append(vec)
        return out

    gens = gens_at(bound)
    prev = gens_at(bound - 1) if bound > 1 else [tuple(PhaseExponent.zero() for _ in range(d))]
    symbols = tuple(sorted({s for v in gens for e in v for s in e.symbols()}))
    scale = _gen_scale(gens)
    stabilized = _phase_group_rows(prev, d, symbols, scale) == _phase_group_rows(gens, d, symbols, scale)
    return gens, stabilized


# --- potential certificates of non-density -----------------------------------


def _projected_edge_phases(g: KGraph, phi: OneCocyclePhi, zbasis: LatticeBasis):
    return {
        e.id: tuple(pair_int(z, phi.edge_value(e.id)) for z in zbasis.rows)
        for e in g.edges
    }


def potential_certificate(
    g: KGraph, phi: OneCocyclePhi, zbasis: LatticeBasis
) -> tuple[tuple[int, ...], dict[str, PhaseExponent]] | None:
    """Nonzero character plus vertex potential freezing the orbit phases.

    Looks for integer n (in zbasis coordinates) and psi with
    n . phase(e) = psi(r(e)) - psi(s(e)) mod Z on every edge.  When it
    exists, the n-th character coordinate of any orbit point depends on the
    range vertex alone, so orbit closures miss almost every character:
    a nonsimplicity certificate.  Solved exactly via a spanning forest and
    the integral pairing lattice of the fundamental cycle phase vectors.
    """
    d = zbasis.rank
    if d == 0:
        return None
    w = _projected_edge_phases(g, phi, zbasis)
    zero_vec = tuple(PhaseExponent.zero() for _ in range(d))

    adj: dict[str, list] = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.source].append((e.range, e, 1))
        adj[e.range].append((e.source, e, -1))

    offset: dict[str, PhaseVector] = {}
    tree_edges: set[str] = set()
    for root in sorted(g.vertices):
        if root in offset:
            continue
        offset[root] = zero_vec
        stack = [root]
        while stack:
            v = stack.pop()
            for other, e, sign in sorted(adj[v], key=lambda t: t[1].id):
                if other in offset:
                    continue
                # traversing v -> other; the edge runs source -> range
                if sign == 1:
                    offset[other] = tuple(a + b for a, b in zip(offset[v], w[e.id]))
                else:
                    offset[other] = tuple(a - b for a, b in zip(offset[v], w[e.id]))
                tree_edges.add(e.id)
                stack.append(other)

    cycles: list[PhaseVector] = []
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.id in tree_edges:
            continue
        gap = tuple(
            a - (b - c) for a, b, c in zip(w[e.id], offset[e.range], offset[e.source])
        )
        cycles.append(gap)
    valid = integral_pairing_lattice(cycles, d)
    if valid.is_trivial():
        return None
    n = valid.rows[0]
    psi = {v: pair_int(n, offset[v]) for v in g.vertices}
    return n, psi


def verify_potential(
    g: KGraph,
    phi: OneCocyclePhi,
    zbasis: LatticeBasis,
    n: tuple[int, ...],
    psi: dict[str, PhaseExponent],
) -> bool:
    if len(n) != zbasis.rank or not any(n):
        return False
    if set(psi) != set(g.vertices):
        return False
    w = _projected_edge_phases(g, phi, zbasis)
    for e in g.edges:
        lhs = pair_int(n, w[e.id])
        if lhs != psi[e.range] - psi[e.source]:
            return False
    return True


# --- the decision cascade ----------------------------------------------------


@dataclass(frozen=True)
class DecisionBounds:
    period: Degree | int | None = None
    orbit: int = 4

    def to_jsonable(self) -> dict:
        out: dict = {"orbit": self.orbit}
        if self.period is not None:
            out["period"] = list(self.period) if not isinstance(self.period, int) else self.period
        return out


@dataclass(frozen=True)
class SimplicityReport:
    verdict: Verdict
    per: PeriodicityResult | None = None
    omega: BicharacterTable | None = None
    z_omega: LatticeBasis | None = None
    density_generators: tuple[PhaseVector, ...] = ()
    bounds: DecisionBounds = field(default_factory=DecisionBounds)
    notes: tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        out: dict = {"verdict": self.verdict.to_jsonable(), "bounds": self.bounds.to_jsonable()}
        if self.per is not None:
            out["periods"] = {
                "lattice": self.per.lattice.to_jsonable(),
                "exhaustive_up_to": list(self.per.exhaustive_up_to),
                "per_vertex_agreement": self.per.per_vertex_agreement,
            }
        if self.omega is not None:
            out["bicharacter"] = format_phase_rows(self.omega.rows)
            out["bicharacter_antisymmetrization"] = format_phase_rows(
                self.omega.antisymmetrization()
            )
        if self.z_omega is not None:
            out["z_omega"] = self.z_omega.to_jsonable()
        if self.density_generators:
            out["density_generators"] = format_phase_rows(self.density_generators)
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _torus_unit_lattice(k: int, l: int) -> LatticeBasis:
    rows = [dg.unit(k, k - l + i + 1) for i in range(l)]
    return LatticeBasis.from_rows(rows, k)


def decide_simplicity(
    g: KGraph, c: CocycleSpec, bounds: DecisionBounds | None = None
) -> SimplicityReport:
    b = bounds or DecisionBounds()
    notes: list[str] = []

    cof = is_cofinal(g)
    if cof.status == NO:
        if not verify_cofinality(g, cof):
            raise RecheckError("cofinality")
        verdict = Verdict(
            NONSIMPLE,
            certificate={"kind": "not_cofinal", "witness": cof.certificate or {}},
            reason="the graph is not cofinal",
        )
        return SimplicityReport(verdict, bounds=b)
    if cof.status == UNKNOWN:
        verdict = Verdict(
            UNKNOWN,
            reason="cofinality is undecided for this shape; no simplicity criterion applies",
        )
        return SimplicityReport(verdict, bounds=b, notes=(cof.reason,) if cof.reason else ())

    per = per_group(g, b.period)
    per_basis = per.lattice.rows
    omega = omega_from_oracle(g, c, per_basis)
    z = z_omega_of(omega)
    if not verify_z_omega(omega, z):
        raise RecheckError("degeneracy lattice")

    if z.is_trivial():
        verdict = Verdict(
            SIMPLE,
            certificate={
                "kind": "z_omega_trivial",
                "periods": per.lattice.to_jsonable(),
                "antisymmetrization": format_phase_rows(omega.antisymmetrization()),
            },
            reason="the bicharacter is nondegenerate on the period lattice",
        )
        return SimplicityReport(verdict, per, omega, z, (), b)

    if is_single_path_base(g):
        verdict = Verdict(
            NONSIMPLE,
            certificate={
                "kind": "central_period_obstruction",
                "z_omega": z.to_jsonable(),
                "periods": per.lattice.to_jsonable(),
            },
            reason="single-path base with degenerate directions: orbit phases cannot move them",
        )
        return SimplicityReport(verdict, per, omega, z, (), b)

    if isinstance(c, PhiOmegaCocycle):
        l = c.l
        split = validate_product_split(g, l)
        if not split.ok:
            notes.append("not a recognizable torus product: " + split.problems[0])
        elif per.lattice != _torus_unit_lattice(g.k, l):
            notes.append("period lattice is not exactly the torus directions; orbit reduction unavailable")
        else:
            base = product_base(g, l)
            ap = is_aperiodic(base)
            if ap.status != YES:
                notes.append("base graph is not certified aperiodic; orbit reduction unavailable")
            elif not is_strongly_connected(base):
                notes.append("base graph is not strongly connected; orbit reduction unavailable")
            else:
                pot = potential_certificate(base, c.phi, z)
                if pot is not None:
                    n, psi = pot
                    if not verify_potential(base, c.phi, z, n, psi):
                        raise RecheckError("potential")
                    verdict = Verdict(
                        NONSIMPLE,
                        certificate={
                            "kind": "orbit_potential",
                            "n": list(n),
                            "psi": {v: format_phase(psi[v]) for v in sorted(psi)},
                        },
                        reason="a character coordinate of the orbit is a function of the range vertex",
                    )
                    return SimplicityReport(verdict, per, omega, z, (), b, tuple(notes))
                gens, stabilized = orbit_phase_generators(base, c.phi, z, b.orbit)
                kron = kronecker_dense(gens, z.rank)
                if kron.dense:
                    if not verify_kronecker(gens, z.rank, kron):
                        raise RecheckError("density")
                    verdict = Verdict(
                        SIMPLE,
                        certificate={
                            "kind": "kronecker_dense",
                            "dimension": z.rank,
                            "witness": kron.certificate,
                        },
                        reason="orbit phase group is dense in the degenerate directions",
                    )
                    return SimplicityReport(verdict, per, omega, z, tuple(gens), b, tuple(notes))
                evidence = {
                    "kind": "nonsimple_evidence",
                    "annihilator": kron.annihilator.to_jsonable(),
                    "stabilized": stabilized,
                    "bound": b.orbit,
                }
                reason = (
                    "orbit phase group not dense at the bound"
                    + ("; generators stabilized, but no potential certificate exists" if stabilized else "")
                )
                verdict = Verdict(UNKNOWN, certificate=evidence, reason=reason)
                return SimplicityReport(verdict, per, omega, z, tuple(gens), b, tuple(notes))

    verdict = Verdict(
        UNKNOWN,
        reason="degenerate directions present and no applicable density reduction",
    )
    return SimplicityReport(verdict, per, omega, z, (), b, tuple(notes))
