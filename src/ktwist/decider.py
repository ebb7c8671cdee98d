"""Certified simplicity decisions for twisted colored-graph algebras.

The decision cascade glues the independently tested components:

1. a graph that is not cofinal is never simple (unreachable-cycle witness:
   a vertex and a loop through every colour that avoids its reach); a
   cofinal one whose vertices have different periods stays UNKNOWN, since
   the intersection of their periods is not the period group;
2. a trivial degeneracy sublattice of the extracted bicharacter certifies
   simplicity;
3. on single-path bases (exactly one path of every degree from every
   vertex) the converse holds, so a nontrivial degeneracy sublattice
   certifies nonsimplicity;
4. for torus products with an edge phase 1-cochain, periods exactly the
   torus directions and cofinality kind `strongly_connected` (so a base
   strongly connected, and aperiodic over the period box), density of the
   orbit phase group in the degenerate directions decides, completely: a
   vertex potential freezing some character certifies nonsimplicity, and
   without one the group is dense, with a full-rank Kronecker witness, so
   simple.  The generators are the edge projections P(e), which span the
   group, and an n != 0 with n . P(e) in Z on every edge would make
   psi = 0 a potential.  P is built once per decision, as a table keyed
   by edge id, and the potential search, its recheck and the density
   step all read that table;
5. everything else stays UNKNOWN with the computed invariants attached.

Every certified verdict carries a certificate, and the decider recertifies
it through an independent verifier before reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from . import degrees as dg
from .degrees import Degree
from .cocycles import BicharacterTable, CocycleSpec, OneCocyclePhi, PhiOmegaCocycle, validate_product_split
from .groupoid import InducedCocycle, omega_from_oracle
from .kgraph import KGraph, product_base
from .lattices import (
    LatticeBasis,
    _eliminate,
    integral_pairing_lattice,
    kronecker_dense,
    verify_kronecker,
    z_omega_of,
)
from .phases import PhaseExponent, PhaseVector, format_phase, format_phase_rows, integer_rows, pair_int
from .structure import (
    NO,
    UNKNOWN,
    PeriodicityResult,
    Verdict,
    _prime_exponents,
    is_cofinal,
    per_group,
    period_box_notes,
    verify_cofinality,
)

SIMPLE = "CERTIFIED_SIMPLE"
NONSIMPLE = "CERTIFIED_NONSIMPLE"


class RecheckError(RuntimeError):
    """A certificate failed its independent recheck; no verdict is reported."""

    def __init__(self, certificate: str):
        super().__init__(f"{certificate} certificate failed its recheck")


# --- the degeneracy sublattice ----------------------------------------------


def _integer_columns(omega: BicharacterTable) -> tuple[list[tuple[int, tuple[int, ...]]], list[tuple[int, ...]]]:
    """The commutator table on unit vectors in integers: for each column
    (S, a, b) of it (`integer_rows`), the congruence (S, a) when S > 1, and
    the symbol rows b.  A column with S = 1 has integer a, so it gives no
    congruence.  Entry i of column w is [e_i, e_w] = rows[i][w] - rows[w][i]."""
    rows, l = omega.rows, omega.rank
    columns = [integer_rows(tuple(rows[i][w] - rows[w][i] for i in range(l))) for w in range(l)]
    return [(S, a) for S, a, _ in columns if S > 1], [row for _, _, b in columns for row in b]


def _centre_rule(mods, eqs) -> Callable[[Sequence[int]], bool]:
    """p is central iff p . a = 0 mod S for each congruence (S, a) and
    p . b = 0 for each symbol row b of `_integer_columns`."""
    return lambda p: all(not sum(map(mul, p, a)) % S for S, a in mods) and not any(sum(map(mul, p, r)) for r in eqs)


def _rank_mod(rows: list[list[int]], q: int) -> int:
    """The rank over F_q of integer rows, q prime."""
    rows = [[x % q for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % q
            if f:
                rows[r] = [(x - f * y) % q for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def verify_z_omega(omega: BicharacterTable, z: LatticeBasis) -> bool:
    """Recheck the degeneracy lattice exactly, without the congruence solver.

    The commutator is bilinear, so [p, e_w] = sum_i p_i [e_i, e_w]: p is
    central iff p . a_w = 0 mod S_w and p . b = 0 for every column w of the
    l x l table on unit vectors in integers (`_integer_columns`) and each
    of its symbol rows b.  z = Z_omega iff:
    - every generator of z is central, so z <= Z_omega;
    - rank: rank(z) = l - rank(B), B the symbol rows of every column
      (Fraction elimination).  Z_omega lies in ker B, and S ker B lies in
      Z_omega for S the lcm of the S_w, so Z_omega has that rank.  Then z
      and Z_omega span the same Q-space, and Z_omega lies in the
      saturation sat(z) = Q z & Z^l;
    - index: for each prime q dividing d, there is no c != 0 in F_q^r
      with sum c_i z_i = 0 mod q and sum c_i t_wi = 0 mod q for every w
      with S_w > 1, where r = rank(z), t_wi = (z_i . a_w) / S_w, and d is
      the r x r minor of z in the pivot columns of its Fraction
      elimination.  If Z_omega / z is not trivial, it is finite, so it
      holds an element p of prime order q: q p = sum c_i z_i with c != 0
      mod q, as p is not in z.  Then q divides the order of sat(z) / z,
      which is the gcd of the r x r minors of z, and so divides d; p is
      integral iff sum c_i z_i = 0 mod q; p . b = 0 as each z_i . b = 0;
      and p . a_w / S_w = (1/q) sum c_i t_wi is an integer iff the second
      congruence holds.  Conversely such a c gives such a p.  So the test
      is one rank over F_q per prime: the r rows (z_i, t_wi) must keep
      rank r.  A prime of d that does not divide the index passes, as the
      z_i alone keep rank r mod q.  Rows of z that are dependent give
      d = 0, and are refused.
    It uses `integer_rows` and integer and Fraction arithmetic only: no
    `antisymmetrization`, `kernel`/`hnf` or solver.
    """
    if z.dim != omega.rank:
        return False
    mods, eqs = _integer_columns(omega)
    central = _centre_rule(mods, eqs)
    if not all(central(row) for row in z.rows):
        return False
    rank_b = len(_eliminate([[Fraction(x) for x in row] for row in eqs])[0])
    if z.rank != omega.rank - rank_b:
        return False
    minor = abs(_eliminate([[Fraction(x) for x in row] for row in z.rows])[1])
    rows = [list(row) + [sum(map(mul, row, a)) // S for S, a in mods] for row in z.rows]
    return minor > 0 and all(_rank_mod(rows, q) == z.rank for q in _prime_exponents(int(minor)))


# --- single-path bases -------------------------------------------------------


def is_single_path_base(g: KGraph) -> bool:
    """Exactly one path of every degree from every vertex."""
    return all(len(g.in_edges(v, i)) == 1 for v in g.vertices for i in range(1, g.k + 1))


# --- orbit phase groups for torus products -----------------------------------


def orbit_phase_generators(
    g: KGraph, phi: OneCocyclePhi, zbasis: LatticeBasis
) -> dict[str, PhaseVector]:
    """The projection P(e) of each edge's phase on the zbasis rows.

    Keyed by edge id, in id order.  These span the orbit phase group: a
    source-matched path pair (mu, nu) moves the phase by P(mu) - P(nu), P
    is additive along paths, and the pair (e, s(e)) gives P(e) itself.
    """
    return {
        e.id: tuple(pair_int(z, phi.edge_value(e.id)) for z in zbasis.rows)
        for e in sorted(g.edges, key=lambda e: e.id)
    }


# --- potential certificates of non-density -----------------------------------


def potential_certificate(
    g: KGraph, w: dict[str, PhaseVector], d: int
) -> tuple[tuple[int, ...], dict[str, PhaseExponent]] | None:
    """Nonzero character plus vertex potential freezing the orbit phases.

    `w` is the edge table of `orbit_phase_generators`, P(e) in d
    coordinates.  Looks for integer n and psi with
    n . P(e) = psi(r(e)) - psi(s(e)) mod Z on every edge.  When it
    exists, the n-th character coordinate of any orbit point depends on the
    range vertex alone, so orbit closures miss almost every character:
    a nonsimplicity certificate.  Solved exactly via a spanning forest and
    the integral pairing lattice of the edge gaps P(e) - (offset(r(e)) -
    offset(s(e))): zero on the forest edges, the fundamental cycle phase
    vectors on the others.
    """
    edges = sorted(g.edges, key=lambda e: e.id)
    adj: dict[str, list[tuple[str, PhaseVector]]] = {v: [] for v in g.vertices}
    for e in edges:
        adj[e.source].append((e.range, w[e.id]))
        adj[e.range].append((e.source, tuple(-x for x in w[e.id])))

    offset: dict[str, PhaseVector] = {}
    for root in sorted(g.vertices):
        if root in offset:
            continue
        offset[root] = tuple(PhaseExponent.zero() for _ in range(d))
        stack = [root]
        while stack:
            v = stack.pop()
            for other, step in adj[v]:
                if other not in offset:
                    offset[other] = tuple(a + b for a, b in zip(offset[v], step))
                    stack.append(other)

    gaps = [tuple(a - (b - c) for a, b, c in zip(w[e.id], offset[e.range], offset[e.source])) for e in edges]
    valid = integral_pairing_lattice(gaps, d)
    if valid.is_trivial():
        return None
    n = valid.rows[0]
    psi = {v: pair_int(n, offset[v]) for v in g.vertices}
    return n, psi


def verify_potential(
    g: KGraph, w: dict[str, PhaseVector], n: tuple[int, ...], psi: dict[str, PhaseExponent]
) -> bool:
    """Recheck n . P(e) = psi(r(e)) - psi(s(e)) on every edge e of g, P(e)
    read from the edge table `w`, for a nonzero integer n of the table's
    rank.  A certificate of any other shape is rejected, never an error."""
    if not isinstance(n, (tuple, list)) or not all(isinstance(x, int) for x in n) or not any(n):
        return False
    if set(psi) != set(g.vertices) or not all(isinstance(p, PhaseExponent) for p in psi.values()):
        return False
    if any(e.id not in w for e in g.edges) or any(len(p) != len(n) for p in w.values()):
        return False
    return all(pair_int(n, w[e.id]) == psi[e.range] - psi[e.source] for e in g.edges)


# --- the decision cascade ----------------------------------------------------


@dataclass(frozen=True)
class SimplicityReport:
    verdict: Verdict
    per: PeriodicityResult | None = None
    omega: BicharacterTable | None = None
    z_omega: LatticeBasis | None = None
    density_generators: tuple[PhaseVector, ...] = ()
    notes: tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        out: dict = {"verdict": self.verdict.to_jsonable()}
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


def _decide_degenerate(
    g: KGraph, c: CocycleSpec, cof: Verdict, per: PeriodicityResult,
    omega: BicharacterTable, z: LatticeBasis,
) -> tuple[Verdict, tuple[PhaseVector, ...], str | None]:
    """Steps 2-5 of the cascade, once the degeneracy lattice z is known.

    Returns the verdict, the density generators it rests on (the base
    edge projections P(e), in edge id order) and a note on why the torus
    step did not apply, if it did not.  Once reached, the torus step
    always decides: an n != 0 with n . P(e) in Z on every edge would make
    psi = 0 a potential, so without one the generators are dense, and a
    non-dense result is a broken invariant, raised as a failed density
    recheck.

    The torus step rests on facts certified on the product g once
    `validate_product_split` passed, and searches the base no more:
    - the base is strongly connected iff the cofinality kind `cof` is
      `strongly_connected`: torus edges are loops, so g and its base have
      the same reach sets, and that kind means every reach set is V;
    - no base vertex has a period p != 0 within the reported box
      `per.exhaustive_up_to`: the torus edges are one loop of each colour
      at each vertex, so an infinite path of g is fixed by its base factor
      and such a p at v gives the period (p, 0) of g at v, a candidate of
      that box; per-vertex agreement makes it a period everywhere, so it
      lies in Per(g) = 0 + Z^l and p = 0 (Per(Lambda x T_l) = Per(Lambda)
      + Z^l, as in Carlsen-Kang-Shotwell-Sims, JFA 2014).
    """
    if z.is_trivial():
        certificate = {
            "kind": "z_omega_trivial",
            "periods": per.lattice.to_jsonable(),
            "antisymmetrization": format_phase_rows(omega.antisymmetrization()),
        }
        reason = "the bicharacter is nondegenerate on the period lattice"
        return Verdict(SIMPLE, certificate, reason=reason), (), None

    if is_single_path_base(g):
        certificate = {
            "kind": "central_period_obstruction",
            "z_omega": z.to_jsonable(),
            "periods": per.lattice.to_jsonable(),
        }
        reason = "single-path base with degenerate directions: orbit phases cannot move them"
        return Verdict(NONSIMPLE, certificate, reason=reason), (), None

    unknown = Verdict(UNKNOWN, reason="degenerate directions present and no applicable density reduction")
    if not isinstance(c, PhiOmegaCocycle):
        return unknown, (), None
    split = validate_product_split(g, c.l)
    if not split.ok:
        return unknown, (), "not a recognizable torus product: " + split.problems[0]
    if per.lattice != _torus_unit_lattice(g.k, c.l):
        return unknown, (), "period lattice is not exactly the torus directions; orbit reduction unavailable"
    if cof.certificate != {"kind": "strongly_connected"}:
        return unknown, (), "base graph is not strongly connected; orbit reduction unavailable"
    base = product_base(g, c.l)

    w = orbit_phase_generators(base, c.phi, z)
    pot = potential_certificate(base, w, z.rank)
    if pot is not None:
        n, psi = pot
        if not verify_potential(base, w, n, psi):
            raise RecheckError("potential")
        psi_text = {v: format_phase(psi[v]) for v in sorted(psi)}
        certificate = {"kind": "orbit_potential", "n": list(n), "psi": psi_text}
        reason = "a character coordinate of the orbit is a function of the range vertex"
        return Verdict(NONSIMPLE, certificate, reason=reason), (), None
    gens = list(w.values())
    kron = kronecker_dense(gens, z.rank)
    if not kron.dense or not verify_kronecker(gens, z.rank, kron):
        raise RecheckError("density")
    certificate = {"kind": "kronecker_dense", "dimension": z.rank, "witness": kron.certificate}
    reason = "orbit phase group is dense in the degenerate directions"
    return Verdict(SIMPLE, certificate, reason=reason), tuple(gens), None


def decide_simplicity(g: KGraph, c: CocycleSpec, bound: Degree | int | None = None) -> SimplicityReport:
    """Run the cascade; `bound` is the period search box, as for `per_group`."""
    cof = is_cofinal(g)
    if not verify_cofinality(g, cof):
        raise RecheckError("cofinality")
    if cof.status == NO:
        verdict = Verdict(
            NONSIMPLE,
            certificate={"kind": "not_cofinal", "witness": cof.certificate},
            reason="the graph is not cofinal",
        )
        return SimplicityReport(verdict)

    per = per_group(g, bound)
    notes = period_box_notes(g, per.exhaustive_up_to)
    if not per.per_vertex_agreement:
        verdict = Verdict(
            UNKNOWN,
            reason="the periods differ from vertex to vertex (no per_vertex_agreement); "
            "their intersection is not the period group, so no criterion applies",
        )
        return SimplicityReport(verdict, per, notes=notes)
    omega = omega_from_oracle(g, InducedCocycle(c), per.lattice.rows)
    z = z_omega_of(omega)
    if not verify_z_omega(omega, z):
        raise RecheckError("degeneracy lattice")
    verdict, gens, note = _decide_degenerate(g, c, cof, per, omega, z)
    return SimplicityReport(verdict, per, omega, z, gens, notes + ((note,) if note else ()))
