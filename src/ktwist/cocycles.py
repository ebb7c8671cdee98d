"""Twisting data on k-colored graphs: 2-cocycles on the path category.

Three concrete families are supported.

* Pullback: a k x k matrix Theta of phase exponents; the value on a
  composable pair is the bilinear form degree(mu)^T Theta degree(nu).
  This is a cocycle for any Theta because it only sees degrees.
* Phi-omega: defined on a product graph (base times an l-torus layer as
  built by product_with_Tl).  A 1-cocycle phi assigns each base edge a
  length-l phase vector, and a rank-l bicharacter omega twists the torus
  degrees; the value on (mu, nu) is

      <torus degree of mu, phi(base edges of nu)> + omega(t(mu), t(nu)).

  Torus loops commute with base edges without renaming them, so the base
  edge multiset of a path is well defined and phi extends additively.
* Table: explicit values on composable pairs up to a degree bound, for
  adversarial tests; validate_cocycle checks the 2-cocycle identity.

All values are PhaseExponent instances; equality is mod-Z exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Union

from . import degrees as dg
from .degrees import Degree
from .kgraph import KGraph, Path, ValidationReport
from .phases import PhaseExponent, PhaseVector, pair_int, phase_is_trivial, vec_add, vec_sub, zero_vector

PhaseMatrix = tuple[tuple[PhaseExponent, ...], ...]


def _as_matrix(rows, n: int, m: int) -> PhaseMatrix:
    rows = tuple(tuple(r) for r in rows)
    if len(rows) != n or any(len(r) != m for r in rows):
        raise ValueError(f"expected a {n}x{m} matrix")
    for r in rows:
        for x in r:
            if not isinstance(x, PhaseExponent):
                raise TypeError("matrix entries must be PhaseExponent")
    return rows


def _bilinear(rows: PhaseMatrix, p, q) -> PhaseExponent:
    """The sum of rows[i][j] * p[i] * q[j]; p and q index the rows and columns."""
    out = PhaseExponent.zero()
    for i, pi in enumerate(p):
        if not pi:
            continue
        for j, qj in enumerate(q):
            if qj:
                out = out + rows[i][j].scaled(pi * qj)
    return out


@dataclass(frozen=True)
class BicharacterTable:
    """Bilinear phase pairing on Z^rank given by an exponent matrix."""

    rank: int
    rows: PhaseMatrix

    def __post_init__(self):
        object.__setattr__(self, "rows", _as_matrix(self.rows, self.rank, self.rank))

    @classmethod
    def zero(cls, rank: int) -> "BicharacterTable":
        z = PhaseExponent.zero()
        return cls(rank, tuple((z,) * rank for _ in range(rank)))

    def value(self, p, q) -> PhaseExponent:
        if len(p) != self.rank or len(q) != self.rank:
            raise ValueError("vector length does not match bicharacter rank")
        return _bilinear(self.rows, p, q)

    def antisymmetrization(self) -> PhaseMatrix:
        """Matrix of value(e_i, e_j) - value(e_j, e_i)."""
        return tuple(
            tuple(self.rows[i][j] - self.rows[j][i] for j in range(self.rank))
            for i in range(self.rank)
        )

    def commutator(self, p, q) -> PhaseExponent:
        return self.value(p, q) - self.value(q, p)


@dataclass(frozen=True)
class OneCocyclePhi:
    """Edge labeling by length-rank phase vectors, additive on paths.

    `entries` is the serialised form, sorted by edge id; `edge_value` goes
    through an index built once from it.
    """

    rank: int
    entries: tuple[tuple[str, PhaseVector], ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.entries, dict):
            items = self.entries.items()
        else:
            items = self.entries
        norm = []
        seen = set()
        for eid, vec in sorted(items):
            if eid in seen:
                raise ValueError(f"duplicate edge entry {eid!r}")
            seen.add(eid)
            vec = tuple(vec)
            if len(vec) != self.rank:
                raise ValueError(f"entry {eid!r} has length {len(vec)}, expected {self.rank}")
            norm.append((eid, vec))
        object.__setattr__(self, "entries", tuple(norm))
        object.__setattr__(self, "_index", dict(norm))

    def edge_value(self, eid: str) -> PhaseVector:
        vec = self._index.get(eid)
        return zero_vector(self.rank) if vec is None else vec

    def value(self, p: Path) -> PhaseVector:
        out = zero_vector(self.rank)
        for eid in p.word:
            out = vec_add(out, self.edge_value(eid))
        return out


def phi_tilde(phi: OneCocyclePhi, mu: Path, nu: Path) -> PhaseVector:
    """phi(mu) - phi(nu) for a source-matched pair."""
    if mu.source != nu.source:
        raise ValueError("phi difference needs a common source")
    return vec_sub(phi.value(mu), phi.value(nu))


@dataclass(frozen=True)
class PullbackCocycle:
    theta: PhaseMatrix


@dataclass(frozen=True)
class PhiOmegaCocycle:
    l: int
    phi: OneCocyclePhi
    omega: BicharacterTable

    def __post_init__(self):
        if self.phi.rank != self.l or self.omega.rank != self.l:
            raise ValueError("phi and omega ranks must equal the torus rank")

    def torus_degree(self, p: Path) -> Degree:
        return p.degree[len(p.degree) - self.l:]


@dataclass(frozen=True)
class TableCocycle:
    """Explicit values keyed by (range, word) of each side.

    `entries` is the serialised form; lookups go through an index built once
    from it, in which the first of duplicate keys wins.
    """

    bound: Degree
    entries: tuple[tuple[tuple[str, tuple[str, ...]], tuple[str, tuple[str, ...]], PhaseExponent], ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for a, b, val in self.entries:
            index.setdefault((a, b), val)
        object.__setattr__(self, "_index", index)

    def lookup(self, mu: Path, nu: Path) -> PhaseExponent | None:
        return self._index.get(((mu.range, mu.word), (nu.range, nu.word)))


CocycleSpec = Union[PullbackCocycle, PhiOmegaCocycle, TableCocycle]


class CocycleDomainError(ValueError):
    pass


def cocycle_value(c: CocycleSpec, mu: Path, nu: Path) -> PhaseExponent:
    """The twisting phase exponent of a composable pair."""
    if mu.source != nu.range:
        raise CocycleDomainError(f"pair not composable: {mu!r} then {nu!r}")
    if mu.is_vertex() or nu.is_vertex():
        return PhaseExponent.zero()
    if isinstance(c, PullbackCocycle):
        if len(c.theta) != len(mu.degree):
            raise CocycleDomainError("theta size does not match graph colors")
        return _bilinear(c.theta, mu.degree, nu.degree)
    if isinstance(c, PhiOmegaCocycle):
        m = c.torus_degree(mu)
        return pair_int(m, c.phi.value(nu)) + c.omega.value(m, c.torus_degree(nu))
    if isinstance(c, TableCocycle):
        val = c.lookup(mu, nu)
        if val is None:
            raise CocycleDomainError(
                f"table does not cover the pair ({'.'.join(mu.word)}, {'.'.join(nu.word)})"
            )
        return val
    raise TypeError(f"unknown cocycle spec {type(c).__name__}")


# --- validation -------------------------------------------------------------


def validate_phi(phi: OneCocyclePhi, g: KGraph) -> ValidationReport:
    """Square-compatibility: both factorizations of a square carry equal phi."""
    problems = []
    for eid, _ in phi.entries:
        if eid not in g._by_id:
            problems.append(f"phi entry references unknown edge {eid!r}")
    for sq in g.squares:
        left = vec_add(phi.edge_value(sq.f), phi.edge_value(sq.g))
        right = vec_add(phi.edge_value(sq.gp), phi.edge_value(sq.fp))
        diff = vec_sub(left, right)
        if not all(phase_is_trivial(x) for x in diff):
            problems.append(
                f"square ({sq.f},{sq.g})->({sq.gp},{sq.fp}): phi values differ by {diff}"
            )
    return ValidationReport(tuple(problems))


def validate_product_split(g: KGraph, l: int) -> ValidationReport:
    """Check g looks like product_with_Tl output: l top colors of per-vertex loops
    commuting with everything the way the product construction arranges."""
    problems = []
    if not 0 < l <= g.k:
        return ValidationReport((f"torus rank {l} impossible for {g.k} colors",))
    base_k = g.k - l
    loop_of: dict[tuple[str, int], str] = {}
    for color in range(base_k + 1, g.k + 1):
        for v in g.vertices:
            es = g.in_edges(v, color)
            if len(es) != 1 or es[0].source != v:
                problems.append(f"color {color} at vertex {v!r}: expected exactly one loop")
                continue
            loop_of[(v, color)] = es[0].id
        for e in g.edges:
            if e.color == color and (e.range != e.source):
                problems.append(f"edge {e.id!r} of torus color {color} is not a loop")
    if problems:
        return ValidationReport(tuple(problems))
    for e in g.edges:
        if e.color > base_k:
            continue
        for color in range(base_k + 1, g.k + 1):
            want = (loop_of[(e.range, color)], e.id)
            got = g._fwd.get((e.id, loop_of[(e.source, color)]))
            if got != want:
                problems.append(
                    f"square of ({e.id!r}, torus color {color}) does not commute plainly"
                )
    for c1 in range(base_k + 1, g.k + 1):
        for c2 in range(c1 + 1, g.k + 1):
            for v in g.vertices:
                a, b = loop_of[(v, c1)], loop_of[(v, c2)]
                if g._fwd.get((a, b)) != (b, a):
                    problems.append(f"torus loops at {v!r} (colors {c1},{c2}) do not commute")
    return ValidationReport(tuple(problems))


def validate_cocycle(c: CocycleSpec, g: KGraph, depth: int) -> ValidationReport:
    """Exhaustive normalization and 2-cocycle identity check to a total degree.

    Each composable pair in the depth box is evaluated once per call: its
    value, or its domain error (reported where the pair is first used), is
    kept in a dict that lives only as long as the call.  Triples are
    enumerated by total degree, so none above the depth is built.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    problems = []
    if isinstance(c, PhiOmegaCocycle):
        split = validate_product_split(g, c.l)
        if not split.ok:
            return split
        rep = validate_phi(c.phi, g)
        if not rep.ok:
            return rep

    # graded[v][t]: paths with range v and total degree t, in total_box order
    graded: dict[str, list[list[Path]]] = {v: [[] for _ in range(depth + 1)] for v in g.vertices}
    for v in g.vertices:
        for n in dg.total_box(g.k, depth):
            graded[v][dg.total(n)].extend(g.paths_from(v, n))

    values: dict[tuple[Path, Path], PhaseExponent | None] = {}

    def val(mu: Path, nu: Path) -> PhaseExponent | None:
        try:
            return values[(mu, nu)]
        except KeyError:
            pass
        try:
            x = cocycle_value(c, mu, nu)
        except CocycleDomainError as err:
            problems.append(str(err))
            x = None
        values[(mu, nu)] = x
        return x

    for v in g.vertices:
        for lam in chain.from_iterable(graded[v]):
            left = val(lam, g.vertex_path(lam.source))
            right = val(g.vertex_path(lam.range), lam)
            for x, side in ((left, "right unit"), (right, "left unit")):
                if x is not None and not phase_is_trivial(x):
                    problems.append(f"normalization fails at {lam!r} ({side})")

    for v in g.vertices:
        for t1, lams in enumerate(graded[v]):
            for lam in lams:
                for t2, mus in enumerate(graded[lam.source][: depth - t1 + 1]):
                    for mu in mus:
                        lam_mu = g.compose(lam, mu)
                        # (lam, mu) is valued once per pair, before the nu loop.
                        # Problems keep their order: the first nu is the vertex
                        # path s(mu), whose pair (mu, s(mu)) the normalization
                        # pass has valued, and mu.s(mu) = mu, so the first new
                        # pair that loop asked for was (lam, mu) all the same.
                        cc = val(lam, mu)
                        for nu in chain.from_iterable(graded[mu.source][: depth - t1 - t2 + 1]):
                            a = val(mu, nu)
                            b = val(lam, g.compose(mu, nu))
                            d = val(lam_mu, nu)
                            if None in (a, b, cc, d):
                                continue
                            # equality of PhaseExponents is equality mod Z
                            if a + b != cc + d:
                                problems.append(
                                    f"cocycle identity fails on triple ({lam!r}, {mu!r}, {nu!r})"
                                )
    return ValidationReport(tuple(problems))
