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
  This is a cocycle once phi respects every commuting square.
* Table: explicit values on composable pairs up to a degree bound, for
  adversarial tests.  An entry with a vertex side must be 0.

Every value with a vertex side is 0, so each family is normalized.
validate_cocycle checks what can fail: the shape of Theta, the product
split and square compatibility of phi, and for a table the 2-cocycle
identity on every triple of paths up to a total degree.

All values are PhaseExponent instances; equality is mod-Z exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import Union

from . import degrees as dg
from .degrees import Degree
from .kgraph import KGraph, Path, ValidationReport
from .phases import PhaseExponent, PhaseVector, format_phase, pair_int, vec_add, vec_sub, zero_vector

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

    Given as a dict of edge id to vector, or as its (id, vector) pairs,
    kept in `entries` sorted by edge id, so a cocycle rebuilt from its own
    entries equals it; `edge_value` goes through an index built once.
    """

    rank: int
    entries: tuple[tuple[str, PhaseVector], ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = dict(self.entries)
        object.__setattr__(self, "entries", tuple(sorted(index.items())))
        object.__setattr__(self, "_index", index)

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
    """Theta(d(mu), d(nu)) for a square exponent matrix Theta."""

    theta: PhaseMatrix

    def __post_init__(self):
        rows = tuple(self.theta)
        object.__setattr__(self, "theta", _as_matrix(rows, len(rows), len(rows)))


@dataclass(frozen=True)
class PhiOmegaCocycle:
    l: int
    phi: OneCocyclePhi
    omega: BicharacterTable

    def torus_degree(self, p: Path) -> Degree:
        return p.degree[len(p.degree) - self.l:]


@dataclass(frozen=True)
class TableCocycle:
    """Explicit values keyed by (range, word) of each side.

    `entries` is the serialised form; lookups go through an index built once
    from it, in which the first of duplicate keys wins.  An entry with a
    vertex side must have value 0, the value every cocycle takes there.
    """

    bound: Degree
    entries: tuple[tuple[tuple[str, tuple[str, ...]], tuple[str, tuple[str, ...]], PhaseExponent], ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for i, (a, b, val) in enumerate(self.entries):
            if not (a[1] and b[1]) and not val.is_trivial():
                raise ValueError(
                    f"entries[{i}]: a side is a vertex path, so the value must be 0, "
                    f"not {format_phase(val)}"
                )
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
    if not mu.word or not nu.word:
        return PhaseExponent.zero()
    if isinstance(c, PullbackCocycle):
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
    for sq in g.squares:
        left = vec_add(phi.edge_value(sq.f), phi.edge_value(sq.g))
        right = vec_add(phi.edge_value(sq.gp), phi.edge_value(sq.fp))
        diff = vec_sub(left, right)
        if not all(x.is_trivial() for x in diff):
            problems.append(
                f"square {sq}: phi values differ by "
                f"({', '.join(map(format_phase, diff))})"
            )
    return ValidationReport(tuple(problems))


def validate_product_split(g: KGraph, l: int) -> ValidationReport:
    """Check g looks like product_with_Tl output: l top colors of per-vertex loops
    commuting with everything the way the product construction arranges.

    g passes `validate_kgraph` and 0 < l <= g.k.  Then the torus loops a_v,
    b_v of two colours at v commute: (b_v, a_v) is the one reversed pair at
    v that the square table can map (a_v, b_v) to.
    """
    problems = []
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
    return ValidationReport(tuple(problems))


def validate_cocycle(c: CocycleSpec, g: KGraph, depth: int) -> ValidationReport:
    """Check that c is a 2-cocycle on g; only a table needs `depth`.

    The identity on a composable triple (lam, mu, nu) is

        c(mu, nu) + c(lam, mu.nu) = c(lam, mu) + c(lam.mu, nu)   (mod Z).

    Normalization, c = 0 when a side is a vertex path, holds for every
    family: `cocycle_value` returns 0 there, and a table rejects any other
    value for such an entry when it is built.

    * Pullback: c(mu, nu) = Theta(d(mu), d(nu)), which is 0 on a vertex
      side too, since its degree is 0.  Theta is bilinear and the degree d
      additive, so both sides of the identity expand to

          Theta(d(lam), d(mu)) + Theta(d(lam), d(nu)) + Theta(d(mu), d(nu)).

      The only thing to check is that Theta is k x k; a mismatch is one
      problem.  The verdict holds at every depth.
    * Phi-omega: c(mu, nu) = <t(mu), phi(nu)> + omega(t(mu), t(nu)) with t
      the torus degree; both terms are 0 on a vertex side.  The product
      split is checked first, then that phi agrees on both factorizations
      of every square.  Once it does, phi is additive on paths, since the
      normal form of mu.nu is reached from the word of mu followed by that
      of nu through squares.  t is additive and omega bilinear, so both
      sides expand to

          <t(lam), phi(mu) + phi(nu)> + <t(mu), phi(nu)>
          + omega(t(lam), t(mu)) + omega(t(lam), t(nu)) + omega(t(mu), t(nu)).

      The problems of those two checks are the report, at every depth.
    * Table: the value depends on the whole path, so the identity is
      checked on every composable triple of total degree at most `depth`,
      in the order of a plain triple loop.  Each composable pair within the
      depth is composed once, and each pair is valued once, when the loop
      first asks for it, so a domain error is reported once, there.  Both
      are kept by the path pair, first path outermost, for the call.  The
      report counts the triples of non-vertex paths whose identity was
      tested: a triple with a vertex path holds for every normalized c.

      The sums are taken on integers.  S is the lcm of the denominators of
      the table's values, so each value the loop reads, 0 included, is
      (a + sum_s b_s xi_s) / S with 0 <= a < S and integer b_s.  It is
      kept as the one integer

          E = a + sum_i b_i * 4S * V**i,

      b_i the coefficient of the i-th symbol the loop meets, and
      V = 4Sm + 1 with m the largest |coefficient numerator| in the table,
      worked out only when a second symbol is met; so |b_i| <= Sm.  The
      xi_s and 1 are independent over Q, so the two sides of a triple agree
      mod Z iff A = a1 + a2 - a3 - a4 is 0 mod S and every
      B_i = b_i1 + b_i2 - b_i3 - b_i4 is 0.  That holds iff
      D = E1 + E2 - E3 - E4 is -S, 0 or S: A lies in (-2S, 2S), so if it
      holds, D = A is one of those.  Conversely, D - A is 4S times
      sum_i B_i V**i and less than 3S in size, so that sum is 0; each
      |B_i| <= 4Sm < V, so no digit carries into the next, every B_i is 0,
      and D = A is a multiple of S.
    """
    if isinstance(c, PullbackCocycle):
        if len(c.theta) != g.k:
            return ValidationReport(("theta size does not match graph colors",))
        return ValidationReport(())
    if isinstance(c, PhiOmegaCocycle):
        split = validate_product_split(g, c.l)
        return validate_phi(c.phi, g) if split.ok else split

    if not isinstance(c, TableCocycle):
        raise TypeError(f"unknown cocycle spec {type(c).__name__}")
    # One common denominator S of every value in the table, and so of each
    # value the loop reads; 0 has denominator 1.
    held = c._index.values()
    S = lcm(*{x.den for x in held})
    weight: dict[str, int] = {}
    V = 0  # the digit width of the symbols past the first, once one is met

    def weigh(s: str) -> int:
        """The weight of symbol s: 4S for the first symbol met, 4S * V**i
        for the i-th after it."""
        nonlocal V
        if weight and not V:
            V = 4 * S * max(abs(n) for x in held for _, n in x.terms) + 1
        w = weight[s] = 4 * S * V ** len(weight)
        return w

    def encode(x: PhaseExponent) -> int:
        """x = (a + sum_s b_s xi_s) / S, with 0 <= a < S, as a + sum_s b_s * weight[s]."""
        f = S // x.den
        out = x.num * f
        for s, n in x.terms:
            out += n * f * (weight.get(s) or weigh(s))
        return out

    # by_range[v]: the paths with range v up to the depth, each with its
    # total degree, in order of total degree
    by_range = {v: [(dg.total(n), p) for n in dg.total_box(g.k, depth) for p in g.paths_from(v, n)]
                for v in g.vertices}
    # composed[x][y]: x.y, for each composable pair within the depth
    composed = {x: {y: g.compose(x, y) for t2, y in by_range[x.source] if t1 + t2 <= depth}
                for v in g.vertices for t1, x in by_range[v]}
    # values[x][y]: c(x, y) encoded, kept once asked for
    values: dict[Path, dict[Path, int | None]] = {x: {} for x in composed}
    agree = {-S, 0, S}  # the sums D of a triple whose two sides agree
    problems = []
    triples = 0  # of non-vertex paths, tested

    def value(x: Path, y: Path) -> int | None:
        """c(x, y) encoded, kept; a domain error is reported and kept as None."""
        try:
            out = encode(cocycle_value(c, x, y))
        except CocycleDomainError as err:
            problems.append(str(err))
            out = None
        values[x][y] = out
        return out

    for v in g.vertices:
        for t1, lam in by_range[v]:
            c_lam = values[lam]
            for t2, mu in by_range[lam.source]:
                room = depth - t1 - t2
                if room < 0:
                    break
                lam_mu, mu_then = composed[lam][mu], composed[mu]
                c_mu, c_lam_mu = values[mu], values[lam_mu]
                for t3, nu in by_range[mu.source]:
                    if t3 > room:
                        break
                    mu_nu = mu_then[nu]
                    a = c_mu[nu] if nu in c_mu else value(mu, nu)
                    b = c_lam[mu_nu] if mu_nu in c_lam else value(lam, mu_nu)
                    cc = c_lam[mu] if mu in c_lam else value(lam, mu)
                    d = c_lam_mu[nu] if nu in c_lam_mu else value(lam_mu, nu)
                    if a is None or b is None or cc is None or d is None:
                        continue
                    if t1 and t2 and t3:
                        triples += 1
                    if a + b - cc - d not in agree:
                        problems.append(
                            f"cocycle identity fails on triple ({lam!r}, {mu!r}, {nu!r})"
                        )
    return ValidationReport(tuple(problems), triples)
