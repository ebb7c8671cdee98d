"""Integer lattices and density of phase subgroups, all exact.

Lattices of Z^n are kept as canonical row Hermite normal forms so that
equality is structural.  The two consumers are:

* annihilator_lattice: integer vectors pairing integrally with every column
  of an antisymmetrized bicharacter matrix (the degeneracy subgroup), and
* kronecker_dense: is the subgroup of T^d generated by finitely many exact
  phase vectors dense?

Density bookkeeping.  Write each generator entry as q0 + sum q_s * xi_s.
An integer vector n annihilates all generators iff n kills every symbol
coefficient column exactly over Q and pairs the rational columns into Z.
If the symbol coefficient matrix R (one row per dimension, one column per
generator/symbol pair) has rank < d, a primitive rational kernel vector n0
scaled by the common congruence modulus lies in the annihilator, so the
annihilator is {0} iff rank(R) = d.  Rational parts never help density:
they only cut the annihilator down to a finite-index sublattice, never to
{0}.  Hence a density certificate is a choice of d columns of R together
with a nonzero determinant, which a verifier can recheck by cofactor
expansion without trusting any of the elimination code here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cocycles import BicharacterTable
from .phases import PhaseVector, integer_rows, pair_int

IntRow = tuple[int, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf(rows) -> tuple[IntRow, ...]:
    """Canonical row Hermite normal form, zero rows dropped.

    Pivots positive, strictly increasing pivot columns, entries above each
    pivot reduced into [0, pivot).
    """
    M = [list(r) for r in rows if any(r)]
    if not M:
        return ()
    m = len(M[0])
    if any(len(r) != m for r in M):
        raise ValueError("ragged matrix")
    fixed = 0
    for col in range(m):
        piv = next((r for r in range(fixed, len(M)) if M[r][col]), None)
        if piv is None:
            continue
        M[fixed], M[piv] = M[piv], M[fixed]
        for r in range(fixed + 1, len(M)):
            if M[r][col] == 0:
                continue
            a, b = M[fixed][col], M[r][col]
            g, s, t = xgcd(a, b)
            # [[s, t], [b/g, -a/g]] is unimodular and sends (a, b) to (g, 0)
            row_f = [s * x + t * y for x, y in zip(M[fixed], M[r])]
            row_r = [(b // g) * x - (a // g) * y for x, y in zip(M[fixed], M[r])]
            M[fixed], M[r] = row_f, row_r
        if M[fixed][col] < 0:
            M[fixed] = [-x for x in M[fixed]]
        p = M[fixed][col]
        for r in range(fixed):
            q = M[r][col] // p
            if q:
                M[r] = [x - q * y for x, y in zip(M[r], M[fixed])]
        fixed += 1
    return tuple(tuple(r) for r in M[:fixed] if any(r))


def kernel(rows, width: int) -> tuple[IntRow, ...]:
    """Basis of {x in Z^t : x * M = 0} for M given as t rows of length width.

    The row lattice of [M | I] is {(xM, x)}.  Its Hermite form ends in the
    rows whose M-part is zero, and their identity tails are a basis of the
    kernel, so it is saturated (the full integer kernel).
    """
    t = len(rows)
    aug = [tuple(rows[i]) + tuple(int(j == i) for j in range(t)) for i in range(t)]
    return hnf([r[width:] for r in hnf(aug) if not any(r[:width])])


@dataclass(frozen=True)
class LatticeBasis:
    """Sublattice of Z^dim in canonical HNF row form."""

    dim: int
    rows: tuple[IntRow, ...]

    @staticmethod
    def from_rows(rows, dim: int) -> "LatticeBasis":
        rows = tuple(tuple(r) for r in rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("row length does not match dim")
        return LatticeBasis(dim, hnf(rows))

    @staticmethod
    def trivial(dim: int) -> "LatticeBasis":
        return LatticeBasis(dim, ())

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_trivial(self) -> bool:
        return not self.rows

    def member(self, v) -> bool:
        v = list(v)
        if len(v) != self.dim:
            raise ValueError("vector length does not match dim")
        for row in self.rows:
            c = next(j for j, x in enumerate(row) if x)
            if v[c] % row[c]:
                return False
            q = v[c] // row[c]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return not any(v)

    def to_jsonable(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


# --- phase pairing lattices -------------------------------------------------


def _symbol_columns(gens: list[PhaseVector], d: int):
    """Columns (one per generator/symbol pair) of symbol coefficients in Q^d."""
    cols: list[tuple[int, str, tuple[Fraction, ...]]] = []
    for i, v in enumerate(gens):
        if len(v) != d:
            raise ValueError(f"generator {i} has length {len(v)}, expected {d}")
        syms = sorted({s for entry in v for s in entry.symbols()})
        for s in syms:
            cols.append((i, s, tuple(entry.coeff(s) for entry in v)))
    return cols


def integral_pairing_lattice(gens: list[PhaseVector], d: int) -> LatticeBasis:
    """{n in Z^d : <n, v> is an integer for every generator v}.

    Write each generator v over the least common denominator S of its
    entries, entry j as (a_j + sum_s b_js xi_s) / S (`integer_rows`).
    Then <n, v> is an integer iff sum_j n_j b_js = 0 for every symbol s
    and sum_j n_j a_j = -k S for some integer k.  Stacking these conditions
    for all generators, (n, k) runs over the integer kernel of

        [ B | A       ]   (one row per coordinate j of n)
        [ 0 | diag(S) ]   (one row per generator),

    and the lattice is the projection of that kernel on its first d
    coordinates.
    """
    for i, v in enumerate(gens):
        if len(v) != d:
            raise ValueError(f"generator {i} has length {len(v)}, expected {d}")
    parts = [integer_rows(v) for v in gens]
    b_cols = [row for _, _, b in parts for row in b]
    cols = b_cols + [a for _, a, _ in parts]
    rows = [tuple(col[j] for col in cols) for j in range(d)]
    rows += [
        (0,) * len(b_cols) + tuple(S if t == i else 0 for t in range(len(gens)))
        for i, (S, _, _) in enumerate(parts)
    ]
    return LatticeBasis.from_rows([x[:d] for x in kernel(rows, len(cols))], d)


def annihilator_lattice(A, dim: int) -> LatticeBasis:
    """Degeneracy lattice {p : p^T A q in Z for all q} of an antisymmetric A.

    A is a dim x dim matrix of PhaseExponent, antisymmetric up to integers;
    anything else is rejected.
    """
    A = tuple(tuple(A[i][j] for j in range(dim)) for i in range(dim))
    for i in range(dim):
        for j in range(i, dim):
            if not (A[i][j] + A[j][i]).is_trivial():
                raise ValueError(f"matrix not antisymmetric mod Z at ({i + 1},{j + 1})")
    cols: list[PhaseVector] = [tuple(A[i][j] for i in range(dim)) for j in range(dim)]
    return integral_pairing_lattice(cols, dim)


def z_omega_of(omega: BicharacterTable) -> LatticeBasis:
    """Integer vectors whose bicharacter commutator with everything is trivial."""
    return annihilator_lattice(omega.antisymmetrization(), omega.rank)


# --- Kronecker density with certificates ------------------------------------


def _eliminate(rows: list[list[Fraction]]) -> tuple[list[int], Fraction]:
    """Pivot columns of the rows by Fraction elimination, and the
    determinant of the minor in those columns.

    The pivot columns are the greedy choice of columns, left to right, that
    each enlarge the rank.  The row operations that clear below each pivot
    bring that minor to upper-triangular form, and each row swap flips its
    sign, so its determinant is the signed product of the pivots.  It is
    reported as 0 when the rank is below the row count.
    """
    rows = [row[:] for row in rows]
    pivots: list[int] = []
    det = Fraction(1)
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        det *= rows[rank][c]
        inv = 1 / rows[rank][c]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(c)
    return pivots, det if len(pivots) == len(rows) else Fraction(0)


def det_cofactor(M: list[list[Fraction]]) -> Fraction:
    """Cofactor-expansion determinant; the independent recheck route."""
    n = len(M)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return M[0][0]
    acc = Fraction(0)
    for j in range(n):
        if not M[0][j]:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in M[1:]]
        term = M[0][j] * det_cofactor(minor)
        acc += term if j % 2 == 0 else -term
    return acc


@dataclass(frozen=True)
class KroneckerResult:
    dense: bool
    dim: int
    annihilator: LatticeBasis
    certificate: dict


def kronecker_dense(gens: list[PhaseVector], d: int) -> KroneckerResult:
    """Decide density in T^d of the subgroup generated by the given vectors.

    Dense iff the only integer annihilator is 0, that is iff the d x ncols
    symbol-coefficient matrix has rank d (module docstring), so one
    elimination of it decides.  A dense result carries that elimination's
    pivot columns and the determinant of their minor as its certificate,
    and any other a nonzero annihilating vector.
    """
    cols = _symbol_columns(gens, d)
    chosen, det = _eliminate([[col[r] for _, _, col in cols] for r in range(d)])
    if len(chosen) < d:
        ann = integral_pairing_lattice(gens, d)
        return KroneckerResult(False, d, ann, {"kind": "annihilator_vector", "n": list(ann.rows[0])})
    cert = {
        "kind": "irrational_full_rank",
        "columns": [[cols[i][0], cols[i][1]] for i in chosen],
        "det": str(det),
    }
    return KroneckerResult(True, d, LatticeBasis.trivial(d), cert)


def verify_kronecker(gens: list[PhaseVector], d: int, result: KroneckerResult) -> bool:
    """Recheck a KroneckerResult certificate by independent means."""
    cert = result.certificate
    if not result.dense:
        n = cert.get("n")
        if not isinstance(n, list) or len(n) != d or not all(isinstance(x, int) for x in n) or not any(n):
            return False
        return all(pair_int(n, v).is_trivial() for v in gens)
    pairs = cert.get("columns")
    if not isinstance(pairs, list) or len(pairs) != d:
        return False
    cols = _symbol_columns(gens, d)
    minor: list[list[Fraction]] = [[Fraction(0)] * d for _ in range(d)]
    for c, pair in enumerate(pairs):
        # matched by ==, so a pair of any shape is a miss, never an error
        col = next((col for i, s, col in cols if pair == [i, s]), None)
        if col is None:
            return False
        for r in range(d):
            minor[r][c] = col[r]
    det = det_cofactor(minor)
    return det != 0 and cert.get("det") == str(det)
