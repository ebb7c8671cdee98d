"""Reference routes for the differential tests of `ktwist.lattices`.

`fraction_integral_pairing_lattice` is the earlier integral pairing
lattice: one integer kernel over the symbol coefficients, then a
`Fraction` pass that turns the rational parts into congruences inside
that kernel, solved by a second kernel.  `greedy_witness` is the earlier
choice of Kronecker witness columns: a rank probe per column, keeping each
column that enlarges the rank.  `ktwist.lattices` must give the same
answers with one integer kernel and one elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ktwist.lattices import LatticeBasis, _symbol_columns, det_cofactor, hnf, kernel


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(j == i) for j in range(n)) for i in range(n))


def fraction_integral_pairing_lattice(gens, d: int) -> LatticeBasis:
    """{n in Z^d : <n, v> is an integer for every generator v}."""
    if d == 0:
        return LatticeBasis.trivial(0)
    cols = _symbol_columns(gens, d)
    if cols:
        int_cols = []
        for _, _, col in cols:
            den = lcm(*(c.denominator for c in col))
            int_cols.append(tuple(int(c * den) for c in col))
        rows = [tuple(col[j] for col in int_cols) for j in range(d)]
        K = kernel(rows, len(int_cols))
    else:
        K = _identity(d)
    if not K:
        return LatticeBasis.trivial(d)
    # congruences from the rational parts, inside the span of K
    t = len(K)
    C = [[sum((Fraction(krow[j]) * v[j].rat for j in range(d)), Fraction(0)) for v in gens] for krow in K]
    D = lcm(1, *(c.denominator for row in C for c in row))
    if D == 1:
        U = _identity(t)
    else:
        Ci = [tuple(int(c * D) for c in row) for row in C]
        stacked = Ci + [tuple(D if j == i else 0 for j in range(len(gens))) for i in range(len(gens))]
        U = hnf([x[:t] for x in kernel(stacked, len(gens))])
    rows = [tuple(sum(coef * krow[j] for coef, krow in zip(u, K)) for j in range(d)) for u in U]
    return LatticeBasis.from_rows(rows, d)


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [row[:] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def greedy_witness(gens, d: int) -> tuple[list[list], str]:
    """The witness columns, as [generator, symbol], and the minor's determinant.

    Probes the symbol columns left to right and keeps each one that
    enlarges the rank of those kept, until d are kept.
    """
    cols = _symbol_columns(gens, d)
    chosen: list[int] = []
    for idx, (_, _, col) in enumerate(cols):
        if len(chosen) == d:
            break
        if _rank([list(cols[i][2]) for i in chosen] + [list(col)]) > len(chosen):
            chosen.append(idx)
    minor = [[cols[i][2][r] for i in chosen] for r in range(d)]
    return [[cols[i][0], cols[i][1]] for i in chosen], str(det_cofactor(minor))
