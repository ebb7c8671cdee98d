"""Reference check of a table cocycle's 2-cocycle identity, for the
differential tests of `ktwist.cocycles.validate_cocycle`.

This is the earlier table branch of `validate_cocycle`: the same plain
triple loop, each composable pair within the depth composed once and
valued once, when the loop first asks for it, but each triple tested with
two `PhaseExponent` additions and one equality of phases (mod Z).  The
integer check must report the same problems, string for string and in
order, and count the same triples of non-vertex paths tested.
"""

from __future__ import annotations

from ktwist import degrees as dg
from ktwist.cocycles import CocycleDomainError, cocycle_value
from ktwist.kgraph import KGraph, Path


def table_check(c, g: KGraph, depth: int) -> tuple[list[str], int]:
    """The problems of table c on g at `depth`, by phase arithmetic, and
    the number of triples of non-vertex paths tested."""
    by_range = {v: [(dg.total(n), p) for n in dg.total_box(g.k, depth) for p in g.paths_from(v, n)]
                for v in g.vertices}
    composed = {x: {y: g.compose(x, y) for t2, y in by_range[x.source] if t1 + t2 <= depth}
                for v in g.vertices for t1, x in by_range[v]}
    values: dict[Path, dict] = {x: {} for x in composed}
    problems = []
    triples = 0

    def value(x, y):
        try:
            out = cocycle_value(c, x, y)
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
                    triples += bool(t1 and t2 and t3)
                    if a + b != cc + d:
                        problems.append(
                            f"cocycle identity fails on triple ({lam!r}, {mu!r}, {nu!r})"
                        )
    return problems, triples
