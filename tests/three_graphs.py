"""A test ground at rank 3, and the reference routes for `KGraph._split`
and the window automaton.

`one_vertex_three_graphs` enumerates every one-vertex 3-graph with two
loops per colour; rank 3 is where the associativity condition on the
squares applies (Hazlewood-Raeburn-Sims-Webster, PEMS 2013).
`pull_front_split` is the earlier split: for each colour it scans the word
for the first edge of that colour and rewrites it to the front.
`KGraph.factorize` must give the same head and tail, reading that index
off the degrees instead.  `path_window_automaton` is the earlier
`periodic_at_offsets`: a breadth-first walk over interned window paths,
whose first windows come from `KGraph.paths_from`.  The word-level
automaton must give the same answer.  Both read their first windows off
`KGraph.words_from`, so the path-count tests of `test_structure` pin that
enumerator by matrix products instead.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from ktwist import degrees as dg
from ktwist.kgraph import Edge, KGraph, Path, Square, validate_kgraph


@lru_cache(maxsize=None)
def one_vertex_three_graphs() -> tuple[KGraph, ...]:
    """Every one-vertex 3-graph with two loops per colour, in a fixed order.

    Each colour pair gets one of the 24 bijections from its i-j pairs onto
    its j-i pairs; `validate_kgraph` keeps those whose squares satisfy the
    associativity condition.
    """
    loops = {c: (f"{name}0", f"{name}1") for c, name in ((1, "x"), (2, "y"), (3, "z"))}
    edges = tuple(Edge(e, c, "v", "v") for c in (1, 2, 3) for e in loops[c])
    pairs = ((1, 2), (1, 3), (2, 3))

    def squares(i, j, targets):
        sources = [(f, h) for f in loops[i] for h in loops[j]]
        return tuple(Square(i, j, f, h, hp, fp) for (f, h), (hp, fp) in zip(sources, targets))

    choices = [list(permutations([(h, f) for h in loops[j] for f in loops[i]])) for i, j in pairs]
    out = []
    for picks in product(*choices):
        sq = sum((squares(i, j, t) for (i, j), t in zip(pairs, picks)), ())
        g = KGraph(3, ("v",), edges, sq, name=f"X{len(out)}")
        if validate_kgraph(g).ok:
            out.append(g)
    return tuple(out)


def pull_front_split(g: KGraph, p: Path, m) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The words of the head of degree m and the tail of p, by scanning."""
    word = list(p.word)
    head: list[str] = []
    for color in range(1, g.k + 1):
        for _ in range(m[color - 1]):
            t = next(i for i, eid in enumerate(word) if g.edge(eid).color == color)
            for j in range(t, 0, -1):
                word[j - 1], word[j] = g._fwd[(word[j - 1], word[j])]
            head.append(word.pop(0))
    return tuple(head), tuple(word)


def path_window_automaton(g: KGraph, v: str, a, b) -> bool:
    """Does every infinite path x from v satisfy T^a x = T^b x, by windows
    x(u, u + join(a, b)) kept as paths."""
    c = dg.join(a, b)
    frontier = list(g.paths_from(v, c))
    seen = set(frontier)
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, g.k + 1):
                ei = dg.unit(g.k, i)
                for e in g.in_edges(w.source, i):
                    lam = g.compose(w, g.edge_path(e.id))
                    if g.segment(lam, a, dg.add(a, ei)) != g.segment(lam, b, dg.add(b, ei)):
                        return False
                    new = g.segment(lam, ei, dg.add(c, ei))
                    if new not in seen:
                        seen.add(new)
                        nxt.append(new)
        frontier = nxt
    return True
