"""Time the simplicity decision on a family whose period box grows with n.

The family R_n x T1: an n-cycle with n // 2 extra edges drawn with the
seed n, times T1, twisted by the pullback with theta at (2, 1).  Colour 1
has non-constant in-degree and the torus colour in-degree 1, so the
periods lie in 0 + Z, while the default period box grows like n in both
colours.

    PYTHONPATH=src python scripts/period_scale.py [N ...]

Prints one line per n (default 10 20 30 50 100 200): the verdict, the
window automaton calls, the seconds `decide_simplicity` spends in three of
its stages (the per-vertex cofinality search `is_cofinal`, the period
search `per_group` and the base point `canonical_tail` of the bicharacter)
and its seconds in all.
"""

import random
import sys
import time

from ktwist import decider, groupoid, structure
from ktwist.cocycles import PullbackCocycle
from ktwist.decider import decide_simplicity
from ktwist.kgraph import Edge, KGraph, product_with_Tl
from ktwist.phases import PhaseExponent

SIZES = (10, 20, 30, 50, 100, 200)


def scale_base(n: int) -> KGraph:
    """The n-cycle v0 <- v1 <- ... <- v(n-1) <- v0 plus n // 2 extra edges
    with seeded ends: strongly connected, with non-constant in-degree."""
    vs = tuple(f"v{t}" for t in range(n))
    rng = random.Random(n)
    edges = [Edge(f"c{t}", 1, vs[t], vs[(t + 1) % n]) for t in range(n)]
    edges += [Edge(f"x{j}", 1, rng.choice(vs), rng.choice(vs)) for j in range(n // 2)]
    return KGraph(1, vs, tuple(edges), (), name=f"R{n}")


def scale_graph(n: int) -> KGraph:
    return product_with_Tl(scale_base(n), 1)


THETA = PullbackCocycle(((PhaseExponent.zero(),) * 2, (PhaseExponent.of(0, theta=1), PhaseExponent.zero())))


# each timed stage: its field, and the module and name that decide looks it up by
STAGES = (("cofinal_s", decider, "is_cofinal"), ("periods_s", decider, "per_group"),
          ("tail_s", groupoid, "canonical_tail"))


def measure(n: int) -> tuple[str, int, dict[str, float], float]:
    """The verdict, the automaton calls, the seconds of each stage and the
    seconds of one decision."""
    calls = 0
    automaton = structure.periodic_at_offsets
    stage_s = {field: 0.0 for field, _, _ in STAGES}

    def counted(*args):
        nonlocal calls
        calls += 1
        return automaton(*args)

    def timed(field, f):
        def run(*args):
            t0 = time.perf_counter()
            try:
                return f(*args)
            finally:
                stage_s[field] += time.perf_counter() - t0
        return run

    g = scale_graph(n)
    originals = [(module, name, getattr(module, name)) for _, module, name in STAGES]
    structure.periodic_at_offsets = counted
    for field, module, name in STAGES:
        setattr(module, name, timed(field, getattr(module, name)))
    try:
        t0 = time.perf_counter()
        report = decide_simplicity(g, THETA)
        seconds = time.perf_counter() - t0
    finally:
        structure.periodic_at_offsets = automaton
        for module, name, f in originals:
            setattr(module, name, f)
    return report.verdict.status, calls, stage_s, seconds


def main(argv: list[str] | None = None) -> int:
    sizes = [int(a) for a in (sys.argv[1:] if argv is None else argv)] or SIZES
    for n in sizes:
        status, calls, stage_s, seconds = measure(n)
        stages = " ".join(f"{field}={s:.3f}" for field, s in stage_s.items())
        print(f"n={n}: {status} automaton_calls={calls} {stages} seconds={seconds:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
