"""Run the simplicity decider across the bundled example pairings.

Prints one verdict line per (graph, cocycle) pair and exits nonzero if any
pairing errors out.  Useful as a quick end-to-end sanity pass after changes.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from ktwist.decider import decide_simplicity
from ktwist.io import load_cocycle, resolve_graph

PAIRINGS = [
    ("T2.json", "pullback_theta.json"),
    ("T2.json", "pullback_half.json"),
    ("B2.json", "pullback_b2.json"),
    ("B2xT1.json", "phi_theta.json"),
    ("B2xT1.json", "phi_zero.json"),
    ("B2xT3.json", "b2t3.json"),
    ("DISJOINT2.json", "pullback_b2.json"),
]


def main() -> int:
    fixtures = ROOT / "fixtures"
    failures = 0
    for gname, cname in PAIRINGS:
        g, _ = resolve_graph(str(fixtures / gname))
        c, _ = load_cocycle(str(fixtures / cname), g)
        try:
            report = decide_simplicity(g, c)
        except Exception as err:
            print(f"{gname} + {cname}: ERROR {err}")
            failures += 1
            continue
        kind = (report.verdict.certificate or {}).get("kind", "-")
        print(f"{gname} + {cname}: {report.verdict.status} [{kind}]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
