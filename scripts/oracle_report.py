"""Run the brute-force property suites over the bundled fixtures.

Writes a combined JSON document to stdout (or --out FILE) with one block
per pairing of run_examples.py: suite pass/fail counts plus the
closed-form versus oracle bicharacter comparison.  Exits nonzero when any
suite reports a violation.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from ktwist.io import canonical_json, load_cocycle, resolve_graph
from ktwist.oracle import omega_closedform, run_suites
from ktwist.phases import format_phase
from run_examples import PAIRINGS


def run_pairing(gname: str, cname: str, cap: int) -> dict:
    fixtures = ROOT / "fixtures"
    g, _ = resolve_graph(str(fixtures / gname))
    c, _ = load_cocycle(str(fixtures / cname), g)
    suites, _, basis, om = run_suites(g, c, 1, cap)
    block: dict = {"graph": gname, "cocycle": cname}
    if om is not None:
        cf = omega_closedform(g, c, basis)
        block["closed_form_agrees"] = om.antisymmetrization() == cf.antisymmetrization()
        block["bicharacter_antisymmetrization"] = [
            [format_phase(x) for x in row] for row in om.antisymmetrization()
        ]
    block["suites"] = [s.to_jsonable() for s in suites]
    block["ok"] = all(s.ok for s in suites)
    return block


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", help="write the JSON document here instead of stdout")
    ap.add_argument("--cap", type=int, default=500, help="per-suite sample cap")
    args = ap.parse_args()
    blocks = [run_pairing(gname, cname, args.cap) for gname, cname in PAIRINGS]
    doc = {"tool": "ktwist-oracle-report", "pairings": blocks}
    text = canonical_json(doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if all(b["ok"] for b in blocks) else 1


if __name__ == "__main__":
    sys.exit(main())
