"""Set-up step of the ktwist benchmark, run in a fresh interpreter.

    python3 perfbench/setup_inputs.py --workload NAME --seed N --out DIR

Imports ktwist from the checkout's `src/`, generates the workload's seeded
input files under DIR and writes DIR/manifest.json with the items and their
expected answers.  `run.py` times this whole process, several times per
run, as the benchmark's set-up time.  The process probes the host's speed
(see `speed.py`) when it starts and before it ends, on its own CPU, and
prints the probes' mean kernel seconds and the seconds they took as a
JSON line, so that `run.py` can leave the probes out and rescale the rest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from speed import kernel_seconds

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROBE_RUNS = 5  # a set-up is one sample, so probe it with several kernel runs


def import_ktwist():
    """Import ktwist from this checkout's sources, never from elsewhere."""
    if not (SRC / "ktwist" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ktwist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ktwist

    if Path(ktwist.__file__).resolve().parent != (SRC / "ktwist").resolve():
        raise SystemExit(f"perfbench: imported ktwist from {ktwist.__file__}, not {SRC}")
    return ktwist


def main() -> int:
    t0 = time.perf_counter()
    before = kernel_seconds(PROBE_RUNS)
    probe_s = time.perf_counter() - t0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    import_ktwist()
    import ktwist.cli  # noqa: F401  (the entry point every item calls)
    from workloads import canonical_json, generate

    items = generate(args.workload, args.seed, args.out)
    (args.out / "manifest.json").write_text(canonical_json(items), encoding="utf-8")
    t0 = time.perf_counter()
    after = kernel_seconds(PROBE_RUNS)
    probe_s += time.perf_counter() - t0
    print(json.dumps({"kernel_s": (before + after) / 2, "probe_s": probe_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
