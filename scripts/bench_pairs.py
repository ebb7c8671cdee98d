"""Alternating benchmark pairs of a base revision against this checkout.

    python3 scripts/bench_pairs.py --base REV --workload W --pairs N \
        --seconds S --seed N0

Exports REV with `git archive` into a temporary directory, deleted
afterwards, and runs the unchanged `perfbench/run.py --trace 0` there
(the base) and in this checkout's working tree (the change), N times each
at seeds N0, N0 + 1, ...  Pair i runs the base first when i is even and
the change first when it is odd.  Each run line is printed as it ends.

Per end-to-end metric of BENCHMARK.json, the summary gives each side's
median and quartiles over the N runs and the number of pairs the change
won (ties count for neither), and says whether a gain may be claimed: the
change wins at least nine tenths of the pairs and its median is better
than the base's by more than the distance between the base's quartiles.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(base: list[dict], change: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric, the medians, quartiles and wins of paired runs.

    `base[i]` and `change[i]` map metric names to values for pair i;
    `better[name]` is "lower" or "higher".
    """
    out = {}
    for name, direction in better.items():
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        sign = 1 if direction == "lower" else -1
        bq1, bmed, bq3 = statistics.quantiles(b, n=4, method="inclusive")
        cq1, cmed, cq3 = statistics.quantiles(c, n=4, method="inclusive")
        wins = sum(sign * (x - y) > 0 for x, y in zip(b, c))
        out[name] = {
            "base": (bmed, bq1, bq3), "change": (cmed, cq1, cq3), "wins": wins, "pairs": len(b),
            "gain": wins >= 0.9 * len(b) and sign * (bmed - cmed) > bq3 - bq1,
        }
    return out


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one untraced run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if run.returncode != 0:
        raise SystemExit(f"bench_pairs: {checkout} seed {seed} exited {run.returncode}:\n{run.stderr}")
    result = json.loads(run.stdout.splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"bench_pairs: {checkout} seed {seed}: {result['failed']} items failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i runs at seed + i")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        archive = subprocess.run(["git", "archive", "--format=tar", args.base], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        sides = {"base": tmp, "change": ROOT}
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                metrics = run_bench(sides[side], args.workload, seed, args.seconds)
                runs[side].append(metrics)
                print(f"pair {i} seed {seed} {side}: "
                      + " ".join(f"{name}={metrics[name]:.6g}" for name in better), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}, base {args.base} against the checkout")
    for name, s in summarize(runs["base"], runs["change"], better).items():
        (bm, bq1, bq3), (cm, cq1, cq3) = s["base"], s["change"]
        print(f"  {name}: base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  "
              f"change won {s['wins']}/{s['pairs']}  gain {'holds' if s['gain'] else 'not shown'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
