"""Alternating benchmark pairs of a base revision against this checkout.

    python3 scripts/bench_pairs.py --base REV --workload W --pairs N \
        --seconds S --seed N0

Exports REV with `git archive` (the base) and this checkout's files (the
change: its tracked files as they are in the working tree, and its
untracked files that git does not ignore) into two temporary directories,
deleted afterwards, and runs the unchanged `perfbench/run.py --trace 0` in
each, N times at the one seed N0, so that the inputs are the same in every
run and the runs differ by run noise only.  Neither side runs in the
working tree, so neither imports bytecode that an earlier run left there.
Pair i runs the base first when i is even and the change first when it is
odd.  Each run line is printed as it ends.

Per end-to-end metric of BENCHMARK.json, the summary gives each side's
median and quartiles over the N runs and the number of pairs the change
won (ties count for neither), and says whether a gain may be claimed: the
change wins at least nine tenths of the pairs and its median is better
than the base's by more than the distance between the base's quartiles,
which at one seed is the spread of the base's run noise.  It also gives a
verdict against the metric's `bound`, read as a fraction of the base's
median: "worse" when the change's median is worse than the base's by more
than that fraction; else "unresolved" when the base's quartile distance is
wider than that fraction and not every change run beats every base run;
else "no worse".  Then, per bench item, it gives each side's median and
quartiles, over the N runs, of the item's time in reference seconds (the
run's median over its passes of the raw `samples.item_s` of its
`perfbench_meta` line, rescaled by the pass's `samples.kernel_s` and the
run's `reference_kernel_s`, as `perfbench/run.py` rescales them for
`wall_s`), and the pairs the change won, so that a gain can be traced to
the items that hold it.
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


def summarize(base: list[dict], change: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict[str, dict]:
    """Per metric, the medians, quartiles and wins of paired runs, and
    with `bounds` the verdict against each metric's bound.

    `base[i]` and `change[i]` map metric names to values for pair i;
    `better[name]` is "lower" or "higher", and `bounds[name]` a fraction
    of the base's median.
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
        if bounds is not None:
            allowed = bounds[name] * abs(bmed)
            if sign * (cmed - bmed) > allowed:
                out[name]["verdict"] = "worse"
            elif bq3 - bq1 > allowed and not all(sign * (x - y) > 0 for x in b for y in c):
                out[name]["verdict"] = "unresolved"
            else:
                out[name]["verdict"] = "no worse"
    return out


def export_sides(base: str, tmp: Path) -> dict[str, Path]:
    """Export revision `base` and this checkout's files into two directories under `tmp`."""
    sides = {"base": tmp / "base", "change": tmp / "change"}
    archive = subprocess.run(["git", "archive", "--format=tar", base], cwd=ROOT,
                             capture_output=True, check=True).stdout
    sides["base"].mkdir()
    subprocess.run(["tar", "-x", "-C", str(sides["base"])], input=archive, check=True)
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout.decode()
    for name in dict.fromkeys(listed.split("\0")):
        if name and (ROOT / name).is_file():  # a tracked file deleted from the tree is left out
            (sides["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, sides["change"] / name)
    return sides


def item_seconds(meta: dict) -> dict[str, float]:
    """Each item's median time over a run's passes, in reference seconds,
    from the run's `perfbench_meta` object."""
    ref, samples = meta["reference_kernel_s"], meta["samples"]
    return {name: statistics.median(s * ref / k for s, k in zip(raw, samples["kernel_s"][name]))
            for name, raw in samples["item_s"].items()}


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metric values of one untraced run in `checkout`, and
    under "items" each item's time from `item_seconds`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if run.returncode != 0:
        raise SystemExit(f"bench_pairs: {checkout} seed {seed} exited {run.returncode}:\n{run.stderr}")
    meta, result = (json.loads(line) for line in run.stdout.splitlines()[-2:])
    if result["failed"]:
        raise SystemExit(f"bench_pairs: {checkout} seed {seed}: {result['failed']} items failed")
    return {**{name: m["value"] for name, m in result["metrics"].items()},
            "items": item_seconds(meta["perfbench_meta"])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of every run")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        sides = export_sides(args.base, tmp)
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.pairs):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                metrics = run_bench(sides[side], args.workload, args.seed, args.seconds)
                runs[side].append(metrics)
                print(f"pair {i} {side}: "
                      + " ".join(f"{name}={metrics[name]:.6g}" for name in better), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seed {args.seed}, base {args.base} against the checkout's files")
    for name, s in summarize(runs["base"], runs["change"], better, bounds).items():
        (bm, bq1, bq3), (cm, cq1, cq3) = s["base"], s["change"]
        print(f"  {name}: base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  "
              f"change won {s['wins']}/{s['pairs']}  gain {'holds' if s['gain'] else 'not shown'}  "
              f"{s['verdict']} (bound {bounds[name]:.0%})")
    items = {side: [run.get("items", {}) for run in runs[side]] for side in runs}
    for name, s in summarize(items["base"], items["change"], dict.fromkeys(items["base"][0], "lower")).items():
        (bm, bq1, bq3), (cm, cq1, cq3) = s["base"], s["change"]
        print(f"  item {name}: base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  "
              f"change won {s['wins']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
