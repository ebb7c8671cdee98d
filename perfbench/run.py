"""The ktwist benchmark.

    python3 perfbench/run.py --workload {decide,oracle,validate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up runs `setup_inputs.py` in a fresh
interpreter (import ktwist, generate and write the seeded inputs); the
untraced run repeats it between passes, so the repeats spread over the run,
and reports the median as `setup_s`.  The measurement is one
process, one caller, no threads: a closed loop of passes over the
workload's items, each item one in-process `ktwist.cli.main(argv)` call
whose structured report is captured and checked against the expected
answer.  Items name their input files relative to the inputs directory,
which is the working directory while they run.  Every item resolves its
graph and loads its cocycle afresh, so per-graph caches start cold, as in
a CLI user's process.  Passes repeat until S seconds have gone by, and at
least twice.

--trace 0 reports the end-to-end metrics.  Every time is in reference
seconds: the measured seconds rescaled by the host's speed while they were
measured, as `speed.py` probes it, because the host's own speed drifts far
more between runs than the bounds allow.  Each item's time is its median
over the passes (see `measure`):
  setup_s         median set-up repeat
  wall_s          one pass over all items: the sum over items
  item_max_s      the slowest item
  item_geomean_s  geometric mean over items
  peak_rss_mb     peak resident set size of this process
The raw seconds and the probe's kernel seconds go into the metadata.
--trace 1 reports per-layer metrics instead: one untraced pass, then two
passes with the tracer installed and no speed probe (its handler would be
charged to whichever function it interrupted), so `self_s` is in raw
seconds.  Call counts and deterministic counts
of the two traced passes must agree; if they do not, the run fails with
exit code 1 and prints no result.

The last stdout line is the result object; the line before it carries the
run's metadata (machine, versions, commit, seed, sample counts, failures,
excluded workloads and the expected layer-to-end-to-end effects).  The same
metadata and, for traced runs, the per-item spans are written under
`.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from setup_inputs import SRC, import_ktwist
from speed import REF_KERNEL_S, SpeedProbe, kernel_seconds, to_reference
from tracer import COUNTS, FUNCTIONS, Tracer
from workloads import EXCLUDED, EXPECTED_MOVES, WHY, WORKLOADS, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
MIN_PASSES = 2
SETUP_TIMEOUT_S = 60


def setup_once(workload: str, seed: int, out: Path) -> tuple[float, float]:
    """Seconds for one fresh-interpreter set-up writing the inputs under `out`,
    less the set-up's own speed probes, and their mean kernel seconds."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "setup_inputs.py"),
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return dt - probe["probe_s"], probe["kernel_s"]


def _dir_digest(d: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(d.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_item(cli, item: dict, probe: SpeedProbe | None = None):
    """Seconds for one CLI call, the probe's mean kernel seconds during it
    (None without a probe), and why its answer is wrong (None if right)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(item["argv"])

    t0 = time.perf_counter()
    try:
        if probe is None:
            code, kernel_s = call(), None
            dt = time.perf_counter() - t0
        else:
            code, dt, kernel_s = probe.call(call)
    except (Exception, SystemExit) as exc:  # a raise is a failed item, not a crash
        kernel_s = None if probe is None else kernel_seconds()
        return time.perf_counter() - t0, kernel_s, f"raised {type(exc).__name__}: {exc}"
    why = check(item, code, out.getvalue())
    if why is not None and err.getvalue():
        why += f"; stderr: {err.getvalue().strip()[:200]}"
    return dt, kernel_s, why


def run_pass(cli, items, failures: list, spans=None, tracer=None, probe=None) -> list:
    """One pass over `items`: per item (seconds, kernel seconds or None)."""
    gc.collect()  # so no item pays for collecting the previous pass's garbage
    times = []
    for item in items:
        before = tracer.raw() if tracer else None
        start = time.perf_counter()
        dt, kernel_s, why = run_item(cli, item, probe)
        times.append((dt, kernel_s))
        if why is not None:
            failures.append(f"{item['name']}: {why}")
        if tracer is not None:
            (c0, s0, t0), (c1, s1, t1) = before, tracer.raw()
            spans.append({
                "item": item["name"], "start": start, "end": start + dt,
                "functions": {name: [c1[i] - c0[i], s1[i] - s0[i], t1[i] - t0[i]]
                              for i, name in enumerate(FUNCTIONS) if c1[i] != c0[i]},
            })
    return times


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def measure(cli, items, seconds: float, failures: list, between) -> dict:
    """Closed-loop passes for `seconds`, and at least MIN_PASSES of them;
    calls `between()` after each pass.

    Each item's time is the median over passes of its reference seconds
    (see `speed.py`).  A single pass that outlasts `seconds` would rest on
    one sample per item, hence MIN_PASSES.  The raw samples go into the
    metadata.
    """
    probe = SpeedProbe()
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(cli, items, failures, probe=probe))
        between()
    per_item = [statistics.median(to_reference(*p[i]) for p in passes)
                for i in range(len(items))]
    return {
        "wall_s": sum(per_item),
        "item_max_s": max(per_item),
        "item_geomean_s": geomean(per_item),
        "samples": {"passes": len(passes),
                    "item_s": {it["name"]: [p[i][0] for p in passes]
                               for i, it in enumerate(items)},
                    "kernel_s": {it["name"]: [p[i][1] for p in passes]
                                 for i, it in enumerate(items)}},
    }


def traced(cli, items, failures: list, spans: list) -> tuple[dict, dict]:
    """Per-layer metrics from two traced passes, after one untraced pass.

    Also returns each function's inclusive seconds, for the metadata.
    """
    untraced = sum(dt for dt, _ in run_pass(cli, items, failures))
    tracer = Tracer()
    tracer.install()
    runs = []
    try:
        for _ in range(2):
            tracer.reset()
            wall = sum(dt for dt, _ in run_pass(cli, items, failures, spans, tracer))
            runs.append((wall, *tracer.raw(), tracer.counts()))
    finally:
        tracer.uninstall()
    (w1, c1, s1, t1, k1), (w2, c2, s2, t2, k2) = runs
    if c1 != c2 or k1 != k2:
        diff = [n for n, a, b in zip(FUNCTIONS, c1, c2) if a != b]
        diff += [n for n in COUNTS if k1[n] != k2[n]]
        raise SystemExit(f"perfbench: traced passes disagree on {diff}; counts are not "
                         "deterministic, so no per-layer numbers are reported")
    metrics = {}
    for i, name in enumerate(FUNCTIONS):
        metrics[f"{name}.calls"] = (c1[i], "count")
        metrics[f"{name}.self_s"] = ((s1[i] + s2[i]) / 2, "s")
    for name in COUNTS:
        metrics[name] = (k1[name], "ratio" if name.endswith("ratio") else "count")
    metrics["trace.overhead_ratio"] = ((w1 + w2) / 2 / untraced, "ratio")
    inclusive = {name: (t1[i] + t2[i]) / 2 for i, name in enumerate(FUNCTIONS) if c1[i]}
    return metrics, inclusive


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "ktwist").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description="ktwist benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ktwist = import_ktwist()
    WORK.mkdir(exist_ok=True)
    inputs = WORK / f"inputs-{os.getpid()}"
    extra = WORK / f"inputs-{os.getpid()}-repeat"
    try:
        setup_times = [setup_once(args.workload, args.seed, inputs)]
        digest = _dir_digest(inputs)

        def repeat_setup():
            """One more timed set-up, spread between passes; same inputs or fail."""
            if len(setup_times) < SETUP_REPEATS:
                setup_times.append(setup_once(args.workload, args.seed, extra))
                if _dir_digest(extra) != digest:
                    raise SystemExit("perfbench: set-up repeats wrote different inputs "
                                     "for one seed")

        import ktwist.cli as cli

        items = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
        failures: list[str] = []
        spans: list[dict] = []
        os.chdir(inputs)
        if args.trace:
            metrics, inclusive = traced(cli, items, failures, spans)
            samples = {"passes": 3, "inclusive_s": inclusive}  # 1 untraced + 2 traced
        else:
            m = measure(cli, items, args.seconds, failures, repeat_setup)
            while len(setup_times) < SETUP_REPEATS:
                repeat_setup()
            metrics = {
                "setup_s": (statistics.median(to_reference(*s) for s in setup_times), "s"),
                "wall_s": (m["wall_s"], "s"),
                "item_max_s": (m["item_max_s"], "s"),
                "item_geomean_s": (m["item_geomean_s"], "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            samples = m["samples"]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(inputs, ignore_errors=True)
        shutil.rmtree(extra, ignore_errors=True)

    attempted = len(items) * samples["passes"]
    meta = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "ktwist_version": ktwist.__version__, "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "reference_kernel_s": REF_KERNEL_S,
        "setup_samples": {"s": [dt for dt, _ in setup_times],
                          "kernel_s": [k for _, k in setup_times]},
        "samples": samples,
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
        "excluded": EXCLUDED, "expected_moves": EXPECTED_MOVES,
    }
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result, "spans": spans}, indent=1),
                      encoding="utf-8")
    print(json.dumps({"perfbench_meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
