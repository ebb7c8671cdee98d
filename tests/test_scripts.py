"""Smoke tests of the scripts: run_examples.py against the verdicts README lists,
oracle_report.py on the bundled pairings and against its golden document
at --cap 200, period_scale.py at n = 10, unreached.py on one test module,
and the summary, the verdicts, the per-item times and the two exported
sides of bench_pairs.py (no bench is run)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")
sys.path.insert(0, SCRIPTS)
try:
    import bench_pairs
    import oracle_report
    import period_scale
    import run_examples
finally:
    sys.path.remove(SCRIPTS)

from ktwist import decider, degrees, groupoid, kgraph, structure

VERDICT_LINE = re.compile(r"^\s*\S+\.json \+ \S+\.json: \S+ \[\S+\]")


def test_run_examples_prints_the_readme_verdicts(capsys):
    # whole lines: the script prints nothing that differs from run to run
    assert run_examples.main() == 0
    printed = capsys.readouterr().out.splitlines()
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        documented = [line.strip() for line in fh if VERDICT_LINE.match(line)]
    assert len(printed) == len(run_examples.PAIRINGS)
    assert printed == documented


def test_oracle_report_covers_the_pairings(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["oracle_report.py", "--cap", "20"])
    assert oracle_report.main() == 0
    blocks = json.loads(capsys.readouterr().out)["pairings"]
    assert [(b["graph"], b["cocycle"]) for b in blocks] == oracle_report.PAIRINGS
    # the same seven bundled pairings that run_examples.py decides
    assert oracle_report.PAIRINGS == run_examples.PAIRINGS
    assert all(b["ok"] for b in blocks)
    # the symmetric closed form misses the theta twist on the torus
    assert blocks[0]["closed_form_agrees"] is False


def test_oracle_report_matches_its_golden_document(monkeypatch, capsys):
    # the whole document at the cap that CHANGES entries quote; when it is
    # meant to change, rewrite the record with
    #   PYTHONPATH=src python scripts/oracle_report.py --cap 200 --out tests/golden/oracle_report.json
    monkeypatch.setattr(sys, "argv", ["oracle_report.py", "--cap", "200"])
    assert oracle_report.main() == 0
    with open(os.path.join(ROOT, "tests", "golden", "oracle_report.json"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_period_scale_at_ten_vertices(capsys):
    # the in-degrees pin the periods to 0 + Z, and one automaton call finds it
    assert period_scale.main(["10"]) == 0
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(r"n=10: UNKNOWN automaton_calls=1 cofinal_s=\d+\.\d{3} periods_s=\d+\.\d{3} "
                        r"tail_s=\d+\.\d{3} seconds=\d+\.\d{3}", line), line
    # the timed stages are unwrapped again
    assert (decider.is_cofinal, decider.per_group, groupoid.canonical_tail) == (
        structure.is_cofinal, structure.per_group, kgraph.canonical_tail)


def test_unreached_lists_what_one_test_module_leaves_out():
    # a traced pytest run of test_degrees.py, in a child process so that
    # its tracer and its pytest session stay out of this one
    run = subprocess.run([sys.executable, os.path.join(SCRIPTS, "unreached.py"), "tests/test_degrees.py"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    listed = run.stdout.splitlines()
    assert all(re.match(r"src/ktwist/\w+\.py:\d+: \S", line) for line in listed)
    # degrees.add is tested there, and nothing there calls into the oracle
    first = degrees.add.__code__.co_firstlineno
    assert not any(line.startswith(f"src/ktwist/degrees.py:{n}:") for line in listed for n in range(first, first + 4))
    assert any(line.startswith("src/ktwist/oracle.py:") for line in listed)
    assert run.stderr.rstrip().endswith(f"{len(listed)} unreached lines in src/ktwist")


# decide wall_s over ten pairs: the base's median 0.02202 with quartiles
# 0.02182 and 0.02217, and each change run 0.00162 faster than its pair
DECIDE_BASE = [0.02202, 0.02170, 0.02217, 0.02182, 0.02234, 0.02175, 0.02202, 0.02217, 0.02182, 0.02225]


@pytest.mark.parametrize("faster, wins, gain", [
    ([0.00162] * 10, 10, True),
    ([0.00020] * 10, 10, False),  # within the base's quartile distance of 0.00035
    ([0.00162] * 8 + [0.0, -0.001], 8, False),  # a tie and a loss: 8 of 10
])
def test_bench_pairs_summary(faster, wins, gain):
    change = [b - d for b, d in zip(DECIDE_BASE, faster)]
    s = bench_pairs.summarize([{"wall_s": b} for b in DECIDE_BASE], [{"wall_s": c} for c in change],
                              {"wall_s": "lower"})["wall_s"]
    assert s["base"] == pytest.approx((0.02202, 0.02182, 0.02217))
    assert (s["wins"], s["pairs"], s["gain"]) == (wins, 10, gain)
    if gain:
        assert s["change"][0] == pytest.approx(0.02040)


@pytest.mark.skipif(not os.path.exists(os.path.join(ROOT, ".git")), reason="exports from a git checkout")
def test_bench_pairs_runs_neither_side_in_the_working_tree(tmp_path):
    # a side run where an earlier run left bytecode would import it and win
    # setup_s; the change side is this checkout's files as they stand
    sides = bench_pairs.export_sides("HEAD", tmp_path)
    for side in sides.values():
        assert side.resolve() != Path(ROOT).resolve() and side.resolve().is_relative_to(tmp_path.resolve())
        assert (side / "perfbench" / "run.py").is_file() and (side / "src" / "ktwist" / "__init__.py").is_file()
        assert not any(p.name == "__pycache__" for p in side.rglob("*")), side
    here = Path(ROOT, "tests", "test_scripts.py").read_bytes()
    assert (sides["change"] / "tests" / "test_scripts.py").read_bytes() == here


def test_bench_pairs_summary_reads_the_direction():
    # the same runs, for a metric where higher is better, are ten losses
    s = bench_pairs.summarize([{"ratio": b} for b in DECIDE_BASE], [{"ratio": b - 0.00162} for b in DECIDE_BASE],
                              {"ratio": "higher"})["ratio"]
    assert (s["wins"], s["gain"]) == (0, False)
    # and 7.4 % lower is worse by more than a bound of 5 %
    s = bench_pairs.summarize([{"ratio": b} for b in DECIDE_BASE], [{"ratio": b - 0.00162} for b in DECIDE_BASE],
                              {"ratio": "higher"}, {"ratio": 0.05})["ratio"]
    assert s["verdict"] == "worse"


def test_bench_pairs_runs_every_pair_at_the_one_seed(monkeypatch, capsys):
    # the gain rule compares against the base's quartile spread, which
    # must be run noise: no pair may run on other inputs than the rest
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    runs = []
    monkeypatch.setattr(bench_pairs, "export_sides", lambda base, tmp: {"base": tmp / "base", "change": tmp / "change"})
    monkeypatch.setattr(bench_pairs, "run_bench",
                        lambda checkout, workload, seed, seconds: runs.append((checkout.name, seed)) or dict.fromkeys(names, 1.0))
    assert bench_pairs.main(["--base", "HEAD", "--workload", "decide", "--pairs", "4", "--seconds", "1", "--seed", "7"]) == 0
    assert runs == [("base", 7), ("change", 7), ("change", 7), ("base", 7)] * 2
    assert "seed 7," in capsys.readouterr().out


# a base whose quartile distance, 0.6, is wider than every bound of BENCHMARK.json
# times its median, 1.3
WIDE_BASE = [1.0, 1.6] * 5


@pytest.mark.parametrize("base, change, verdict", [
    (DECIDE_BASE, [b * 1.05 for b in DECIDE_BASE], "no worse"),  # 5 % slower, within every bound
    (DECIDE_BASE, [b * 1.5 for b in DECIDE_BASE], "worse"),
    (WIDE_BASE, WIDE_BASE, "unresolved"),
    (WIDE_BASE, [0.5] * 10, "no worse"),  # every change run beats every base run
])
def test_bench_pairs_says_whether_a_metric_got_worse(monkeypatch, capsys, base, change, verdict):
    # each metric's bound is a fraction of the base's median
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    runs = {"base": iter(base), "change": iter(change)}
    monkeypatch.setattr(bench_pairs, "export_sides", lambda base, tmp: {"base": tmp / "base", "change": tmp / "change"})
    monkeypatch.setattr(bench_pairs, "run_bench",
                        lambda checkout, workload, seed, seconds: dict.fromkeys(bounds, next(runs[checkout.name])))
    assert bench_pairs.main(["--base", "HEAD", "--workload", "decide", "--pairs", "10", "--seconds", "1", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()[-len(bounds):]
    assert [line.split(":")[0].strip() for line in lines] == list(bounds)
    for line, bound in zip(lines, bounds.values()):
        assert line.endswith(f"  {verdict} (bound {bound:.0%})"), line


# the perfbench_meta samples of a run of two items over three passes: the
# host ran at half the reference speed in the first pass and at reference
# speed after it
RUN_META = {"reference_kernel_s": 0.1,
            "samples": {"passes": 3,
                        "item_s": {"T2+table8@8": [0.16, 0.07, 0.09], "R2x2+pullback@5": [0.004, 0.003, 0.001]},
                        "kernel_s": {"T2+table8@8": [0.2, 0.1, 0.1], "R2x2+pullback@5": [0.2, 0.1, 0.1]}}}


def test_bench_pairs_reads_each_item_in_reference_seconds(monkeypatch):
    # the two last lines a run prints: its metadata, then its result
    result = {"failed": 0, "metrics": {"wall_s": {"value": 0.083, "unit": "s"}}}
    stdout = "\n".join(json.dumps(doc) for doc in ({"perfbench_meta": RUN_META}, result)) + "\n"
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *a, **k: subprocess.CompletedProcess(a, 0, stdout=stdout, stderr=""))
    run = bench_pairs.run_bench(Path(ROOT), "validate", 1, 1.0)
    # item times 0.08, 0.07, 0.09 and 0.002, 0.003, 0.001 at reference speed
    assert run == {"wall_s": 0.083, "items": {"T2+table8@8": pytest.approx(0.08),
                                              "R2x2+pullback@5": pytest.approx(0.002)}}


def test_bench_pairs_shows_where_a_gain_sits(monkeypatch, capsys):
    # the change saves 0.008 s on the table item in every pair and nothing on the other
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    saving = {"base": 0.0, "change": 0.008}
    monkeypatch.setattr(bench_pairs, "export_sides", lambda base, tmp: {"base": tmp / "base", "change": tmp / "change"})
    monkeypatch.setattr(bench_pairs, "run_bench", lambda checkout, workload, seed, seconds: {
        **dict.fromkeys(names, 1.0),
        "items": {"T2+table8@8": 0.08 - saving[checkout.name], "R2x2+pullback@5": 0.002}})
    assert bench_pairs.main(["--base", "HEAD", "--workload", "validate", "--pairs", "4", "--seconds", "1", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "  item T2+table8@8: base 0.08 [0.08, 0.08]  change 0.072 [0.072, 0.072]  change won 4/4",
        "  item R2x2+pullback@5: base 0.002 [0.002, 0.002]  change 0.002 [0.002, 0.002]  change won 0/4",
    ]
