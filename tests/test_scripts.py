"""Smoke tests of the scripts: run_examples.py against the verdicts README lists,
oracle_report.py on the bundled pairings and against its golden document
at --cap 200, period_scale.py at n = 10, unreached.py on one test module,
and the summary of bench_pairs.py on given numbers (no bench is run)."""

import json
import os
import re
import subprocess
import sys

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

from ktwist import degrees

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
    assert re.fullmatch(r"n=10: UNKNOWN automaton_calls=1 seconds=\d+\.\d{3}", line), line


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


def test_bench_pairs_summary_reads_the_direction():
    # the same runs, for a metric where higher is better, are ten losses
    s = bench_pairs.summarize([{"ratio": b} for b in DECIDE_BASE], [{"ratio": b - 0.00162} for b in DECIDE_BASE],
                              {"ratio": "higher"})["ratio"]
    assert (s["wins"], s["gain"]) == (0, False)
