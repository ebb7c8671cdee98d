"""Golden structured reports of the command line on the bundled fixtures.

Each case runs `ktwist.cli.main([..., "--format", "structured"])` in-process
and compares its stdout, stderr and exit code with the record kept in
`tests/golden/reports.json`.  The record pins the reports byte for byte, so
a refactor that is meant to keep every report unchanged is checked here.

When a report is meant to change, rewrite the record with

    PYTHONPATH=src python tests/test_golden_reports.py

and review the diff of the data file.
"""

import contextlib
import io
import json
import os

import pytest

from ktwist import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "reports.json")

PAIRINGS = (
    ("T2", "pullback_theta"),
    ("T2", "pullback_half"),
    ("B2", "pullback_b2"),
    ("B2xT1", "phi_theta"),
    ("B2xT1", "phi_zero"),
    ("B2xT3", "b2t3"),
    ("DISJOINT2", "pullback_b2"),
)

ORACLE_ARGS = ("--depth", "1", "--max-triples", "50")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for gname, cname in PAIRINGS:
        graph = f"fixtures/{gname}.json"
        cocycle = ("--cocycle", f"fixtures/{cname}.json")
        cases[f"validate {gname} {cname}"] = ["validate", graph, *cocycle]
        cases[f"analyze {gname} {cname}"] = ["analyze", graph]
        cases[f"per {gname} {cname}"] = ["per", graph]
        cases[f"omega {gname} {cname}"] = ["omega", graph, *cocycle]
        cases[f"simplicity {gname} {cname}"] = ["simplicity", graph, *cocycle]
        cases[f"oracle {gname} {cname}"] = ["oracle", graph, *cocycle, *ORACLE_ARGS]
    # the one family whose validation enumerates paths, at a depth that
    # reaches the corrupted entry
    cases["validate T2 t2_table"] = [
        "validate", "fixtures/T2.json", "--cocycle", "fixtures/t2_table.json", "--depth", "3",
    ]
    # explicit search bounds, one radius and one per colour
    theta = ("--cocycle", "fixtures/phi_theta.json")
    for bound in ("3", "2,3"):
        cases[f"simplicity B2xT1 phi_theta --bound {bound}"] = [
            "simplicity", "fixtures/B2xT1.json", *theta, "--bound", bound,
        ]
    # a product whose period lattice is larger than its torus directions: a note
    cases["simplicity B2xT3 phi_theta"] = ["simplicity", "fixtures/B2xT3.json", *theta]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> dict:
    """Run one CLI call from the repository root and record what it printed."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--format", "structured"])
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(golden, name):
    assert run_case(CASES[name]) == golden[name]


if __name__ == "__main__":
    record = {name: run_case(argv) for name, argv in CASES.items()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
