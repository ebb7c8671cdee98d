"""Golden reports of the command line on the bundled fixtures.

Each case runs `ktwist.cli.main([..., "--format", FORMAT])` in-process and
compares its stdout, stderr and exit code with a record: structured reports
in `tests/golden/reports.json`, and in `tests/golden/human.json` the human
lines that the structured report does not carry (`note:`, `period bound:`,
`closed form agrees:`, `counterexample:` and the count of problems left
out).  The records pin the output byte for byte, so a refactor that is
meant to keep every report unchanged is checked here.

When a report is meant to change, rewrite the records with

    PYTHONPATH=src python tests/test_golden_reports.py

and review the diff of the data files.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from ktwist import cli, structure

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "reports.json")
GOLDEN_HUMAN = os.path.join(ROOT, "tests", "golden", "human.json")
# the theta pullback table of T2 to degree (3, 3) with its (a, b) entry off
# by 1/3: deep enough for the oracle at depth 1, and not a 2-cocycle
CORRUPT_TABLE = "tests/golden/t2_table_corrupt.json"

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

DEPTH2_ORACLE = (
    ("T2", "pullback_theta"),
    ("B2xT1", "phi_theta"),
    ("B2", "pullback_b2"),
    ("B2xT3", "b2t3"),
)


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
    # the oracle at the benchmark's depth, with the default cap, on the
    # benchmark's pairings and the B2xT3 pairing it leaves out
    for gname, cname in DEPTH2_ORACLE:
        cases[f"oracle {gname} {cname} --depth 2"] = [
            "oracle", f"fixtures/{gname}.json", "--cocycle", f"fixtures/{cname}.json", "--depth", "2",
        ]
    # the deepest oracle run any record holds, on the builtin graph
    cases["oracle builtin:B2xT3 b2t3 --depth 3"] = [
        "oracle", "builtin:B2xT3", "--cocycle", "fixtures/b2t3.json", "--depth", "3",
    ]
    return cases


CASES = _cases()

HUMAN_CASES = {
    "analyze B2xT1": ["analyze", "fixtures/B2xT1.json"],
    "analyze DISJOINT2": ["analyze", "fixtures/DISJOINT2.json"],
    "omega T2 pullback_theta": ["omega", "fixtures/T2.json", "--cocycle", "fixtures/pullback_theta.json"],
    "omega B2xT1 phi_zero": ["omega", "fixtures/B2xT1.json", "--cocycle", "fixtures/phi_zero.json"],
    "simplicity B2xT1 phi_theta": ["simplicity", "fixtures/B2xT1.json", "--cocycle", "fixtures/phi_theta.json"],
    "simplicity B2xT3 phi_theta": ["simplicity", "fixtures/B2xT3.json", "--cocycle", "fixtures/phi_theta.json"],
    "oracle B2xT1 phi_theta": ["oracle", "fixtures/B2xT1.json", "--cocycle", "fixtures/phi_theta.json", *ORACLE_ARGS],
    "oracle DISJOINT2 pullback_b2": [
        "oracle", "fixtures/DISJOINT2.json", "--cocycle", "fixtures/pullback_b2.json", *ORACLE_ARGS,
    ],
    "oracle T2 t2_table_corrupt": ["oracle", "fixtures/T2.json", "--cocycle", CORRUPT_TABLE, *ORACLE_ARGS],
    "validate T2 t2_table --depth 4": [
        "validate", "fixtures/T2.json", "--cocycle", "fixtures/t2_table.json", "--depth", "4",
    ],
}

# every human line the structured report does not carry
HUMAN_MARKERS = ("note: ", "period bound: ", "closed form agrees: ", "  counterexample: ", " more problems not shown")


def run_case(argv: list[str], fmt: str = "structured") -> dict:
    """Run one CLI call from the repository root and record what it printed."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--format", fmt])
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load(GOLDEN)


@pytest.fixture(scope="module")
def golden_human() -> dict:
    return _load(GOLDEN_HUMAN)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(golden, name):
    assert run_case(CASES[name]) == golden[name]


@pytest.mark.parametrize("command", ["per", "omega", "oracle"])
def test_period_commands_do_not_run_the_per_vertex_cofinality_search(monkeypatch, golden, command):
    # they read cofinality off the rotation rule, so their reports, the
    # refusal on DISJOINT2 included, do not depend on is_cofinal
    def refused(g):
        raise AssertionError(f"{command} ran is_cofinal")

    original = structure.is_cofinal
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ktwist" and getattr(module, "is_cofinal", None) is original:
            monkeypatch.setattr(module, "is_cofinal", refused)
    for gname, cname in PAIRINGS:
        case = f"{command} {gname} {cname}"
        assert run_case(CASES[case]) == golden[case]


def test_human_golden_covers_every_case_and_line(golden_human):
    assert sorted(golden_human) == sorted(HUMAN_CASES)
    for marker in HUMAN_MARKERS:
        assert any(marker in case["stdout"] for case in golden_human.values()), marker


@pytest.mark.parametrize("name", list(HUMAN_CASES))
def test_human_report_matches_golden(golden_human, name):
    assert run_case(HUMAN_CASES[name], "human") == golden_human[name]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    for path, cases, fmt in ((GOLDEN, CASES, "structured"), (GOLDEN_HUMAN, HUMAN_CASES, "human")):
        record = {name: run_case(argv, fmt) for name, argv in cases.items()}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
