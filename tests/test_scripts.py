"""Smoke test of scripts/run_examples.py against the verdicts README lists."""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")
sys.path.insert(0, SCRIPTS)
try:
    import run_examples
finally:
    sys.path.remove(SCRIPTS)

VERDICT_LINE = re.compile(r"^\s*(\S+\.json \+ \S+\.json): (\S+) \[(\S+)\]")


def _verdicts(text: str) -> list[tuple[str, ...]]:
    return [m.groups() for m in map(VERDICT_LINE.match, text.splitlines()) if m]


def test_run_examples_prints_the_readme_verdicts(capsys):
    assert run_examples.main() == 0
    printed = _verdicts(capsys.readouterr().out)
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        documented = _verdicts(fh.read())
    assert len(printed) == len(run_examples.PAIRINGS)
    assert printed == documented
