"""List the statements of src/ktwist that no test executes.

    python3 scripts/unreached.py [PYTEST ARGS ...]

Runs pytest in this process under `sys.settrace`, with line events only in
the files of src/ktwist, and prints one `path:line: source` line for each
executable line that never ran, then a count per file on stderr.  The
executable lines of a file are those its compiled code objects map to,
so docstrings and comments never count.  With no arguments it runs the
whole suite (`tests`).  The timing test
`test_yes_recheck_of_a_long_chain_is_linear` is always deselected: it
fails under tracing, and a failing test still counts as reaching what it
ran.  Code that tests run in a child process is not seen.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ktwist"
SLOW_UNDER_TRACE = "tests/test_structure.py::test_yes_recheck_of_a_long_chain_is_linear"


def executable_lines(path: Path) -> set[int]:
    """The lines that the code objects compiled from `path` map to."""
    out: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each package file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def on_line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return on_line

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(on_call)
    try:
        # pytest's own report goes to stderr, so stdout holds only the listing
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main([*args, "-q", "-p", "no:cacheprovider", "--deselect", SLOW_UNDER_TRACE])
    finally:
        sys.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = traced_run(argv or [str(ROOT / "tests")])
    if code not in (0, 1):  # 1: some tests failed, which still ran their lines
        return code
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - hits.get(str(path), set()))
        if not missed:
            continue
        source = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
        print(f"{rel}: {len(missed)} unreached", file=sys.stderr)
        total += len(missed)
    print(f"{total} unreached lines in {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
