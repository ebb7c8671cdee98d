"""The command-line front end: every subcommand's options, and the one path
from a result to its report.

`--emit FILE` must write exactly the document that `--format structured`
prints, whatever the console format, and an unwritable `--emit` path is an
input error (exit 1, one `error:` line, nothing on stdout).  The option
table pins each subparser's flags, dest, required flag, default, type,
choices and help, read from `cli._PARSER`, so a rewrite of the parser is
checked option by option.
"""

import argparse
import contextlib
import io
import os

import pytest

from ktwist import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one cheap call per subcommand, with every input it takes
ARGV = {
    "validate": ["validate", "fixtures/T2.json", "--cocycle", "fixtures/pullback_theta.json", "--depth", "1"],
    "analyze": ["analyze", "fixtures/B2xT1.json"],
    "per": ["per", "fixtures/B2xT1.json"],
    "omega": ["omega", "fixtures/T2.json", "--cocycle", "fixtures/pullback_theta.json"],
    "simplicity": ["simplicity", "fixtures/B2xT1.json", "--cocycle", "fixtures/phi_theta.json"],
    "oracle": ["oracle", "fixtures/T2.json", "--cocycle", "fixtures/pullback_theta.json",
               "--depth", "1", "--max-triples", "20"],
}


def run(argv: list[str]) -> tuple[int, str, str]:
    """One in-process call from the repository root: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(ARGV))
def test_emit_writes_the_structured_report(tmp_path, command):
    structured = run([*ARGV[command], "--format", "structured"])
    human = run([*ARGV[command], "--format", "human"])
    assert structured[2] == human[2] == ""
    for fmt, expected in (("human", human), ("structured", structured)):
        emit = tmp_path / f"{fmt}.json"
        # the console gets what it gets without --emit, the file the structured report
        assert run([*ARGV[command], "--format", fmt, "--emit", str(emit)]) == expected
        assert emit.read_text(encoding="utf-8") == structured[1]


@pytest.mark.parametrize("command", list(ARGV))
@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_emit_to_a_directory_exits_1(tmp_path, command, fmt):
    code, out, err = run([*ARGV[command], "--format", fmt, "--emit", str(tmp_path)])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: [Errno 21] Is a directory: {str(tmp_path)!r}"]


HELP = (("-h", "--help"), "help", False, argparse.SUPPRESS, None, None, "show this help message and exit")
GRAPH = ((), "graph", True, None, None, None, "graph JSON file or builtin:NAME")
COCYCLE = (("--cocycle",), "cocycle", True, None, None, None, "cocycle JSON file")
BOUND = (("--bound",), "bound", False, None, None, None, "period search radius, one int or comma list per color")
DEPTH = (("--depth",), "depth", False, 2, int, None, "truncation depth")
FORMAT = (("--format",), "format", False, "human", None, ("human", "structured"), None)
EMIT = (("--emit",), "emit", False, None, None, None, "write the structured report to this file")

# subcommand: (help, handler name, options in the order -h lists them)
OPTIONS = {
    "validate": ("check a graph file, optionally a cocycle file", "cmd_validate", [
        HELP, GRAPH, (("--cocycle",), "cocycle", False, None, None, None, "cocycle JSON file"), DEPTH, FORMAT, EMIT,
    ]),
    "analyze": ("cofinality, aperiodicity, period basis", "cmd_analyze", [HELP, GRAPH, BOUND, FORMAT, EMIT]),
    "per": ("period lattice of the shift", "cmd_per", [HELP, GRAPH, BOUND, FORMAT, EMIT]),
    "omega": ("bicharacter on the period lattice", "cmd_omega", [HELP, GRAPH, COCYCLE, BOUND, FORMAT, EMIT]),
    "simplicity": ("decide simplicity with certificates", "cmd_simplicity",
                   [HELP, GRAPH, COCYCLE, BOUND, FORMAT, EMIT]),
    "oracle": ("run the brute-force property suites", "cmd_oracle", [
        HELP, GRAPH, COCYCLE, DEPTH, FORMAT, EMIT,
        (("--max-triples",), "max_triples", False, 1500, int, None, "cap on sampled triples per suite"),
    ]),
}


def test_every_subparser_has_its_options():
    sub = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTIONS)
    assert [(a.dest, a.help) for a in sub._choices_actions] == [(n, h) for n, (h, _, _) in OPTIONS.items()]
    for name, (_, handler, options) in OPTIONS.items():
        sp = sub.choices[name]
        assert sp.get_default("func") is getattr(cli, handler)
        assert [
            (tuple(a.option_strings), a.dest, a.required, a.default, a.type, a.choices, a.help)
            for a in sp._actions
        ] == options, name
