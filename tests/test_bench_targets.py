"""Every function the benchmark tracer wraps still exists under its name.

`perfbench/tracer.py` looks each target up when a traced run starts, and a
missing one fails that run.  Resolving the targets here the same way makes a
rename or deletion fail the test suite instead.
"""

import importlib
import os
import sys

import pytest

from ktwist import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    from tracer import TARGETS, Tracer
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("modname, attr", [t[1:3] for t in TARGETS], ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__[meth])
    else:
        assert callable(getattr(owner, attr))


FIXTURES = os.path.join(os.path.dirname(PERFBENCH), "fixtures")


@pytest.mark.parametrize("args", [
    ["oracle", "builtin:B2xT1", "--cocycle", "phi_theta.json", "--depth", "1", "--max-triples", "50"],
    ["simplicity", "builtin:B2xT1", "--cocycle", "phi_theta.json"],
    ["validate", "B2xT3.json", "--cocycle", "b2t3.json"],
], ids=lambda args: args[0])
def test_traced_oracle_runs_agree(capsys, args):
    # two traced passes over the same command, each on a freshly built
    # graph, must make the same calls and counts: a traced bench run
    # whose passes disagree is refused
    for modname in {t[1] for t in TARGETS}:
        importlib.import_module(modname)
    args = [os.path.join(FIXTURES, a) if a.endswith(".json") else a for a in args]
    tracer = Tracer()
    tracer.install()
    try:
        runs = []
        for _ in range(2):
            tracer.reset()
            assert cli.main(args) == 0
            runs.append((tracer.raw()[0], tracer.counts()))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert runs[0] == runs[1]
    assert sum(runs[0][0]) > 0
