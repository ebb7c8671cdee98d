"""Every function the benchmark tracer wraps still exists under its name.

`perfbench/tracer.py` looks each target up when a traced run starts, and a
missing one fails that run.  Resolving the targets here the same way makes a
rename or deletion fail the test suite instead.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    from tracer import TARGETS
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
