"""Outside-in tracer for the traced run of the ktwist benchmark.

The tracer wraps public functions of each ktwist module from the outside:
a module-level function is replaced in every ktwist module namespace that
bound it (`cli` does `from .oracle import build_partition`, so patching
`ktwist.oracle` alone would miss the CLI's calls), and a method or dunder
is replaced on its class.  Each wrapper times its call and charges the
time of wrapped callees to them, so a function's self time is its span
minus its child spans.

Spans are aggregated in memory per function (call count, self seconds)
rather than stored one by one: the oracle workload makes millions of
wrapped calls.  `run.py` snapshots the aggregates around every item and
writes those per-item spans out when the run ends.

`degrees` is not wrapped: its functions are too small for an outside span,
so their cost shows in their callers' self time.
"""

from __future__ import annotations

import sys
import time

# (layer, module, attribute path, metric label)
TARGETS = (
    ("cli", "ktwist.cli", "main", "main"),
    ("io", "ktwist.io", "resolve_graph", "resolve_graph"),
    ("io", "ktwist.io", "load_cocycle", "load_cocycle"),
    ("io", "ktwist.io", "serialize_report", "serialize_report"),
    ("kgraph", "ktwist.kgraph", "KGraph.compose", "KGraph.compose"),
    ("kgraph", "ktwist.kgraph", "KGraph.factorize", "KGraph.factorize"),
    ("kgraph", "ktwist.kgraph", "KGraph.paths_from", "KGraph.paths_from"),
    ("kgraph", "ktwist.kgraph", "EventuallyPeriodicPath.segment_to",
     "EventuallyPeriodicPath.segment_to"),
    ("kgraph", "ktwist.kgraph", "EventuallyPeriodicPath.shift", "EventuallyPeriodicPath.shift"),
    ("kgraph", "ktwist.kgraph", "EventuallyPeriodicPath.__eq__", "EventuallyPeriodicPath.eq"),
    ("kgraph", "ktwist.kgraph", "validate_kgraph", "validate_kgraph"),
    ("kgraph", "ktwist.kgraph", "canonical_tail", "canonical_tail"),
    ("phases", "ktwist.phases", "PhaseExponent.__post_init__", "PhaseExponent.init"),
    ("phases", "ktwist.phases", "PhaseExponent.__add__", "PhaseExponent.add"),
    ("phases", "ktwist.phases", "PhaseExponent.__sub__", "PhaseExponent.sub"),
    ("phases", "ktwist.phases", "PhaseExponent.scaled", "PhaseExponent.scaled"),
    ("phases", "ktwist.phases", "parse_phase", "parse_phase"),
    ("cocycles", "ktwist.cocycles", "cocycle_value", "cocycle_value"),
    ("cocycles", "ktwist.cocycles", "validate_cocycle", "validate_cocycle"),
    ("structure", "ktwist.structure", "is_cofinal", "is_cofinal"),
    ("structure", "ktwist.structure", "per_group", "per_group"),
    ("structure", "ktwist.structure", "periodic_at_offsets", "periodic_at_offsets"),
    ("structure", "ktwist.structure", "is_aperiodic", "is_aperiodic"),
    ("oracle", "ktwist.oracle", "build_partition", "build_partition"),
    ("oracle", "ktwist.oracle", "cylinders_intersect", "cylinders_intersect"),
    ("oracle", "ktwist.oracle", "PartitionP.member", "PartitionP.member"),
    ("oracle", "ktwist.oracle", "sigma_c", "sigma_c"),
    ("oracle", "ktwist.oracle", "compose_elements", "compose_elements"),
    ("oracle", "ktwist.oracle", "omega_from_oracle", "omega_from_oracle"),
    ("oracle", "ktwist.oracle", "suite_cocycle_identity", "suite_cocycle_identity"),
    ("oracle", "ktwist.oracle", "suite_resolution_independence", "suite_resolution_independence"),
    ("oracle", "ktwist.oracle", "suite_conjugation_formula", "suite_conjugation_formula"),
    ("oracle", "ktwist.oracle", "suite_centre_phase_triviality", "suite_centre_phase_triviality"),
    ("oracle", "ktwist.oracle", "CoboundaryBx.verify_box", "CoboundaryBx.verify_box"),
    ("lattices", "ktwist.lattices", "hnf", "hnf"),
    ("lattices", "ktwist.lattices", "annihilator_lattice", "annihilator_lattice"),
    ("lattices", "ktwist.lattices", "kronecker_dense", "kronecker_dense"),
    ("lattices", "ktwist.lattices", "verify_kronecker", "verify_kronecker"),
    ("decider", "ktwist.decider", "decide_simplicity", "decide_simplicity"),
    ("decider", "ktwist.decider", "orbit_phase_generators", "orbit_phase_generators"),
    ("decider", "ktwist.decider", "potential_certificate", "potential_certificate"),
)

FUNCTIONS = tuple(f"{layer}.{label}" for layer, _, _, label in TARGETS)

# Deterministic counts taken from results at the same boundaries.
COUNTS = (
    "oracle.partition.cells",
    "oracle.omega.escalations",
    "oracle.cylinders_intersect.hit_ratio",
    "oracle.suite.checks",
    "structure.per_group.candidates",
)

_SUITES = {"suite_cocycle_identity", "suite_resolution_independence",
           "suite_conjugation_formula", "suite_centre_phase_triviality"}


class Tracer:
    """Installs the wrappers, accumulates per-function calls and self time."""

    def __init__(self):
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n  # inclusive; double-counts recursive calls
        # child-time accumulators of the open spans; the bottom one is the root
        self._stack = [0.0]
        self._tally = {"cells": 0, "omega_open": 0, "omega_builds": 0, "escalations": 0,
                       "cyl_true": 0, "checks": 0, "candidates": 0}
        self._undo = []

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ktwist" or name.startswith("ktwist."))]
        for slot, (_, modname, attr, label) in enumerate(TARGETS):
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, slot, label))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, slot, label)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    def _patch(self, holder, name, original, wrapper) -> None:
        self._undo.append((holder, name, original))
        setattr(holder, name, wrapper)

    def _wrap(self, fn, slot: int, label: str):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack, clock = self._stack, time.perf_counter
        hook = self._hook(label)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[slot] += dt - stack.pop()
                total_s[slot] += dt
                calls[slot] += 1
                stack[-1] += dt
            if hook is not None:
                hook(result)
            return result

        if label == "omega_from_oracle":
            tally = self._tally

            # partitions built by one call beyond its first are depth
            # escalations; a call on a trivial period lattice builds none
            def omega_wrapper(*args, **kwargs):
                before = tally["omega_builds"]
                tally["omega_open"] += 1
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    tally["omega_open"] -= 1
                    tally["escalations"] += max(0, tally["omega_builds"] - before - 1)

            omega_wrapper.__wrapped__ = fn
            return omega_wrapper
        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, label: str):
        tally = self._tally
        if label == "build_partition":
            def hook(part):
                tally["cells"] += len(part.cells)
                if tally["omega_open"]:
                    tally["omega_builds"] += 1
        elif label == "cylinders_intersect":
            def hook(hit):
                tally["cyl_true"] += bool(hit)
        elif label in _SUITES:
            def hook(res):
                tally["checks"] += res.checked
        elif label == "CoboundaryBx.verify_box":
            def hook(res):
                tally["checks"] += res[0]
        elif label == "per_group":
            def hook(res):
                tally["candidates"] += res.candidates_checked
        else:
            return None
        return hook

    # --- reading -------------------------------------------------------------

    def reset(self) -> None:
        for i in range(len(TARGETS)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
            self.total_s[i] = 0.0
        self._stack[:] = [0.0]
        for key in self._tally:
            self._tally[key] = 0

    def raw(self) -> tuple[list[int], list[float], list[float]]:
        """Copies of the per-function calls, self seconds and inclusive seconds."""
        return list(self.calls), list(self.self_s), list(self.total_s)

    def counts(self) -> dict[str, float]:
        t = self._tally
        cyl_calls = self.calls[FUNCTIONS.index("oracle.cylinders_intersect")]
        return {
            "oracle.partition.cells": t["cells"],
            "oracle.omega.escalations": t["escalations"],
            "oracle.cylinders_intersect.hit_ratio": t["cyl_true"] / cyl_calls if cyl_calls else 0.0,
            "oracle.suite.checks": t["checks"],
            "structure.per_group.candidates": t["candidates"],
        }
