"""The package's layering and its exports, read from the source."""

import ast
import os

import ktwist

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ktwist")

EXPORTS = [
    "__version__",
    "BicharacterTable", "OneCocyclePhi", "PhiOmegaCocycle", "PullbackCocycle", "TableCocycle",
    "cocycle_value", "phi_tilde", "validate_cocycle",
    "NONSIMPLE", "SIMPLE", "RecheckError", "SimplicityReport", "decide_simplicity", "z_omega_of",
    "FileFormatError", "load_cocycle", "loads_cocycle", "loads_graph", "resolve_graph",
    "serialize_cocycle", "serialize_graph",
    "Edge", "EventuallyPeriodicPath", "KGraph", "Path", "Square", "builtin", "canonical_tail",
    "validate_kgraph",
    "LatticeBasis", "annihilator_lattice", "integral_pairing_lattice", "kronecker_dense",
    "verify_kronecker",
    "GroupoidElement", "InducedCocycle", "isotropy_element", "omega_closedform", "omega_from_oracle",
    "r_sigma", "sigma_c",
    "PhaseExponent", "format_phase", "parse_phase",
    "NO", "UNKNOWN", "YES", "is_aperiodic", "is_cofinal", "per_group",
]


def package_imports(module: str) -> set[str]:
    """The ktwist modules that src/ktwist/<module>.py imports from."""
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import degrees
                out.update(alias.name for alias in node.names)
            elif node.level == 1:
                out.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("ktwist."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("ktwist."))
    return out


def test_the_groupoid_model_sits_below_the_suites_and_the_decider():
    # the model may not reach up into the search, the suites or the
    # commands, and the decider reads the model without the suites
    assert package_imports("groupoid")
    assert not package_imports("groupoid") & {"oracle", "structure", "decider", "lattices", "io", "cli"}
    assert "groupoid" in package_imports("decider")
    assert "oracle" not in package_imports("decider")
    # the package exports the same 51 names, and each one resolves
    assert ktwist.__all__ == EXPORTS
    for name in EXPORTS:
        assert hasattr(ktwist, name), name
