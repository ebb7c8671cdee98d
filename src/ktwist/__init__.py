"""Exact simplicity analysis for twisted algebras of finite k-colored graphs.

Everything runs over the rationals extended by declared symbolic
irrationals; verdicts carry machine-checkable certificates where the
underlying criterion admits one.
"""

__version__ = "0.1.0"

from .cocycles import (
    BicharacterTable,
    OneCocyclePhi,
    PhiOmegaCocycle,
    PullbackCocycle,
    TableCocycle,
    cocycle_value,
    phi_tilde,
    validate_cocycle,
)
from .decider import (
    NONSIMPLE,
    SIMPLE,
    RecheckError,
    SimplicityReport,
    decide_simplicity,
)
from .groupoid import (
    GroupoidElement,
    InducedCocycle,
    isotropy_element,
    omega_from_oracle,
    r_sigma,
    sigma_c,
)
from .io import (
    FileFormatError,
    load_cocycle,
    loads_cocycle,
    loads_graph,
    resolve_graph,
    serialize_cocycle,
    serialize_graph,
)
from .kgraph import (
    Edge,
    EventuallyPeriodicPath,
    KGraph,
    Path,
    Square,
    builtin,
    canonical_tail,
    validate_kgraph,
)
from .lattices import (
    LatticeBasis,
    annihilator_lattice,
    integral_pairing_lattice,
    kronecker_dense,
    verify_kronecker,
    z_omega_of,
)
from .oracle import omega_closedform
from .phases import PhaseExponent, format_phase, parse_phase
from .structure import (
    NO,
    UNKNOWN,
    YES,
    is_aperiodic,
    is_cofinal,
    per_group,
)

__all__ = [
    "__version__",
    "BicharacterTable",
    "OneCocyclePhi",
    "PhiOmegaCocycle",
    "PullbackCocycle",
    "TableCocycle",
    "cocycle_value",
    "phi_tilde",
    "validate_cocycle",
    "NONSIMPLE",
    "SIMPLE",
    "RecheckError",
    "SimplicityReport",
    "decide_simplicity",
    "z_omega_of",
    "FileFormatError",
    "load_cocycle",
    "loads_cocycle",
    "loads_graph",
    "resolve_graph",
    "serialize_cocycle",
    "serialize_graph",
    "Edge",
    "EventuallyPeriodicPath",
    "KGraph",
    "Path",
    "Square",
    "builtin",
    "canonical_tail",
    "validate_kgraph",
    "LatticeBasis",
    "annihilator_lattice",
    "integral_pairing_lattice",
    "kronecker_dense",
    "verify_kronecker",
    "GroupoidElement",
    "InducedCocycle",
    "isotropy_element",
    "omega_closedform",
    "omega_from_oracle",
    "r_sigma",
    "sigma_c",
    "PhaseExponent",
    "format_phase",
    "parse_phase",
    "NO",
    "UNKNOWN",
    "YES",
    "is_aperiodic",
    "is_cofinal",
    "per_group",
]
