"""Workloads of the ktwist benchmark: seeded inputs and their expected answers.

Each workload is a list of items.  An item is one `ktwist` command line
(run in-process through `ktwist.cli.main` with `--format structured`)
plus the answer its structured report and exit code must give.  The
answers come from the README and the acceptance criteria, from analytic
results, or from this module's own evaluation of the inputs it generated;
none of them is computed by ktwist.

This module never imports ktwist: it runs inside `setup_inputs.py`, and
the checks must not share code with the program they check.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("decide", "oracle", "validate")

WHY = {
    "decide": "time to verdict on the 7 bundled pairings plus C3xT1, C3xT2, T3; "
    "per_group, partition and orbit-phase work, few sigma_c calls",
    "oracle": "ktwist oracle --depth 2 on T2, B2xT1 and B2; about 95% of the time is "
    "sigma_c over eventually periodic paths",
    "validate": "2-cocycle identity on finite paths only: B2xT3, two random 2-graphs "
    "and a corrupted T2 table; cocycle_value and phase arithmetic",
}

# Oracle items left out because one pass would not fit a run (measured on
# 2 CPUs, Python 3.11.7, before this benchmark existed).
EXCLUDED = (
    {"workload": "oracle", "item": "B2xT3+b2t3 --depth 2", "measured_s": 134},
    {"workload": "oracle", "item": "random 2x2 2-graph --depth 2", "measured_s": 198},
)

# Which per-layer metrics should move which end-to-end metric on which
# workload; a change that claims a gain names its row here.
EXPECTED_MOVES = (
    {"layer": "io", "functions": ["resolve_graph", "load_cocycle", "serialize_report"],
     "moves": [["item_geomean_s", "decide"], ["item_geomean_s", "validate"]],
     "note": "fixed per-item cost on decide; table parsing on the validate table item"},
    {"layer": "kgraph", "functions": ["KGraph.compose", "KGraph.factorize", "KGraph.paths_from",
                                      "EventuallyPeriodicPath.segment_to",
                                      "EventuallyPeriodicPath.shift", "EventuallyPeriodicPath.eq",
                                      "validate_kgraph", "canonical_tail"],
     "moves": [["wall_s", "oracle"], ["item_max_s", "oracle"], ["item_max_s", "decide"]],
     "flat": [["wall_s", "validate"]],
     "note": "decide item_max_s through the B2xT3 partition"},
    {"layer": "phases", "functions": ["PhaseExponent.init", "PhaseExponent.add",
                                      "PhaseExponent.sub", "PhaseExponent.scaled", "parse_phase"],
     "moves": [["wall_s", "validate"], ["wall_s", "oracle"], ["item_max_s", "decide"]],
     "note": "validate first, oracle and decide item_max_s second"},
    {"layer": "cocycles", "functions": ["cocycle_value", "validate_cocycle"],
     "moves": [["wall_s", "validate"], ["wall_s", "oracle"]]},
    {"layer": "structure", "functions": ["is_cofinal", "per_group", "periodic_at_offsets",
                                         "is_aperiodic"],
     "moves": [["item_max_s", "decide"]], "note": "B2xT3 and C3xT2"},
    {"layer": "oracle", "functions": ["build_partition", "cylinders_intersect",
                                      "PartitionP.member", "sigma_c", "compose_elements",
                                      "omega_from_oracle", "suite_cocycle_identity",
                                      "suite_resolution_independence",
                                      "suite_conjugation_formula",
                                      "suite_centre_phase_triviality", "CoboundaryBx.verify_box"],
     "moves": [["wall_s", "oracle"], ["item_max_s", "oracle"], ["item_max_s", "decide"]],
     "note": "build_partition also moves decide item_max_s; decide should not show a "
             "sigma_c gain"},
    {"layer": "lattices", "functions": ["hnf", "annihilator_lattice", "kronecker_dense",
                                        "verify_kronecker"],
     "moves": [["item_geomean_s", "decide"]]},
    {"layer": "decider", "functions": ["decide_simplicity", "orbit_phase_generators",
                                       "potential_certificate"],
     "moves": [["item_max_s", "decide"]]},
)

# --- cocycle files -----------------------------------------------------------
# The six fixture cocycles, written out by the benchmark itself so that the
# program only ever reads generated files.

THETA = "0 + 1*theta"


def _pullback(rows, symbols):
    return {"symbols": symbols, "theta_matrix": rows, "variant": "pullback"}


def _phi_omega(l, phi, omega, symbols):
    return {"l": l, "omega": omega, "phi": phi, "symbols": symbols, "variant": "phi_omega"}


def _zero_rows(n):
    return [["0"] * n for _ in range(n)]


def _twist_last(k):
    """Pullback matrix with `theta` only in entry [k-1][k-2]."""
    rows = _zero_rows(k)
    rows[k - 1][k - 2] = THETA
    return _pullback(rows, ["theta"])


FIXED_COCYCLES = {
    "pullback_theta": _twist_last(2),
    "pullback_half": _pullback([["0", "0"], ["1/2", "0"]], []),
    "pullback_b2": _pullback([[THETA]], ["theta"]),
    "phi_theta": _phi_omega(1, {"e": ["0"], "f": [THETA], "t1_v": ["0"]}, [["0"]], ["theta"]),
    "phi_zero": _phi_omega(1, {"e": ["0"], "f": ["0"], "t1_v": ["0"]}, [["0"]], []),
    "b2t3": _phi_omega(
        3,
        {"e": ["0", "0", "0"], "f": [THETA, "0", "0"], "t1_v": ["0", "0", "0"],
         "t2_v": ["0", "0", "0"], "t3_v": ["0", "0", "0"]},
        [["0", "0", "0"], ["0", "0", "0"], ["0", "0 + 1*rho", "0"]],
        ["rho", "theta"],
    ),
    "twist_last_2": _twist_last(2),
    "twist_last_3": _twist_last(3),
}

I2 = [[1, 0], [0, 1]]
I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

# (graph, cocycle, status, certificate kind, period lattice, centre lattice);
# None skips a lattice check.  Rows 1-6 are acceptance criteria 1-6, B2 is
# the Cuntz algebra O_2 (aperiodic, so simple), and the last three follow
# from the period lattice of C3 x T_l and the antisymmetrised twist.
DECIDE = (
    ("T2", "pullback_theta", "CERTIFIED_SIMPLE", "z_omega_trivial", I2, []),
    ("T2", "pullback_half", "CERTIFIED_NONSIMPLE", "central_period_obstruction", I2,
     [[2, 0], [0, 2]]),
    ("B2xT1", "phi_theta", "CERTIFIED_SIMPLE", "kronecker_dense", [[0, 1]], [[1]]),
    ("B2xT1", "phi_zero", "CERTIFIED_NONSIMPLE", "orbit_potential", [[0, 1]], None),
    ("B2xT3", "b2t3", "CERTIFIED_SIMPLE", "kronecker_dense",
     [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [[1, 0, 0]]),
    ("DISJOINT2", "pullback_b2", "CERTIFIED_NONSIMPLE", "not_cofinal", None, None),
    ("B2", "pullback_b2", "CERTIFIED_SIMPLE", "z_omega_trivial", [], []),
    ("C3xT1", "twist_last_2", "CERTIFIED_SIMPLE", "z_omega_trivial", [[3, 0], [0, 1]], []),
    ("C3xT2", "twist_last_3", "CERTIFIED_NONSIMPLE", "central_period_obstruction",
     [[3, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0]]),
    ("T3", "twist_last_3", "CERTIFIED_NONSIMPLE", "central_period_obstruction", I3, [[1, 0, 0]]),
)

_FULL_SUITES = ["cocycle_identity", "resolution_independence", "conjugation_formula",
                "centre_phase_triviality", "coboundary_box"]
# B2 has a trivial period lattice, so the centre and coboundary suites are vacuous.
ORACLE = (
    ("T2", "pullback_theta", _FULL_SUITES),
    ("B2xT1", "phi_theta", _FULL_SUITES),
    ("B2", "pullback_b2", _FULL_SUITES[:3]),
)
ORACLE_DEPTH = 2

# Random single-vertex 2-graphs for `validate`: (red loops, blue loops, depth).
RANDOM_GRAPHS = ((2, 2, 5), (3, 3, 4))
TABLE_BOUND = 8
TABLE_DEPTH = 8

# --- seeded generation -------------------------------------------------------


def canonical_json(obj) -> str:
    """Sorted-key compact JSON; compact keeps the 6561-entry table cheap to write."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def phase_literal(rat: Fraction, theta: int) -> str:
    """A phase literal in the file syntax: rational part, then the theta term."""
    out = str(rat)
    if theta:
        out += f" + {theta}*theta"
    return out


def random_theta(rng: random.Random, k: int) -> list[list[tuple[Fraction, int]]]:
    """A k x k pullback matrix: each entry a random non-integer rational plus a
    random nonzero multiple of theta.

    Every entry has both terms, so the seed changes the values but not the
    amount of phase arithmetic an item needs.
    """
    rows = []
    for _ in range(k):
        row = []
        for _ in range(k):
            q = rng.choice((2, 3, 4, 5, 6))
            rat = Fraction(rng.choice((-1, 1)) * rng.randrange(1, q), q)
            row.append((rat, rng.choice((-2, -1, 1, 2))))
        rows.append(row)
    return rows


def theta_literals(theta) -> list[list[str]]:
    return [[phase_literal(r, t) for r, t in row] for row in theta]


def random_two_graph(rng: random.Random, a: int, b: int, name: str) -> dict:
    """One vertex, `a` red and `b` blue loops, squares from a random bijection.

    With two colours there is no hexagon condition, so every bijection from
    the red-blue pairs onto the blue-red pairs is a valid 2-graph.
    """
    reds = [f"r{i}" for i in range(a)]
    blues = [f"s{j}" for j in range(b)]
    targets = [(g, f) for g in blues for f in reds]
    rng.shuffle(targets)
    sources = [(f, g) for f in reds for g in blues]
    return {
        "edges": [{"color": 1, "id": e, "range": "v", "source": "v"} for e in reds]
        + [{"color": 2, "id": e, "range": "v", "source": "v"} for e in blues],
        "k": 2,
        "name": name,
        "squares": [
            {"from": [f, g], "ij": [1, 2], "to": [gp, fp]}
            for (f, g), (gp, fp) in zip(sources, targets)
        ],
        "vertices": ["v"],
    }


def _t2_word(m) -> list[str]:
    return ["a"] * m[0] + ["b"] * m[1]


def _t2_repr(m) -> str:
    """How ktwist prints the T2 path of degree m (range vertex v)."""
    return "Path[" + (".".join(_t2_word(m)) if any(m) else "(v)") + "]"


def _degrees(cap: int):
    return [(i, j) for i in range(cap + 1) for j in range(cap + 1)]




def corrupted_t2_table(rng: random.Random):
    """The T2 pullback table to TABLE_BOUND with exactly one entry corrupted.

    Returns the cocycle document and the triples on which the 2-cocycle
    identity must fail, written the way ktwist prints them.  The corrupted
    pair has both degrees nonzero and small, so the validation depth reaches
    it; its value is shifted by an odd-denominator rational, so two uses of
    it in one identity fail unless they cancel.
    """
    theta = random_theta(rng, 2)
    # m^T Theta n with integer arithmetic over the common denominator
    den = math.lcm(*(r.denominator for row in theta for r, _ in row))
    num = [[r.numerator * (den // r.denominator) for r, _ in row] for row in theta]
    small = [m for m in _degrees(2) if 1 <= sum(m) <= 2]
    bad = (rng.choice(small), rng.choice(small))
    delta = Fraction(rng.choice((1, 2)), rng.choice((3, 5, 7)))
    entries = []
    for m in _degrees(TABLE_BOUND):
        for n in _degrees(TABLE_BOUND):
            pairs = [(i, j) for i in range(2) for j in range(2) if m[i] and n[j]]
            rat = Fraction(sum(m[i] * n[j] * num[i][j] for i, j in pairs) % den, den)
            irr = sum(m[i] * n[j] * theta[i][j][1] for i, j in pairs)
            if (m, n) == bad:
                rat = (rat + delta) % 1
            entries.append({
                "mu": {"range": "v", "word": _t2_word(m)},
                "nu": {"range": "v", "word": _t2_word(n)},
                "value": phase_literal(rat, irr),
            })
    doc = {"bound": [TABLE_BOUND, TABLE_BOUND], "entries": entries,
           "symbols": ["theta"], "variant": "table"}

    # The identity on (lam, mu, nu) compares c(mu,nu) + c(lam,mu.nu) with
    # c(lam,mu) + c(lam.mu,nu); both sides of `bad` are nonzero, and pairs
    # with a vertex side are never looked up.
    def uses(p, q):
        return int((p, q) == bad)

    failing = []
    reach = [m for m in _degrees(TABLE_DEPTH) if sum(m) <= TABLE_DEPTH]
    for lam in reach:
        for mu in reach:
            if sum(lam) + sum(mu) > TABLE_DEPTH:
                continue
            for nu in reach:
                if sum(lam) + sum(mu) + sum(nu) > TABLE_DEPTH:
                    continue
                mn = (mu[0] + nu[0], mu[1] + nu[1])
                lm = (lam[0] + mu[0], lam[1] + mu[1])
                if uses(mu, nu) + uses(lam, mn) != uses(lam, mu) + uses(lm, nu):
                    failing.append(", ".join(_t2_repr(x) for x in (lam, mu, nu)))
    return doc, sorted(failing)


def generate(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the workload's input files under `out` and return its items.

    Items name their files relative to `out`, so they run with `out` as the
    working directory.  The same seed gives byte-identical files and the
    same item list.  The item order is shuffled by the seed; every item
    starts from cold per-graph caches, so order changes no answer.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, doc: dict) -> str:
        """Write one input file; items name it relative to `out`."""
        (out / f"{name}.json").write_text(canonical_json(doc), encoding="utf-8")
        return f"{name}.json"

    items = []
    if workload == "decide":
        for gname, cname, status, kind, periods, z in DECIDE:
            items.append({
                "name": f"{gname}+{cname}",
                "argv": ["simplicity", f"builtin:{gname}", "--cocycle",
                         write(cname, FIXED_COCYCLES[cname])],
                "expect": {"exit": 0, "status": status, "kind": kind,
                           "periods": periods, "z_omega": z},
            })
    elif workload == "oracle":
        for gname, cname, suites in ORACLE:
            items.append({
                "name": f"{gname}+{cname}",
                "argv": ["oracle", f"builtin:{gname}", "--cocycle",
                         write(cname, FIXED_COCYCLES[cname]), "--depth", str(ORACLE_DEPTH)],
                "expect": {"exit": 0, "suites": suites},
            })
    else:
        ok = {"exit": 0, "graph_ok": True, "cocycle_ok": True}
        items.append({
            "name": "B2xT3+b2t3@5",
            "argv": ["validate", "builtin:B2xT3", "--cocycle",
                     write("b2t3", FIXED_COCYCLES["b2t3"]), "--depth", "5"],
            "expect": ok,
        })
        for a, b, depth in RANDOM_GRAPHS:
            name = f"R{a}x{b}"
            graph = write(name, random_two_graph(rng, a, b, name))
            cocycle = write(f"{name}_theta", _pullback(theta_literals(random_theta(rng, 2)),
                                                      ["theta"]))
            items.append({
                "name": f"{name}+pullback@{depth}",
                "argv": ["validate", graph, "--cocycle", cocycle, "--depth", str(depth)],
                "expect": ok,
            })
        doc, failing = corrupted_t2_table(rng)
        items.append({
            "name": f"T2+table{TABLE_BOUND}@{TABLE_DEPTH}",
            "argv": ["validate", "builtin:T2", "--cocycle", write("t2_table", doc),
                     "--depth", str(TABLE_DEPTH)],
            "expect": {"exit": 1, "graph_ok": True, "cocycle_ok": False,
                       "failing_triples": failing},
        })
    for item in items:
        item["argv"] += ["--format", "structured"]
    rng.shuffle(items)
    return items


# --- checking ----------------------------------------------------------------


def _hnf_key(rows) -> tuple:
    """Row Hermite normal form of an integer lattice basis, as a comparable key."""
    m = [list(r) for r in rows if any(r)]
    out = []
    col = 0
    width = len(m[0]) if m else 0
    while m and col < width:
        nz = [r for r in m if r[col]]
        if not nz:
            col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            pivot = nz[0]
            for r in nz[1:]:
                q = r[col] // pivot[col]
                r[:] = [x - q * y for x, y in zip(r, pivot)]
            nz = [r for r in nz if r[col]]
        pivot = nz[0]
        if pivot[col] < 0:
            pivot[:] = [-x for x in pivot]
        m = [r for r in m if r is not pivot and any(r)]
        for r in out:
            q = r[col] // pivot[col]
            r[:] = [x - q * y for x, y in zip(r, pivot)]
        out.append(pivot)
        col += 1
    return tuple(tuple(r) for r in out)


_PROBLEM_RE = re.compile(r"^cocycle identity fails on triple \((.*)\)$")


def check(item: dict, code: int, text: str) -> str | None:
    """None when the report matches the item's expected answer, else why not."""
    want = item["expect"]
    if code != want["exit"]:
        return f"exit code {code}, expected {want['exit']}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        return f"structured report is not JSON ({err})"
    if "status" in want:
        verdict = doc.get("verdict", {})
        got = (verdict.get("status"), (verdict.get("certificate") or {}).get("kind"))
        if got != (want["status"], want["kind"]):
            return f"verdict {got}, expected {(want['status'], want['kind'])}"
        for key, found in (("periods", doc.get("periods", {}).get("lattice")),
                           ("z_omega", doc.get("z_omega"))):
            if want[key] is not None and (found is None or _hnf_key(found) != _hnf_key(want[key])):
                return f"{key} lattice {found}, expected {want[key]}"
        return None
    if "suites" in want:
        suites = doc.get("suites", [])
        names = [s.get("name") for s in suites]
        if names != want["suites"]:
            return f"suites {names}, expected {want['suites']}"
        bad = [s["name"] for s in suites if not s.get("ok")]
        return f"suites failed: {bad}" if bad else None
    graph_ok = doc.get("graph", {}).get("ok")
    cocycle = doc.get("cocycle", {})
    if (graph_ok, cocycle.get("ok")) != (want["graph_ok"], want["cocycle_ok"]):
        return f"graph/cocycle ok = {(graph_ok, cocycle.get('ok'))}, expected " \
               f"{(want['graph_ok'], want['cocycle_ok'])}"
    if "failing_triples" in want:
        problems = cocycle.get("problems", [])
        found = sorted(_PROBLEM_RE.sub(r"\1", p) for p in problems)
        if found != want["failing_triples"]:
            return f"{len(found)} problems, expected failures on exactly " \
                   f"{len(want['failing_triples'])} triples through the corrupted entry"
    return None
