"""Command line front end.

Subcommands: validate, analyze, per, omega, simplicity, oracle.  Graph
arguments take a JSON file path or "builtin:NAME".  Structured reports are
canonical JSON carrying the tool version and input digests, never
timestamps, so repeated runs are byte-identical.  --emit writes the
structured document to a file regardless of the console format.
"""

from __future__ import annotations

import argparse
import sys

from .cocycles import PhiOmegaCocycle, validate_cocycle, validate_phi
from .decider import SIMPLE, NONSIMPLE, DecisionBounds, RecheckError, decide_simplicity
from .io import (
    FileFormatError,
    load_cocycle,
    report_document,
    resolve_graph,
    serialize_report,
)
from .kgraph import validate_kgraph
from .oracle import ResolutionError, omega_closedform, omega_from_oracle, run_suites
from .phases import format_phase, format_phase_rows
from .structure import YES, is_aperiodic, is_cofinal, per_group


def _parse_bound(text: str | None):
    """--bound accepts a single radius or one radius per color; None when absent.

    The handlers call this rather than argparse, so a bad value is an input
    error (one `error:` line, exit 1), not a usage error (exit 2).
    """
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",")]
    vals = []
    for p in parts:
        if not p.lstrip("-").isdigit():
            raise FileFormatError(f"bad bound component {p!r}")
        vals.append(int(p))
    if any(v <= 0 for v in vals):
        raise FileFormatError(f"bounds must be positive, got {text!r}")
    return vals[0] if len(vals) == 1 else tuple(vals)


def _emit(args, doc: dict, lines: list[str]) -> None:
    text = serialize_report(doc)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.format == "structured":
        sys.stdout.write(text)
    else:
        for line in lines:
            print(line)


def _inputs(args, gdigest: str, cdigest: str | None) -> dict:
    inputs = {"graph": gdigest}
    if cdigest is not None:
        inputs["cocycle"] = cdigest
    return inputs


def _load_twist(args, g):
    """The cocycle for omega and simplicity, which trust it: a phi_omega
    cocycle's phi must agree on both sides of every square."""
    c, cdigest = load_cocycle(args.cocycle, g)
    if isinstance(c, PhiOmegaCocycle):
        rep = validate_phi(c.phi, g)
        if not rep.ok:
            raise FileFormatError(f"cocycle.phi: {rep.problems[0]}")
    return c, cdigest


def cmd_validate(args) -> int:
    if args.depth < 0:
        raise ValueError(f"depth must be >= 0, got {args.depth}")
    g, gdigest = resolve_graph(args.graph, validate=False)
    rep = validate_kgraph(g)
    body = {"graph": {"ok": rep.ok, "problems": list(rep.problems)}}
    lines = [f"graph: {'OK' if rep.ok else 'INVALID'}"]
    lines += [f"  problem: {p}" for p in rep.problems[:5]]
    code = 0 if rep.ok else 1
    cdigest = None
    if args.cocycle:
        if rep.ok:
            c, cdigest = load_cocycle(args.cocycle, g)
            crep = validate_cocycle(c, g, args.depth)
            body["cocycle"] = {"ok": crep.ok, "problems": list(crep.problems)}
            lines.append(f"cocycle: {'OK' if crep.ok else 'INVALID'} (depth {args.depth})")
            lines += [f"  problem: {p}" for p in crep.problems[:5]]
            if not crep.ok:
                code = 1
        else:
            body["cocycle"] = {"ok": False, "problems": ["graph invalid, cocycle not checked"]}
            lines.append("cocycle: skipped (graph invalid)")
    doc = report_document("validate", _inputs(args, gdigest, cdigest), body)
    _emit(args, doc, lines)
    return code


def cmd_analyze(args) -> int:
    bound = _parse_bound(args.bound)
    g, gdigest = resolve_graph(args.graph)
    cof = is_cofinal(g)
    aper = is_aperiodic(g, bound)
    per_rows = None
    bound_used = aper.bound
    if cof.status == YES:
        per = per_group(g, bound)
        per_rows = [list(r) for r in per.lattice.rows]
        bound_used = per.exhaustive_up_to
    body = {
        "cofinal": cof.status,
        "aperiodic": aper.status,
        "per_basis": per_rows,
        "bounds": {"period": list(bound_used)},
        "certificates": {"cofinal": cof.certificate, "aperiodic": aper.certificate},
    }
    lines = [
        f"cofinal: {cof.status}",
        f"aperiodic: {aper.status}",
        f"per_basis: {per_rows if per_rows is not None else 'not computed (needs certified cofinality)'}",
        f"period bound: {list(bound_used)}",
    ]
    doc = report_document("analyze", _inputs(args, gdigest, None), body)
    _emit(args, doc, lines)
    return 0


def cmd_per(args) -> int:
    bound = _parse_bound(args.bound)
    g, gdigest = resolve_graph(args.graph)
    per = per_group(g, bound)
    body = {
        "rank": per.lattice.rank,
        "periods": [list(r) for r in per.lattice.rows],
        "exhaustive_up_to": list(per.exhaustive_up_to),
        "per_vertex_agreement": per.per_vertex_agreement,
        "candidates_checked": per.candidates_checked,
    }
    lines = [
        f"period lattice rank: {per.lattice.rank}",
        f"basis rows: {[list(r) for r in per.lattice.rows]}",
        f"exhaustive up to: {list(per.exhaustive_up_to)}",
        f"per-vertex agreement: {per.per_vertex_agreement}",
    ]
    doc = report_document("per", _inputs(args, gdigest, None), body)
    _emit(args, doc, lines)
    return 0


def cmd_omega(args) -> int:
    bound = _parse_bound(args.bound)
    g, gdigest = resolve_graph(args.graph)
    c, cdigest = _load_twist(args, g)
    per = per_group(g, bound)
    basis = tuple(per.lattice.rows)
    om = omega_from_oracle(g, c, basis)
    cf = omega_closedform(g, c, basis)
    agree = om.antisymmetrization() == cf.antisymmetrization()
    body = {
        "generators": [list(r) for r in basis],
        "rank": om.rank,
        "rows": format_phase_rows(om.rows),
        "antisymmetrization": format_phase_rows(om.antisymmetrization()),
        "closed_form": {
            "agrees": agree,
            "antisymmetrization": format_phase_rows(cf.antisymmetrization()),
        },
    }
    lines = [f"period generators: {[list(r) for r in basis]}"]
    for i in range(om.rank):
        for j in range(i):
            lines.append(f"omega[{i + 1}][{j + 1}] = {format_phase(om.rows[i][j])}")
    lines.append(f"closed form agrees: {agree}")
    if not agree:
        lines.append("  flag: closed-form antisymmetrization differs; oracle value is authoritative")
    doc = report_document("omega", _inputs(args, gdigest, cdigest), body)
    _emit(args, doc, lines)
    return 0


def cmd_simplicity(args) -> int:
    bound = _parse_bound(args.bound)
    g, gdigest = resolve_graph(args.graph)
    c, cdigest = _load_twist(args, g)
    orbit = bound if isinstance(bound, int) else (max(bound) if bound else 4)
    bounds = DecisionBounds(period=bound, orbit=orbit)
    report = decide_simplicity(g, c, bounds)
    body = report.to_jsonable()
    lines = [f"verdict: {report.verdict.status}"]
    if report.verdict.certificate is not None:
        lines.append(f"certificate: {report.verdict.certificate.get('kind', '?')}")
    for note in report.notes:
        lines.append(f"note: {note}")
    doc = report_document("simplicity", _inputs(args, gdigest, cdigest), body)
    _emit(args, doc, lines)
    return 0 if report.verdict.status in (SIMPLE, NONSIMPLE) else 2


def cmd_oracle(args) -> int:
    g, gdigest = resolve_graph(args.graph)
    c, cdigest = load_cocycle(args.cocycle, g)
    suites, notes, _, _ = run_suites(g, c, args.depth, args.max_triples)
    body = {"suites": [s.to_jsonable() for s in suites], "notes": notes}
    lines = []
    for s in suites:
        status = "pass" if s.ok else "FAIL"
        lines.append(f"suite {s.name}: {status} ({s.checked} checks)")
        for vdump in s.violations[:3]:
            lines.append(f"  counterexample: {vdump}")
    for note in notes:
        lines.append(f"note: {note}")
    doc = report_document("oracle", _inputs(args, gdigest, cdigest), body)
    _emit(args, doc, lines)
    return 0 if all(s.ok for s in suites) else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ktwist",
        description="exact simplicity analysis for twisted algebras of finite k-colored graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, cocycle: str | None, bound: bool, depth: int | None):
        sp.add_argument("graph", help="graph JSON file or builtin:NAME")
        if cocycle == "required":
            sp.add_argument("--cocycle", required=True, help="cocycle JSON file")
        elif cocycle == "optional":
            sp.add_argument("--cocycle", help="cocycle JSON file")
        if bound:
            sp.add_argument("--bound", default=None,
                            help="search radius, one int or comma list per color")
        if depth is not None:
            sp.add_argument("--depth", type=int, default=depth, help="truncation depth")
        sp.add_argument("--format", choices=("human", "structured"), default="human")
        sp.add_argument("--emit", help="write the structured report to this file")

    sp = sub.add_parser("validate", help="check a graph file, optionally a cocycle file")
    common(sp, "optional", False, 2)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("analyze", help="cofinality, aperiodicity, period basis")
    common(sp, None, True, None)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("per", help="period lattice of the shift")
    common(sp, None, True, None)
    sp.set_defaults(func=cmd_per)

    sp = sub.add_parser("omega", help="bicharacter on the period lattice")
    common(sp, "required", True, None)
    sp.set_defaults(func=cmd_omega)

    sp = sub.add_parser("simplicity", help="decide simplicity with certificates")
    common(sp, "required", True, None)
    sp.set_defaults(func=cmd_simplicity)

    sp = sub.add_parser("oracle", help="run the brute-force property suites")
    common(sp, "required", False, 2)
    sp.add_argument("--max-triples", type=int, default=1500,
                    help="cap on sampled triples per suite")
    sp.set_defaults(func=cmd_oracle)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ResolutionError) as err:  # FileFormatError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecheckError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
