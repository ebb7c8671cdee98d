"""Command line front end: one command table and one report path.

Each row of `COMMANDS` is a subcommand; its handler returns the exit code,
input digests, report body and human lines, and `main` alone writes the
report.  Graph arguments take a JSON file path or "builtin:NAME".
Structured reports are canonical JSON with the tool version and input
digests, never timestamps, so repeated runs are byte-identical.  --emit
writes the structured document to a file whatever the console format.
"""

from __future__ import annotations

import argparse
import re
import sys

from .cocycles import PhiOmegaCocycle, validate_cocycle, validate_phi
from .decider import SIMPLE, NONSIMPLE, RecheckError, decide_simplicity
from .groupoid import InducedCocycle, ResolutionError, omega_from_oracle
from .io import (
    FileFormatError,
    load_cocycle,
    report_document,
    resolve_graph,
    serialize_report,
)
from .kgraph import validate_kgraph
from .oracle import omega_closedform, run_suites
from .phases import format_phase, format_phase_rows
from .structure import YES, is_aperiodic, is_cofinal, per_group, period_box_notes

Report = tuple[int, dict, dict, list[str]]  # exit code, inputs, body, human lines


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
        if not re.fullmatch(r"-?[0-9]+", p):
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


def _load_twist(args, g):
    """The cocycle for omega and simplicity, which trust it: a phi_omega
    cocycle's phi must agree on both sides of every square."""
    c, cdigest = load_cocycle(args.cocycle, g)
    if isinstance(c, PhiOmegaCocycle):
        rep = validate_phi(c.phi, g)
        if not rep.ok:
            raise FileFormatError(f"cocycle.phi: {rep.problems[0]}")
    return c, cdigest


SHOWN_PROBLEMS = 5


def _problem_lines(problems) -> list[str]:
    """The first SHOWN_PROBLEMS problems, then how many were left out."""
    lines = [f"  problem: {p}" for p in problems[:SHOWN_PROBLEMS]]
    if len(problems) > SHOWN_PROBLEMS:
        lines.append(f"  ... {len(problems) - SHOWN_PROBLEMS} more problems not shown (see --format structured)")
    return lines


def cmd_validate(args) -> Report:
    if args.depth < 0:
        raise ValueError(f"depth must be >= 0, got {args.depth}")
    g, gdigest = resolve_graph(args.graph, validate=False)
    rep = validate_kgraph(g)
    body = {"graph": {"ok": rep.ok, "problems": list(rep.problems)}}
    lines = [f"graph: {'OK' if rep.ok else 'INVALID'}"]
    lines += _problem_lines(rep.problems)
    code = 0 if rep.ok else 1
    inputs = {"graph": gdigest}
    if args.cocycle:
        if rep.ok:
            c, cdigest = load_cocycle(args.cocycle, g)
            inputs["cocycle"] = cdigest
            crep = validate_cocycle(c, g, args.depth)
            body["cocycle"] = {"ok": crep.ok, "depth": args.depth, "problems": list(crep.problems)}
            if crep.triples is not None:
                body["cocycle"]["triples"] = crep.triples
            lines.append(f"cocycle: {'OK' if crep.ok else 'INVALID'} (depth {args.depth})")
            lines += _problem_lines(crep.problems)
            if not crep.ok:
                code = 1
        else:
            body["cocycle"] = {"ok": False, "problems": ["graph invalid, cocycle not checked"]}
            lines.append("cocycle: skipped (graph invalid)")
    return code, inputs, body, lines


def cmd_analyze(args) -> Report:
    bound = _parse_bound(args.bound)
    g, gdigest = resolve_graph(args.graph)
    cof = is_cofinal(g)
    aper = is_aperiodic(g, bound)
    per_rows = None
    why = "not computed (needs certified cofinality)"
    if cof.status == YES:
        per = per_group(g, bound)
        if per.per_vertex_agreement:
            per_rows = [list(r) for r in per.lattice.rows]
        else:
            why = "not computed (the periods differ from vertex to vertex)"
    body = {
        "cofinal": cof.status,
        "aperiodic": aper.status,
        "per_basis": per_rows,
        "bounds": {"period": list(aper.bound)},
        "certificates": {"cofinal": cof.certificate, "aperiodic": aper.certificate},
    }
    lines = [
        f"cofinal: {cof.status}",
        f"aperiodic: {aper.status}",
        f"per_basis: {per_rows if per_rows is not None else why}",
        f"period bound: {list(aper.bound)}",
    ]
    return 0, {"graph": gdigest}, body, lines


def cmd_per(args) -> Report:
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
    return 0, {"graph": gdigest}, body, lines


def cmd_omega(args) -> Report:
    bound = _parse_bound(args.bound)
    g, gdigest = resolve_graph(args.graph)
    c, cdigest = _load_twist(args, g)
    per = per_group(g, bound)
    if not per.per_vertex_agreement:
        raise ValueError(
            "the periods differ from vertex to vertex; their intersection is not the period group"
        )
    basis = tuple(per.lattice.rows)
    om = omega_from_oracle(g, InducedCocycle(c), basis)
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
    notes = period_box_notes(g, per.exhaustive_up_to)
    if notes:
        body["notes"] = list(notes)
    lines.extend(f"note: {note}" for note in notes)
    return 0, {"graph": gdigest, "cocycle": cdigest}, body, lines


def cmd_simplicity(args) -> Report:
    bound = _parse_bound(args.bound)
    g, gdigest = resolve_graph(args.graph)
    c, cdigest = _load_twist(args, g)
    report = decide_simplicity(g, c, bound)
    body = report.to_jsonable()
    lines = [f"verdict: {report.verdict.status}"]
    if report.verdict.certificate is not None:
        lines.append(f"certificate: {report.verdict.certificate.get('kind', '?')}")
    lines.extend(f"note: {note}" for note in report.notes)
    code = 0 if report.verdict.status in (SIMPLE, NONSIMPLE) else 2
    return code, {"graph": gdigest, "cocycle": cdigest}, body, lines


def cmd_oracle(args) -> Report:
    g, gdigest = resolve_graph(args.graph)
    c, cdigest = load_cocycle(args.cocycle, g)
    suites, notes, _, _ = run_suites(g, c, args.depth, args.max_triples)
    body = {"suites": [s.to_jsonable() for s in suites], "notes": notes}
    lines = []
    for s in suites:
        if s.stopped is not None:
            lines.append(f"suite {s.name}: STOPPED ({s.stopped})")
            continue
        status = "pass" if s.ok else "FAIL"
        lines.append(f"suite {s.name}: {status} ({s.checked} checks)")
        for vdump in s.violations[:3]:
            lines.append(f"  counterexample: {vdump}")
    lines.extend(f"note: {note}" for note in notes)
    code = 0 if all(s.ok for s in suites) else 1
    return code, {"graph": gdigest, "cocycle": cdigest}, body, lines


# name, handler, help, --cocycle (None, "optional" or "required"), whether
# it takes --bound, and the --depth default (None: no --depth)
COMMANDS = (
    ("validate", cmd_validate, "check a graph file, optionally a cocycle file", "optional", False, 2),
    ("analyze", cmd_analyze, "cofinality, aperiodicity, period basis", None, True, None),
    ("per", cmd_per, "period lattice of the shift", None, True, None),
    ("omega", cmd_omega, "bicharacter on the period lattice", "required", True, None),
    ("simplicity", cmd_simplicity, "decide simplicity with certificates", "required", True, None),
    ("oracle", cmd_oracle, "run the brute-force property suites", "required", False, 2),
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ktwist",
        description="exact simplicity analysis for twisted algebras of finite k-colored graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, handler, help_text, cocycle, bound, depth in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=handler)
        sp.add_argument("graph", help="graph JSON file or builtin:NAME")
        if cocycle is not None:
            sp.add_argument("--cocycle", required=cocycle == "required", help="cocycle JSON file")
        if bound:
            sp.add_argument("--bound", default=None,
                            help="period search radius, one int or comma list per color")
        if depth is not None:
            sp.add_argument("--depth", type=int, default=depth, help="truncation depth")
        sp.add_argument("--format", choices=("human", "structured"), default="human")
        sp.add_argument("--emit", help="write the structured report to this file")
    sub.choices["oracle"].add_argument("--max-triples", type=int, default=1500,
                                       help="cap on sampled triples per suite")
    return p


# Built once per process: parsing leaves the parser as it was, so a caller
# that runs many commands in one process builds it only once.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code, inputs, body, lines = args.func(args)
        # inside the try: an unwritable --emit path is an input error too
        _emit(args, report_document(args.command, inputs, body), lines)
        return code
    except (ValueError, OSError, ResolutionError) as err:  # FileFormatError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecheckError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
