"""Command-line front end: batch calculator over the core modules.

Every subcommand computes one JSON-compatible document.  `run` prints it with
--format json, or renders it as aligned text (the default) with the
subcommand's renderer, so both formats report the same values.  Exit
statuses: 0 success, 1 domain errors (unreadable or malformed input
documents, infeasible normalization, invalid weights), 2 usage and
argument-parse errors.  Reports go to stdout, diagnostics to stderr.  Output
is deterministic: identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import branched_surface as bs
from . import multicurve as mc
from . import seifert
from .branched_surface import load_surface
from .farey import (
    greatest_neighbor_below,
    intersection_number,
    is_edge,
    mediant,
    parse_slope,
    shortest_increasing_path,
    successor,
)


def _arg(parse, message: str | None = None):
    """An argparse type that reports a parse error as a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                message.format(text) if message else str(exc)
            ) from exc

    return convert


# action -> (help, slope flags, call).  The document holds the flags and
# {action: result}; the text is the result.  The lambdas look the Farey
# functions up when called, so the names stay patchable on this module.
_FAREY = {
    "path": (
        "shortest increasing path",
        ("from", "to"),
        lambda a, b: [str(v) for v in shortest_increasing_path(a, b)],
    ),
    "successor": ("greatest neighbor above", ("of",), lambda a: str(successor(a))),
    "mediant": ("Farey subdivision of an edge", ("a", "b"), lambda a, b: str(mediant(a, b))),
    "edge": ("test the edge relation", ("a", "b"), lambda a, b: is_edge(a, b)),
    "intersection": (
        "geometric intersection number",
        ("a", "b"),
        lambda a, b: intersection_number(a, b),
    ),
    "neighbor": (
        "greatest neighbor inside (of, upper)",
        ("of", "upper"),
        lambda a, b: str(greatest_neighbor_below(a, b)),
    ),
}


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# Subcommands: compute(args) -> document, render(document, args) -> text
# ---------------------------------------------------------------------------

def _farey(args) -> dict:
    _, flags, call = _FAREY[args.action]
    values = [getattr(args, flag) for flag in flags]
    doc = {flag: str(value) for flag, value in zip(flags, values)}
    doc[args.action] = call(*values)
    return doc


def _farey_text(doc: dict, args) -> str:
    value = doc[args.action]
    if isinstance(value, list):
        return ", ".join(value)
    return json.dumps(value) if isinstance(value, bool) else str(value)


def _solve(args) -> dict:
    surface = load_surface(args.input)
    positivity = "positive" if args.positive else "nonnegative"
    solutions = bs.enumerate_weights(surface, args.max, positivity)
    return {
        "sectors": sorted(set(surface.sector_ids())),
        "solutions": solutions,
        "count": len(solutions),
    }


def _solve_text(doc: dict, args) -> str:
    ids = doc["sectors"]
    return "\n".join(
        ["sectors: " + ", ".join(ids)]
        + ["(" + ", ".join(str(w[i]) for i in ids) + ")" for w in doc["solutions"]]
        + [f"{doc['count']} solution(s)"]
    )


def _check(args) -> dict:
    surface = load_surface(args.input)
    return {"valid": bs.check_weights(surface, bs.load_weights(args.weights))}


def _euler(args) -> dict:
    surface = load_surface(args.input)
    return {"carried_euler": bs.carried_euler(surface, bs.load_weights(args.weights))}


def _amputate(args) -> dict:
    surface = load_surface(args.input)
    return bs.surface_to_dict(bs.amputate(surface, set(args.sectors.split(","))))


def _amputate_text(doc: dict, args) -> str:
    parts = {
        "sectors": [s["id"] for s in doc["sectors"]],
        "branch curves": [f"({c['out1']},{c['out2']}->{c['in']})" for c in doc["branch_curves"]],
        "boundary curves": [f"{b['sector']}:{b['role']}" for b in doc.get("boundary_curves", [])],
    }
    return "\n".join(f"{k}: " + (", ".join(v) or "(none)") for k, v in parts.items())


def _degree_check(args) -> dict:
    annuli = load_surface(args.input).vertical_annuli
    return {"annuli": len(annuli), "violations": bs.check_degree_consistency(list(annuli))}


def _seifert(args) -> dict:
    return seifert.report_to_dict(seifert.analyze(args.triple, args.kmax))


def _seifert_text(doc: dict, args) -> str:
    lines = [
        f"triple: {doc['triple']}",
        f"normalized: {doc['normalized']}",
        f"euler number: {doc['euler']}",
        f"torus bundle: {_yes(doc['torus_bundle'])}",
        f"limit slope: {doc['limit']}",
    ]
    if "duals" in doc:
        lines.append("duals: " + ", ".join(doc["duals"]))
        lines.append(f"r1={doc['r1']} r2={doc['r2']} step={doc['step']}")
    if doc["rows"]:
        lines.append(f"{'k':>6}  {'k1':>4}  {'k2':>4}  {'s_k':>10}  {'det':>6}  edge  coprime")
        lines += [
            f"{r['k']:>6}  {r['k1']:>4}  {r['k2']:>4}  {r['s_k']:>10}"
            f"  {r['determinant']:>6}  {_yes(r['edge']):<4}  {_yes(r['coprime'])}"
            for r in doc["rows"]
        ]
    if "note" in doc:
        lines.append(f"note: {doc['note']}")
    lines.append(f"verdict: {doc['verdict']}")
    return "\n".join(lines)


def _multicurve(args) -> dict:
    solutions = mc.enumerate_multicurves(args.boundary, args.allow_boundary_parallel)
    return {
        "boundary": str(args.boundary),
        "allow_boundary_parallel": args.allow_boundary_parallel,
        "coordinates": [str(m) for m in solutions],
        "count": len(solutions),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopecalc",
        description="Exact calculator for Farey slopes, branched-surface weight "
        "systems, small-Seifert slope analysis and multicurve enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = []

    def leaf(group, name: str, help: str, compute, render) -> argparse.ArgumentParser:
        p = group.add_parser(name, help=help)
        p.set_defaults(compute=compute, render=render)
        leaves.append(p)
        return p

    farey_sub = sub.add_parser("farey", help="Farey tessellation queries").add_subparsers(
        dest="action", required=True
    )
    slope = _arg(parse_slope)
    for action, (help, flags, _) in _FAREY.items():
        p = leaf(farey_sub, action, help, _farey, _farey_text)
        for flag in flags:
            metavar = "START" if flag == "from" else None
            p.add_argument(f"--{flag}", type=slope, required=True, metavar=metavar)

    weights_sub = sub.add_parser("weights", help="weight systems on branched surfaces")
    weights_sub = weights_sub.add_subparsers(dest="action", required=True)
    p = leaf(weights_sub, "solve", "enumerate valid weight functions", _solve, _solve_text)
    p.add_argument("--input", required=True, help="surface document (JSON)")
    p.add_argument(
        "--max", type=int, required=True,
        help=f"largest weight to consider; more than {bs.MAX_SOLUTIONS} solutions exit 1",
    )
    p.add_argument("--positive", action="store_true", help="require weights >= 1")
    p = leaf(
        weights_sub, "check", "check the branch equations", _check,
        lambda doc, args: "valid" if doc["valid"] else "invalid",
    )
    p.add_argument("--input", required=True)
    p.add_argument("--weights", required=True, help="id->integer map (JSON)")
    p = leaf(
        weights_sub, "euler", "carried-surface Euler characteristic", _euler,
        lambda doc, args: str(doc["carried_euler"]),
    )
    p.add_argument("--input", required=True)
    p.add_argument("--weights", required=True)

    p = leaf(sub, "amputate", "remove sectors from a branched surface", _amputate, _amputate_text)
    p.add_argument("--input", required=True)
    p.add_argument("--sectors", required=True, help="comma-separated sector ids")

    p = leaf(
        sub, "degree-check", "degree dichotomy over vertical annuli", _degree_check,
        lambda doc, args: "\n".join(doc["violations"]) or "no violations",
    )
    p.add_argument("--input", required=True)

    p = leaf(sub, "seifert", "small-Seifert slope analysis", _seifert, _seifert_text)
    p.add_argument("--triple", type=_arg(seifert.parse_triple), required=True)
    p.add_argument(
        "--kmax", type=_arg(Fraction, "cannot parse rational {!r}"), default=Fraction(5),
        help=f"largest k (default 5); more than {seifert.MAX_ROWS} rows exit 1",
    )

    p = leaf(
        sub, "multicurve", "multicurves on the 3-punctured sphere", _multicurve,
        lambda doc, args: "\n".join(doc["coordinates"] + [f"count: {doc['count']}"]),
    )
    p.add_argument("--boundary", type=_arg(mc.parse_boundary), required=True, help="k1,k2,k3")
    p.add_argument("--allow-boundary-parallel", action="store_true")

    for p in leaves:
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = args.compute(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        text = args.render(doc, args)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader went away: silence the interpreter's final flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
