"""Command-line surface: construction, multiplicity queries, recognition,
family generation, and verification sweeps.

Exit codes: 0 for a passing result, 1 for a failing result (a NotOptimal
verdict from ``check`` or a verification run with failures), 2 for usage
and input errors.  Payloads are JSON on standard output; diagnostics go
to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from .certify import is_optimal, certificate_to_json, optimal_certificate
from .enumeration import MAX_CAPPED_VERTICES, MAX_TREE_VERTICES, enumerate_connected
from .families import CASE_TAGS, FamilySpec, realize
from .graphio import (
    FormatError,
    from_edge_text,
    from_graph6,
    read_graphs_graph6,
    to_graph6,
)
from .graphs import Graph, GraphError, multiplicity_bound, summarize
from .intpoly import poly_to_json
from .linegraph import line_graph
from .spectra import (
    Eigenvalue,
    NonCanonical,
    line_multiplicities,
    multiplicity,
)
from .verify import (
    verify_congruence_laws,
    verify_graphs,
    verify_lemmas,
    verify_main_theorem,
)


class UsageError(Exception):
    """Raised for bad flags or unparseable input; maps to exit code 2."""


def _graph_json(g: Graph) -> dict[str, Any]:
    return {
        "graph6": to_graph6(g),
        "vertex_count": g.vertex_count,
        "edges": [[u, v] for u, v in g.edges],
    }


def _emit(payload: dict[str, Any]) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_graph(args: argparse.Namespace) -> Graph:
    sources = [
        name
        for name, value in (
            ("--g6", args.g6),
            ("--edges", args.edges),
            ("--stdin", args.stdin),
        )
        if value
    ]
    if len(sources) != 1:
        raise UsageError(
            "provide exactly one input source: --g6 STRING, --edges FILE,"
            " or --stdin"
        )
    try:
        if args.g6:
            return from_graph6(args.g6)
        if args.edges:
            with open(args.edges, "r", encoding="utf-8") as handle:
                return from_edge_text(handle.read())
        text = sys.stdin.read()
        first = text.strip().splitlines()[0].split() if text.strip() else []
        if len(first) == 2 and all(tok.isdigit() for tok in first):
            return from_edge_text(text)
        return from_graph6(text.strip().splitlines()[0])
    except (FormatError, GraphError, OSError, IndexError) as exc:
        raise UsageError(f"cannot read graph: {exc}") from exc


def _parse_lambda(text: str) -> Eigenvalue:
    try:
        return Eigenvalue.parse(text)
    except (NonCanonical, ValueError) as exc:
        raise UsageError(f"bad eigenvalue {text!r}: {exc}") from exc


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--g6", help="graph6 string")
    parser.add_argument("--edges", help="edge-list file ('n m' header, 'u v' lines)")
    parser.add_argument(
        "--stdin", action="store_true", help="read the graph from standard input"
    )


def cmd_linegraph(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        lm = line_graph(g)
    except GraphError as exc:
        raise UsageError(str(exc)) from exc
    _emit({"base": _graph_json(g), "line": _graph_json(lm.line)})
    return 0


def cmd_mult(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    lam = _parse_lambda(args.lam)
    s = summarize(g)
    # the bound 2c + p - 1 covers L(G) for connected non-cycle G with an edge
    covered = s.connected and not s.is_cycle and g.edge_count > 0
    _emit(
        {
            "graph6": to_graph6(g),
            "lambda": {"a": lam.a, "b": lam.b},
            "graph_multiplicity": multiplicity(g, lam),
            "line_graph_multiplicity": line_multiplicities(g, [lam])[0],
            "line_graph_bound": multiplicity_bound(g) if covered else None,
            "minimal_polynomial": poly_to_json(lam.minimal_polynomial),
        }
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    lam = _parse_lambda(args.lam)
    try:
        cert = optimal_certificate(g, lam)
    except GraphError as exc:
        raise UsageError(str(exc)) from exc
    _emit(
        {
            "graph6": to_graph6(g),
            "bound": multiplicity_bound(g),
            "certificate": certificate_to_json(cert),
        }
    )
    return 0 if is_optimal(cert) else 1


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        if args.spec_json:
            spec = FamilySpec.from_json(args.spec_json)
        elif args.spec:
            with open(args.spec, "r", encoding="utf-8") as handle:
                spec = FamilySpec.from_json(handle.read())
        else:
            if not args.case:
                raise UsageError("gen needs --case (or --spec/--spec-json)")
            params: dict[str, Any] = {}
            for item in args.param or []:
                if "=" not in item:
                    raise UsageError(f"--param expects key=value, got {item!r}")
                key, _, value = item.partition("=")
                try:
                    params[key] = json.loads(value)
                except json.JSONDecodeError:
                    params[key] = value
            lam = None
            if args.lam:
                e = _parse_lambda(args.lam)
                lam = (e.a, e.b)
            spec = FamilySpec(args.case, lam, params, args.seed)
        graph = realize(spec)
    except UsageError:
        raise
    except (ValueError, TypeError, KeyError, GraphError, OSError) as exc:
        # TypeError: a spec value of the wrong JSON type, such as "t": null
        raise UsageError(f"cannot realize family spec: {exc}") from exc
    _emit({"spec": spec.to_json_dict(), "graph": _graph_json(graph)})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # check every cap before the first sweep starts; --max-n is checked
    # eagerly by verify_main_theorem
    for flag, value, cap in (
        ("--trees-to", args.trees_to, MAX_TREE_VERTICES),
        ("--low-cycle-to", args.low_cycle_to, MAX_CAPPED_VERTICES),
    ):
        if value > cap:
            raise UsageError(f"{flag} goes up to {cap} vertices, got {value}")
    if args.g6_file:
        try:
            with open(args.g6_file, "r", encoding="utf-8") as handle:
                graphs = read_graphs_graph6(handle.read())
        except (FormatError, OSError) as exc:
            raise UsageError(f"cannot read corpus: {exc}") from exc
        report = verify_graphs(graphs)
    else:
        try:
            report = verify_main_theorem(args.max_n)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if args.trees_to > args.max_n:
        report.merge(verify_graphs(
            enumerate_connected(args.trees_to, max_c=0, smallest=args.max_n + 1)
        ))
    if args.low_cycle_to > args.max_n:
        low_cycle = enumerate_connected(
            args.low_cycle_to, max_c=2, smallest=args.max_n + 1
        )
        report.merge(verify_graphs(
            g for g in low_cycle if summarize(g).cyclomatic in (1, 2)
        ))
    if args.lemmas:
        lemma_report = verify_lemmas(
            min(args.max_n, 7), samples=args.samples, seed=args.seed
        )
        report.merge(lemma_report)
    passed = report.passed
    if args.congruences:
        law_failures = verify_congruence_laws()
        for item in law_failures[:20]:
            print(f"congruence failure: {item}", file=sys.stderr)
        passed = passed and not law_failures
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    if args.table:
        sys.stdout.write(report.summary_table())
        sys.stdout.write("\n")
    else:
        _emit(report.to_json_dict())
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgmult",
        description="Exact line-graph eigenvalue multiplicity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linegraph", help="construct the line graph")
    _add_input_flags(p)
    p.set_defaults(func=cmd_linegraph)

    p = sub.add_parser("mult", help="exact eigenvalue multiplicity")
    _add_input_flags(p)
    p.add_argument("--lambda", dest="lam", required=True, metavar="A/B")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("check", help="optimality certificate for a graph")
    _add_input_flags(p)
    p.add_argument("--lambda", dest="lam", required=True, metavar="A/B")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a family instance")
    p.add_argument("--case", choices=CASE_TAGS)
    p.add_argument("--lambda", dest="lam", metavar="A/B")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spec", help="JSON file holding a family spec")
    p.add_argument("--spec-json", help="inline JSON family spec")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run verification sweeps")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--g6-file", help="verify a graph6 corpus file instead")
    p.add_argument("--trees-to", type=int, default=0, metavar="N",
                   help="also sweep all trees on max-n+1..N vertices")
    p.add_argument("--low-cycle-to", type=int, default=0, metavar="N",
                   help="also sweep unicyclic and bicyclic graphs on"
                        " max-n+1..N vertices")
    p.add_argument("--congruences", action="store_true",
                   help="also check the exact path and cycle membership laws")
    p.add_argument("--lemmas", action="store_true",
                   help="also check the reduction identities")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report to this file")
    p.add_argument("--table", action="store_true",
                   help="print the summary table instead of the JSON report")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
