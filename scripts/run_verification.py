"""Run the full verification sweeps and write a JSON report.

Typical use:

    python3 scripts/run_verification.py --max-n 8 --lemmas --out report.json --table
    python3 scripts/run_verification.py --trees-to 13 --low-cycle-to 11
"""

import argparse
import sys

from lgmult.enumeration import (
    MAX_CAPPED_VERTICES,
    MAX_ENUM_VERTICES,
    MAX_TREE_VERTICES,
    enumerate_connected,
)
from lgmult.graphs import summarize
from lgmult.verify import (
    verify_congruence_laws,
    verify_graphs,
    verify_lemmas,
    verify_main_theorem,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=8,
                    help="sweep all connected non-cycle graphs on 2..N vertices")
    ap.add_argument("--trees-to", type=int, default=0,
                    help="also sweep all trees on max-n+1..N vertices")
    ap.add_argument("--low-cycle-to", type=int, default=0,
                    help="also sweep unicyclic and bicyclic graphs on max-n+1..N vertices")
    ap.add_argument("--lemmas", action="store_true",
                    help="check the reduction identities as well")
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--congruences", action="store_true",
                    help="check the exact path and cycle membership laws")
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument("--table", action="store_true", help="print the summary table")
    args = ap.parse_args()
    # check every cap before the first sweep starts
    for flag, value, cap in (
        ("--max-n", args.max_n, MAX_ENUM_VERTICES),
        ("--trees-to", args.trees_to, MAX_TREE_VERTICES),
        ("--low-cycle-to", args.low_cycle_to, MAX_CAPPED_VERTICES),
    ):
        if value > cap:
            ap.error(f"{flag} goes up to {cap} vertices, got {value}")
    if args.max_n < 2:
        ap.error(f"--max-n must be at least 2, got {args.max_n}")

    report = verify_main_theorem(args.max_n)

    if args.trees_to > args.max_n:
        report.merge(verify_graphs(
            enumerate_connected(args.trees_to, max_c=0, smallest=args.max_n + 1)
        ))

    if args.low_cycle_to > args.max_n:
        low_cycle = enumerate_connected(args.low_cycle_to, max_c=2, smallest=args.max_n + 1)
        report.merge(verify_graphs(
            g for g in low_cycle if summarize(g).cyclomatic in (1, 2)
        ))

    if args.lemmas:
        report.merge(verify_lemmas(min(args.max_n, 7), args.samples, args.seed))

    ok = report.passed
    if args.congruences:
        law_failures = verify_congruence_laws()
        if law_failures:
            ok = False
            for item in law_failures[:20]:
                print(f"congruence failure: {item}", file=sys.stderr)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    if args.table:
        print(report.summary_table())
    else:
        print(report.to_json())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
