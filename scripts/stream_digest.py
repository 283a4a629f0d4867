"""Print the count, sha256 and walk time of one labelled enumeration stream.

    python3 scripts/stream_digest.py --top 9
    python3 scripts/stream_digest.py --top 12 --max-c 0

The stream is enumerate_connected(top, max_c, smallest=1), every graph of
one walk over the orders 1..top, hashed as
tests/test_enumeration.py::test_labelled_streams_are_pinned hashes it:
sha256 over repr((vertex_count, edges)) of each graph in turn.  Two
commits that print the same digest enumerate the same graphs, with the
same labels, in the same order.  The seconds are wall time of the walk
and the hashing together.
"""

import argparse
import hashlib
import json
import time

from lgmult.enumeration import enumerate_connected


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--top", type=int, required=True, help="largest order of the walk")
    ap.add_argument("--max-c", type=int, help="cap on the cyclomatic number (default: none)")
    args = ap.parse_args()

    h = hashlib.sha256()
    count = 0
    start = time.perf_counter()
    try:
        for g in enumerate_connected(args.top, args.max_c, smallest=1):
            h.update(repr((g.vertex_count, g.edges)).encode())
            count += 1
    except ValueError as exc:
        ap.error(str(exc))
    elapsed = time.perf_counter() - start
    print(json.dumps({
        "top": args.top, "max_c": args.max_c, "count": count,
        "sha256": h.hexdigest(), "elapsed_s": round(elapsed, 2),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
