"""Print the sha256 of a verification report, its elapsed time aside.

    lgmult verify --max-n 8 --out report.json
    python3 scripts/report_digest.py report.json

The digest is the one the pinned report tests compute: the report's JSON
object without its "elapsed" key, dumped by json.dumps(..., indent=2) and
hashed as UTF-8.  Two commits that print the same digest wrote the same
report, whatever the run took.
"""

import argparse
import hashlib
import json


def report_digest(payload: dict) -> str:
    """sha256 of the indented JSON of ``payload`` without "elapsed"."""
    rest = {k: v for k, v in payload.items() if k != "elapsed"}
    return hashlib.sha256(json.dumps(rest, indent=2).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("report", help="a JSON report written by lgmult verify --out")
    args = ap.parse_args()
    with open(args.report, encoding="utf-8") as handle:
        print(report_digest(json.load(handle)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
