"""Benchmark of lgmult: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload, each in a new interpreter with
LGMULT_WORKERS=1 so that the program's caches start cold as in every CLI
invocation.  It starts another round while, judging by the last one, the
round would end by 1.25 x --seconds; there is always at least one.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced rounds and prints the per-layer metrics and the
tracing overhead.  Every timing is put on one reference speed by the
speed probe (speed.py), so that the machine's own drift cancels.  The
last stdout line is the JSON result; the line before it holds the run
metadata.  A record of the run goes to .bench_out/ in the repository
root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep", "families", "generators", "oracle")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "graphs_per_s": "graphs/s",
    "queries_per_s": "queries/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Every round runs with this string hash seed.  With a random one, the
# p50 latency of the generators queries spread about twice as much from
# round to round.
HASH_SEED = "0"

# setup_s is the median of at least this many set-ups; rounds that are
# too few are topped up with set-up-only interpreters.
MIN_SETUPS = 5

# A round (with --trace 1, an untraced and a traced one) is started only
# if, judging by the last, it ends by this multiple of --seconds.
OVERRUN = 1.25

# Every interpreter started after this many seconds is refused, and one
# still running then is killed, so that a run ends within 180 s.
TIME_LIMIT = 170.0


class RoundFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one round in a fresh interpreter and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RoundFailed(f"time limit of {TIME_LIMIT:.0f} s reached")
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), LGMULT_WORKERS="1", PYTHONHASHSEED=HASH_SEED
    )
    spawned_at = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--spawned-at", repr(spawned_at),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{mode} round killed at the {TIME_LIMIT:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{mode} round exited with {proc.returncode}")
    return json.loads(lines[-1])


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(rounds: list[dict], setups: list[float]) -> dict[str, float]:
    # Every round replays the same queries in the same order, so each
    # query's latency is its median over the rounds; one slow round then
    # does not set the tail.
    latencies = [statistics.median(xs) for xs in zip(*(r["latencies"] for r in rounds))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "graphs_per_s": statistics.median(r["graphs"] / r["wall_s"] for r in rounds),
        "queries_per_s": statistics.median(len(r["latencies"]) / r["wall_s"] for r in rounds),
        "query_p50_ms": 1e3 * quantile(latencies, 0.50),
        "query_p99_ms": 1e3 * quantile(latencies, 0.99),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_per_build", ".overhead")):
        return "ratio"
    return "count"


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    out["trace.overhead"] = statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1
    return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return proc.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lgmult" / "__init__.py").is_file():
        print(f"no lgmult sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + TIME_LIMIT
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        last = 0.0
        while not untraced or time.monotonic() - started + last <= OVERRUN * args.seconds:
            round_start = time.monotonic()
            untraced.append(spawn(args.workload, args.seed, "run", deadline))
            if args.trace:
                traced.append(spawn(args.workload, args.seed, "trace", deadline))
            last = time.monotonic() - round_start
        setups = [r["setup_s"] for r in untraced]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(spawn(args.workload, args.seed, "setup", deadline)["setup_s"])
    except RoundFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    rounds = untraced + traced
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(untraced, setups)
        units = END_TO_END_UNITS
    result = {
        "correct": all(r["problems"] == 0 for r in rounds),
        "attempted": sum(len(r["latencies"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "lgmult_version": rounds[0]["lgmult_version"],
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "workers": 1,
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "setups": len(setups),
        "notes": rounds[0]["notes"],
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    walls = {
        kind: [
            {"wall_s": r["wall_s"], "raw_wall_s": r["raw"]["wall_s"], "speed_factor": r["speed_factor"]}
            for r in rs
        ]
        for kind, rs in (("untraced", untraced), ("traced", traced))
    }
    record.write_text(
        json.dumps({"meta": meta, "result": result, "round_walls": walls}, indent=2) + "\n"
    )
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
