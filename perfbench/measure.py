"""One round of one workload in a fresh interpreter; run.py starts it.

Prints one JSON line: set-up seconds (from the parent's spawn time until
the inputs are ready), timed wall seconds, per-query latencies, peak RSS
at the end of the timed work, and the problems the checks found.  In
trace mode the tracer wraps the layers from set-up to the end of the
timed work, and the line carries the per-layer metrics.

The speed probe (speed.py) runs from the start of the interpreter to the
end of the timed work.  Every timing is scaled by it: the probe's own time
is left out and each stretch of work is divided by the local speed
factor, so the timing reads in seconds at the reference speed.  The raw
wall times are kept under ``raw``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Probe samples taken after set-up and after the timed work, outside both,
# so that a phase too short for the timer still has speed factors.
EXTRA_SAMPLES = 5


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    import speed

    speed.start()
    import layers
    import lgmult
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = layers.Tracer() if args.mode == "trace" else None
    if tracer:
        tracer.install()
    inputs = workload.setup(args.seed)
    setup_end = speed.clock()
    for _ in range(EXTRA_SAMPLES):
        speed.sample()
    if args.mode == "setup":
        speed.stop()
        setup_s = speed.Scale()(args.spawned_at, setup_end)
        print(json.dumps({"setup_s": setup_s, "raw": {"setup_s": setup_end - args.spawned_at}}))
        return 0

    start = speed.clock()
    outcome = workload.run(inputs)
    end = speed.clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(EXTRA_SAMPLES):
        speed.sample()
    speed.stop()
    scale = speed.Scale()
    run_factor = scale.median_factor(start, end)
    if tracer:
        tracer.uninstall()
    problems = workload.check(inputs, outcome, args.seed)
    for problem in problems[:20]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    line = {
        "setup_s": scale(args.spawned_at, setup_end),
        "wall_s": scale(start, end),
        "graphs": outcome.graphs,
        "latencies": [scale(a, b) for a, b in outcome.intervals],
        "failed": outcome.failed,
        "peak_rss_mb": peak_rss_mb,
        "problems": len(problems),
        "notes": outcome.notes,
        "lgmult_version": lgmult.__version__,
        "raw": {"setup_s": setup_end - args.spawned_at, "wall_s": end - start},
        "speed_factor": run_factor,
    }
    if tracer:
        line["layers"] = {
            name: value / run_factor if name.endswith("_s") else value
            for name, value in tracer.metrics().items()
        }
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
