#!/usr/bin/env python
"""Fail when calibrated replay queries/sec regresses against a committed baseline.

Used by the CI ``perf_smoke`` job: the smoke benchmark writes a fresh
``bench-out/BENCH_smoke.json`` and this script compares it to the committed
``BENCH_smoke.json``.

Raw queries/sec numbers are machine-dependent (CI runners differ wildly), so
the compared quantity is ``calibrated_qps``: replay queries/sec multiplied by
the time of a fixed pure-Python calibration loop measured in the same
process (``perfbench.harness.calibration_s``).  The loop runs no ``repro``
code, so a slow runner slows both factors alike and its speed cancels; a
>``--max-regression`` drop means the replay itself lost ground.

A relative gate alone can drift when the calibration loop and the replay
shift together (an interpreter upgrade, say).  The ``--min-queries-per-sec``
floor pins an absolute lower bound on the fresh run's raw queries/sec —
deliberately far below any healthy machine's figure, so it only trips on
order-of-magnitude losses, never on runner speed.  The 19 000 queries/s
default is the former 100 000 events/s floor divided by the 5.15 events per
query the smoke trace cost while every frontend retry was an event.  Since
the FIFO frontend the trace costs about 3 events per query; a floor in
queries/s does not move with that count.

Usage::

    python benchmarks/compare_bench.py FRESH.json BASELINE.json \
        [--max-regression 0.20] [--min-queries-per-sec 19000]

Exits non-zero on regression (or unreadable/mismatched inputs).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def field(payload: dict, name: str, path: str) -> float:
    """A positive numeric field of a replay benchmark payload."""
    try:
        value = float(payload[name])
    except KeyError:
        raise SystemExit(f"{path}: missing field '{name}' — not a replay benchmark") from None
    if value <= 0:
        raise SystemExit(f"{path}: non-positive {name}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="benchmark JSON produced by this run")
    parser.add_argument("baseline", help="committed baseline benchmark JSON")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="maximum tolerated fractional drop in calibrated queries/sec",
    )
    parser.add_argument(
        "--min-queries-per-sec",
        type=float,
        default=19_000.0,
        help="absolute floor on the fresh run's raw queries/sec (0 disables the floor)",
    )
    args = parser.parse_args(argv)

    fresh = json.loads(Path(args.fresh).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    current = field(fresh, "calibrated_qps", args.fresh)
    reference = field(baseline, "calibrated_qps", args.baseline)
    change = current / reference - 1.0

    print(
        f"calibrated queries/sec: current {current:,.1f}, baseline {reference:,.1f}, "
        f"change {change:+.1%} (tolerance -{args.max_regression:.0%})"
    )
    raw = field(fresh, "queries_per_sec", args.fresh)
    print(
        f"  raw: {raw:,.0f} queries/s now vs "
        f"{field(baseline, 'queries_per_sec', args.baseline):,.0f} queries/s at baseline "
        "(raw numbers are machine-dependent; the calibrated figure above is the gate)"
    )
    if change < -args.max_regression:
        print("FAIL: replay speed regressed past the tolerance")
        return 1
    if args.min_queries_per_sec > 0 and raw < args.min_queries_per_sec:
        print(
            f"FAIL: raw replay throughput {raw:,.0f} queries/s is below "
            f"the absolute floor of {args.min_queries_per_sec:,.0f} queries/s"
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
