#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each end-to-end metric's
median and spread (interquartile range over median), the way a run set is
judged against BENCHMARK.json's bounds.

    python3 perfbench/spread.py --workload check --seeds 1-10 [--seconds 25]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(done.stdout, file=sys.stderr)
            shares.add((result["failed"] / result["attempted"], result["correct"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        print(f"{workload}: failed share and correctness {sorted(shares)}")
        for name, vals in values.items():
            spread = relative_spread(vals)
            print(f"  {name:12s} median {statistics.median(vals):10.4f}  spread {spread:.4f}"
                  f"  bound {bounds.get(name)}  ratio {spread / bounds[name]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
