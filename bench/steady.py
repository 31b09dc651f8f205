"""Steadiness check: run the benchmark once per seed and report the spread.

    python3 bench/steady.py --workload agency_n128 --seeds 1 2 3 4 5 [--out FILE]

For every end-to-end metric it prints the median and the quartile spread
(Q3 - Q1) / median over the runs, with quartiles from
statistics.quantiles(values, n=4), next to the metric's bound in
BENCHMARK.json. Runs are sequential, so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", help="write the raw results here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        started = time.perf_counter()
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        elapsed = time.perf_counter() - started
        effect_failures = [line for line in lines if line.startswith("effect check FAIL")]
        reps = next(line for line in lines if line.startswith("workload="))
        runs.append(
            {"seed": seed, "elapsed_s": elapsed, "reps": reps, "effect_failures": effect_failures, **result}
        )
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {elapsed:.1f} s correct={result['correct']} {values}", flush=True)
        for line in effect_failures:
            print(f"  {line}")

    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}  spread < bound/3")
    summary = {}
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        s = spread(values) if len(values) > 1 else 0.0
        summary[metric["name"]] = {"median": statistics.median(values), "spread": s, "bound": metric["bound"]}
        print(
            f"{metric['name']:<18} {statistics.median(values):>12.4f} {s:>8.4f} "
            f"{metric['bound']:>6}  {'yes' if s < metric['bound'] / 3 else 'NO'}"
        )
    if args.out:
        Path(args.out).write_text(
            json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
