"""teamsim benchmark.

    python3 bench/run.py --workload paper_2x2 --seed 1 --seconds 48 --trace 0

Run from the root of a source checkout; teamsim is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs one untraced repetition and then traced ones, and prints the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
TRACE_OUT = ROOT / ".bench_out"

# Set-up is sampled in fresh interpreters, half before and half after the
# timed repetitions, so that one moment's machine load does not set it.
SETUP_PROBES = 6
MIN_TRACED_REPS = 2

# End-to-end metrics, in report order: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ga_total_score", "score"),
    ("fairness_lift", "ratio"),
)
QUALITY = ("ga_total_score", "fairness_lift")
# Reported where a quality metric does not apply to the workload, so that
# every run prints the same metric set.
NOT_APPLICABLE = 1.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="teamsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-probe",
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--size",
            args.size,
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def _time_left(started: float, rep_seconds: list[float], seconds: float) -> bool:
    """Whether another repetition fits: the run may end at most half a
    repetition (median so far) after the given seconds."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(rep_seconds) / 2 < seconds


def _rep_dir(work_dir: Path, index: int) -> Path:
    path = work_dir / f"rep{index}"
    path.mkdir()
    return path


def _untraced_rep(workload, work_dir: Path, index: int, checks: workloads.Checks | None):
    """One timed repetition of variant index % workload.variants:
    (seconds, digest, team values).

    With checks given, the outputs are checked and the team values read
    (outside the timed region); otherwise the team values are empty.
    """
    out_dir = _rep_dir(work_dir, index)
    t0 = time.perf_counter()
    result = workload.run(out_dir, index % workload.variants)
    seconds = time.perf_counter() - t0
    digest = workload.digest(result, out_dir)
    values = {}
    if checks is not None:
        workload.check(result, out_dir, checks)
        values = workload.team_values(result)
    shutil.rmtree(out_dir)
    return seconds, digest, values


def _measure(workload, args, work_dir: Path, checks: workloads.Checks):
    """Untraced repetitions: (wall seconds per rep, digest of variant 0,
    quality over all variants).

    Repetitions cycle through the workload's variants; the first repetition
    of each is checked, and at least one variant runs twice.
    """
    walls: list[float] = []
    digests: dict[int, set[str]] = {}
    values: dict = {}
    started = time.perf_counter()
    while len(walls) < workload.min_reps or _time_left(started, walls, args.seconds):
        index = len(walls)
        first = index < workload.variants
        seconds, digest, rep_values = _untraced_rep(
            workload, work_dir, index, checks if first else None
        )
        for key, team_values in rep_values.items():
            values.setdefault(key, []).extend(team_values)
        walls.append(seconds)
        digests.setdefault(index % workload.variants, set()).add(digest)
    checks.expect(
        "repetitions of one variant give identical outputs",
        lambda: all(len(d) == 1 for d in digests.values()),
    )
    return walls, next(iter(digests[0])), workload.quality(values, checks)


def _trace(workload, args, work_dir: Path, checks: workloads.Checks):
    """One untraced repetition, then traced ones, all of variant 0:
    (per-layer medians, digest)."""
    untraced, base_digest, values = _untraced_rep(workload, work_dir, 0, checks)
    workload.quality(values, checks)

    reps: list[dict] = []
    digests: list[str] = []
    tracer = None
    started = time.perf_counter()
    while len(reps) < MIN_TRACED_REPS or _time_left(
        started, [rep["trace.wall_s"] for rep in reps], args.seconds
    ):
        out_dir = _rep_dir(work_dir, len(reps) + 1)
        tracer = tracing.new_tracer()
        with tracer.installed(), tracer.span(tracing.ROOT_SPAN):
            result = workload.run(out_dir, 0)
        digests.append(workload.digest(result, out_dir))
        reps.append(tracing.layer_metrics(tracer, workload.outputs(result, out_dir)))
        del result
        shutil.rmtree(out_dir)

    checks.expect(
        "traced and untraced repetitions give identical outputs",
        lambda: all(d == base_digest for d in digests),
    )
    for name in tracing.EXACT:
        values = {rep[name] for rep in reps}
        checks.expect(f"{name} repeats exactly ({sorted(values)})", lambda: len(values) == 1)

    TRACE_OUT.mkdir(exist_ok=True)
    tracer.write_spans(TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    metrics = {name: statistics.median(rep[name] for rep in reps) for name in reps[0]}
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_share"] = metrics["trace.wall_s"] / untraced - 1.0
    return metrics, base_digest


def _print_table(metrics: dict, units: dict, applies: dict | None = None) -> None:
    for name, value in metrics.items():
        note = "" if applies is None or applies.get(name, True) else "  (not applicable: constant)"
        print(f"  {name:<30} {value:>16.6f} {units[name]}{note}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "teamsim" / "__init__.py").is_file():
        print(f"error: no teamsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The run directory is chosen per repetition; an inherited override
    # would send every repetition to the same place.
    os.environ.pop("TEAMSIM_OUTPUT_DIR", None)

    workload, setup_s = workloads.setup(args.workload, args.seed, args.size)
    if args.setup_probe:
        print(setup_s)
        return 0

    import teamsim

    if Path(teamsim.__file__).resolve().parent != SRC / "teamsim":
        print(f"error: imported teamsim from {teamsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    checks = workloads.Checks()
    SCRATCH.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.trace:
            metrics, digest = _trace(workload, args, work_dir, checks)
            units = dict(tracing.PER_LAYER)
            print(f"traced run: workload={args.workload} seed={args.seed} size={args.size}")
            print(f"digest {digest}")
            _print_table({name: metrics[name] for name, _ in tracing.PER_LAYER}, units)
        else:
            setups = [setup_s] + [_probe_setup(args) for _ in range(SETUP_PROBES // 2)]
            walls, digest, quality = _measure(workload, args, work_dir, checks)
            setups += [_probe_setup(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            for name in QUALITY:
                metrics[name] = quality.get(name, NOT_APPLICABLE)
            units = dict(END_TO_END)
            print(
                f"workload={args.workload} seed={args.seed} size={args.size} "
                f"reps={len(walls)} walls_s={[round(w, 4) for w in walls]} "
                f"setups_s={[round(s, 4) for s in setups]}"
            )
            print(f"digest {digest}")
            _print_table(metrics, units, {name: name in quality for name in QUALITY})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    n_checks = len(checks.invariant) + len(checks.effect)
    n_failed = len(checks.failed) + sum(1 for _, ok in checks.effect if not ok)
    for name, ok in checks.effect:
        print(f"effect check {'PASS' if ok else 'FAIL'}: {name}")
    for name in checks.failed:
        print(f"invariant check FAIL: {name}")
    print(f"failed_share {n_failed / n_checks:.6f} ratio ({n_failed} of {n_checks} checks failed)")
    print(
        json.dumps(
            {
                "correct": not checks.failed,
                "attempted": len(checks.invariant),
                "failed": len(checks.failed),
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
