"""Smoke test of the benchmark at its tiny size (about two minutes).

    python3 -m pytest -q bench/test_smoke.py

Each workload runs untraced and traced for one seed. The runs must exit 0,
report correct outputs, print exactly the metric names BENCHMARK.json
lists, and the untraced and traced runs must write identical outputs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_and_trace_digest(workload):
    untraced = _run(workload, 0)
    metrics = _result(untraced)["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert all(v["value"] > 0 for v in metrics.values())

    traced = _run(workload, 1)
    layer = _result(traced)["metrics"]
    assert [(k, v["unit"]) for k, v in layer.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    # The traced run checks its own traced repetitions against an untraced
    # one; across processes, the untraced digest must match as well.
    digest = re.search(r"^digest (\w+)$", untraced.stdout, re.M).group(1)
    assert re.search(rf"^digest {digest}$", traced.stdout, re.M)


def test_refuses_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for file in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / file.name).write_text(file.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
