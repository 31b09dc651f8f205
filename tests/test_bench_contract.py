"""The names the benchmark harness reads from teamsim.

bench/tracing.py wraps teamsim functions by module and name, and
bench/workloads.py builds ExperimentConfig objects. A rename in src/ that
these files still use breaks the benchmark, so it fails here first.
bench/tracing.py is loaded as it is, from its file.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from teamsim.core import TEAM_SIZE
from teamsim.experiment import ExperimentConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name] if path else getattr(owner, name)


def test_every_trace_target_resolves(tracing):
    for _, module_name, attr, _ in tracing.TARGETS:
        assert callable(_resolve(module_name, attr)), (module_name, attr)


def test_traced_call_names_read_their_arguments(tracing):
    # run_assembly's call name comes from its second positional argument,
    # run_session's session id from its session_index keyword.
    from teamsim.session import run_assembly, run_session

    assert list(inspect.signature(run_assembly).parameters)[1] == "mode"
    assert "session_index" in inspect.signature(run_session).parameters


def test_tracer_installs_and_restores(tracing):
    originals = [_resolve(module_name, attr) for _, module_name, attr, _ in tracing.TARGETS]
    tracer = tracing.new_tracer()
    with tracer.installed():
        wrapped = [_resolve(module_name, attr) for _, module_name, attr, _ in tracing.TARGETS]
    assert all(w is not o for w, o in zip(wrapped, originals))
    restored = [_resolve(module_name, attr) for _, module_name, attr, _ in tracing.TARGETS]
    assert all(r is o for r, o in zip(restored, originals))


def test_workload_config_fields_exist():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    used = {"conditions", "sessions_per_condition", "agents_per_session", "seed", "workers", "output_dir"}
    assert used <= fields


def test_workload_reads_the_team_size():
    # bench/workloads.py reads configs[0].team_size; it is not a field.
    assert ExperimentConfig().team_size == TEAM_SIZE
