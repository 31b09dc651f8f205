"""The names the benchmark harness reads from teamsim.

bench/tracing.py wraps teamsim functions by module and name and reads
their results, and bench/workloads.py builds ExperimentConfig objects and
reads the reports, sessions and replayed states of their runs. A rename
in src/ that these files still use breaks the benchmark, so it fails here
first. bench/tracing.py is loaded as it is, from its file.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from teamsim.core import TEAM_SIZE
from teamsim.experiment import ExperimentConfig, run_experiment
from teamsim.optimizer import GaConfig, ga_partition
from teamsim.population import synth_population
from teamsim.protocol import replay

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


@pytest.fixture(scope="module")
def agency_report():
    config = ExperimentConfig(
        conditions=("self_assembled",), sessions_per_condition=1, agents_per_session=12, seed=3
    )
    return run_experiment(config)


def test_report_and_session_reads(agency_report):
    # workloads.py reads condition_metric, and each session's population,
    # partition and events.
    (session,) = agency_report.sessions
    values = agency_report.condition_metric("self_assembled", "total_score")
    assert values == [row["total_score"] for row in agency_report.team_rows]
    session.partition.validate([p.id for p in session.population])
    assert session.events[-1].kind == "deadline_fill"


def test_replayed_groups_are_sorted_tuples(agency_report):
    # workloads.py sums len(g) over groups() of the log replayed up to the fill.
    (session,) = agency_report.sessions
    ids = [p.id for p in session.population]
    state = replay(ids, [e for e in session.events if e.kind != "deadline_fill"])
    groups = state.groups()
    assert groups == sorted(groups)
    assert all(type(g) is tuple and list(g) == sorted(g) for g in groups)
    assert sorted(m for g in groups for m in g) == sorted(ids)


def test_exposures_carry_selected(agency_report):
    # tracing.py sums e.selected over agent_step's exposures.
    exposures = agency_report.sessions[0].exposures
    assert exposures and {e.selected for e in exposures} <= {0, 1}


def test_ga_partition_returns_the_front_first():
    # tracing.py counts front entries as len(ga_partition(...)[0]).
    population = synth_population(2 * TEAM_SIZE, rng=np.random.default_rng(0))
    result = ga_partition(population, GaConfig(generations=1, population_size=2))
    assert len(result[0]) >= 1
