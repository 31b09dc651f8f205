from __future__ import annotations

import ast
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import teamsim.stats
from teamsim.agents import ChoiceModelParams, simulate_exposures
from teamsim.core import TEAM_SIZE, Partition, read_json_lines, read_table
from teamsim.experiment import (
    AUDIT_INPUTS,
    REPORT_METRICS,
    TABLE_COLUMNS,
    AuditError,
    ExperimentConfig,
    choice_audit,
    read_manifest,
    regenerate_team_rows,
    run_experiment,
    session_stem,
    stats_tables,
)
from teamsim.optimizer import GaConfig
from teamsim.population import load_population, synth_population
from teamsim.protocol import read_log
from teamsim.session import CONDITIONS, run_session
from teamsim.stats import PERMUTATION_BLOCK, anova_f, pairwise_diffs


def _tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        conditions=("random", "self_assembled"),
        sessions_per_condition=2,
        agents_per_session=16,
        rounds=6,
        seed=314,
        ga=GaConfig(generations=4, population_size=8),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown conditions"):
            ExperimentConfig(conditions=("psychic",))
        with pytest.raises(ValueError, match="at least one condition"):
            ExperimentConfig(conditions=())
        with pytest.raises(ValueError):
            ExperimentConfig(sessions_per_condition=0)
        with pytest.raises(ValueError):
            ExperimentConfig(agents_per_session=7)
        # Teams are always TEAM_SIZE: the team size is not a field.
        with pytest.raises(TypeError):
            ExperimentConfig(team_size=TEAM_SIZE)
        with pytest.raises(ValueError, match="ga.rng_seed is not a setting"):
            ExperimentConfig(ga=GaConfig(rng_seed=5))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sessions_per_condition", 2.0),
            ("agents_per_session", 16.5),
            ("rounds", -1),
            ("rounds", 0),
            ("rounds", 2.0),
            ("seed", -1),
            ("workers", 1.0),
        ],
    )
    def test_sizes_must_be_integers_in_range(self, key, value):
        # refused on construction, before any session runs
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            ExperimentConfig(**{key: value})
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            ExperimentConfig.from_dict({key: value})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: sessions, workerz$"):
            ExperimentConfig.from_dict({"sessions": 2, "workerz": 1, "seed": 3})
        with pytest.raises(ValueError, match=r"unknown config keys: ga\.restarts$"):
            ExperimentConfig.from_dict({"ga": {"restarts": 2, "generations": 3}})
        # The Blau category counts and the age span are fixed, not settings.
        with pytest.raises(ValueError, match="unknown config keys: schema$"):
            ExperimentConfig.from_dict({"schema": {"gender_k": 2}})
        # Teams of four, pages of ten, and each GA session seeded from seed.
        with pytest.raises(ValueError, match="unknown config keys: page_size, team_size$"):
            ExperimentConfig.from_dict({"team_size": 4, "page_size": 10})
        with pytest.raises(ValueError, match=r"unknown config keys: ga\.rng_seed$"):
            ExperimentConfig.from_dict({"ga": {"rng_seed": 0}})

    def test_manifest_record_lacks_fixed_values(self):
        record = ExperimentConfig().to_dict()
        assert "team_size" not in record and "page_size" not in record
        assert set(record["ga"]) == {"generations", "population_size", "swap_attempts"}

    @pytest.mark.parametrize("key", ["ga", "policy", "choice_params", "demographics"])
    @pytest.mark.parametrize("value", [5, None, [1, 2], "x"])
    def test_nested_values_must_be_mappings(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' must be a mapping"):
            ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize(
        "ga",
        [{"generations": 2.5}, {"population_size": True}, {"swap_attempts": 0.5}, {"generations": -3}],
    )
    def test_invalid_ga_values_rejected(self, ga):
        with pytest.raises(ValueError, match=next(iter(ga))):
            ExperimentConfig.from_dict({"ga": ga})

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1, 2], "a config must be a mapping, got list"),
            ({"conditions": 5}, "malformed config value"),
            ({"policy": {"criteria_counts": 3}}, "malformed config value"),
            ({"policy": {"accept_probability": "0.5"}}, "malformed config value"),
            ({"demographics": {"hispanic_rate": "0.1"}}, "malformed config value"),
            ({"demographics": {"gender_weights": [1, "a", 2]}}, "malformed config value"),
            ({"demographics": {"age_min": 18.5}}, "invalid age range"),
            ({"demographics": {"age_max": 40.0}}, "invalid age range"),
            ({"demographics": {"skill_min": 2.5}}, "invalid skill range"),
            ({"choice_params": {"intercept": "x"}}, "intercept must be a finite real"),
            ({"choice_params": {"rank": True}}, "rank must be a finite real"),
            ({"choice_params": {"random_intercept_variance": float("nan")}}, "random_intercept_variance"),
            ({"choice_params": {"interaction": float("inf")}}, "interaction must be a finite real"),
        ],
    )
    def test_malformed_values_rejected(self, data, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(data)

    def test_json_round_trip(self, tmp_path):
        config = _tiny_config(output_dir="somewhere")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = ExperimentConfig.from_json_file(path)
        assert loaded == config


@pytest.fixture(scope="module")
def tiny_report():
    return run_experiment(_tiny_config())


class TestStatsTables:
    @staticmethod
    def _streams(monkeypatch, tables, seed):
        """stats_tables(tables, seed) and the (pooled size, tests) of each permutation stream it draws."""
        calls = []
        each = teamsim.stats._permutation_hits_each

        def recording(n, statistics, tols, n_permutations, rng):
            calls.append((n, len(statistics)))
            return each(n, statistics, tols, n_permutations, rng)

        monkeypatch.setattr(teamsim.stats, "_permutation_hits_each", recording)
        try:
            return stats_tables(tables, seed=seed), calls
        finally:
            monkeypatch.undo()

    def test_one_stream_per_pooled_size(self, monkeypatch):
        rng = np.random.default_rng(8)
        three, five = (rng.integers(0, 3, size=k) / 4.0 for k in (3, 5))
        tables = {
            "base": {"a": three, "b": five},
            "same": {"a": 1.0 - three, "b": five * 2.0},
            "swapped_sizes": {"a": five, "b": three},
            "swapped_labels": {"b": three, "a": five},
            "other_labels": {"a": three, "c": five},
            "one_group": {"a": three},  # skipped
        }
        (anova_rows, pairwise_rows), calls = self._streams(monkeypatch, tables, seed=5)
        # every ANOVA and every pair pools 8 values: one stream for all ten tests
        assert calls == [(8, 10)]

        tested = [m for m in tables if m != "one_group"]
        assert [r["metric"] for r in anova_rows] == tested
        assert [r["metric"] for r in pairwise_rows] == tested
        for row, metric in zip(anova_rows, tested):
            alone = anova_f(tables[metric], seed=5)
            assert (row["f_stat"], row["p_value"]) == (alone.f_stat, alone.p_value)
        for row, metric in zip(pairwise_rows, tested):
            (alone,) = pairwise_diffs(tables[metric], seed=5)
            assert (row["group_a"], row["group_b"]) == (alone.group_a, alone.group_b)
            assert (row["delta"], row["p_value"], row["p_adjusted"]) == (
                alone.delta,
                alone.p_value,
                alone.p_adjusted,
            )

    @pytest.mark.parametrize(
        "n_conditions, expected",
        # four conditions: every ANOVA pools 4 x 6 teams, every pair 2 x 6;
        # two conditions: the ANOVA and its one pair pool the same 12 teams
        [(4, [(24, 7), (12, 42)]), (2, [(12, 14)])],
    )
    def test_streams_per_table(self, monkeypatch, n_conditions, expected):
        rng = np.random.default_rng(10)
        tables = {
            metric: {f"c{g}": rng.integers(0, 5, size=6) / 4.0 for g in range(n_conditions)}
            for metric in REPORT_METRICS
        }
        _, calls = self._streams(monkeypatch, tables, seed=2)
        assert calls == expected

    def test_memory_stays_at_one_metric_per_block(self):
        # 1,280 teams in 4 conditions and all seven metrics: gathering every
        # metric of a block at once would hold 7 value blocks
        rng = np.random.default_rng(9)
        tables = {
            metric: {f"c{g}": rng.random(320) for g in range(4)} for metric in REPORT_METRICS
        }
        one_block = PERMUTATION_BLOCK * 1280 * 8  # indices and values are 8 bytes each
        tracemalloc.start()
        try:
            stats_tables(tables, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (one_block + one_block)


class TestRunExperiment:
    def test_team_counts(self, tiny_report):
        # 2 conditions x 2 sessions x (16 agents / 4)
        assert len(tiny_report.team_rows) == 16
        for condition in ("random", "self_assembled"):
            assert len(tiny_report.condition_metric(condition, "surface_score")) == 8

    def test_summary_and_stats_sections(self, tiny_report):
        assert {r["condition"] for r in tiny_report.summary_rows} == {
            "random",
            "self_assembled",
        }
        assert {r["metric"] for r in tiny_report.anova_rows} == {
            "surface_score",
            "deep_score",
            "total_score",
            "gender_blau",
            "race_blau",
            "ethnicity_blau",
            "international_blau",
        }
        assert all(r["group_a"] == "random" for r in tiny_report.pairwise_rows)

    def test_balance_rows_cover_attributes(self, tiny_report):
        assert {r["attribute"] for r in tiny_report.balance_rows} <= {
            "gender",
            "race",
            "ethnicity",
            "international",
        }
        assert len(tiny_report.balance_rows) >= 3

    def test_balance_check_rarely_rejects_equal_specs(self):
        # conditions draw from one spec: the chi-squared check should clear
        # 0.05 in at least 90% of seeds
        from teamsim.core import GENDERS
        from teamsim.population import synth_population
        from teamsim.stats import chi2_independence

        clear = 0
        trials = 40
        for seed in range(trials):
            rng = np.random.default_rng(50_000 + seed)
            pops = [synth_population(32, rng=rng) for _ in range(4)]
            table = [[sum(1 for p in pop if p.gender == g) for pop in pops] for g in GENDERS]
            table = [row for row in table if sum(row) > 0]
            if chi2_independence(table).p_value > 0.05:
                clear += 1
        assert clear >= 0.9 * trials

    def test_single_condition_skips_pairwise(self):
        report = run_experiment(
            _tiny_config(conditions=("random",), sessions_per_condition=1)
        )
        assert report.pairwise_rows == []
        assert report.anova_rows == []
        assert report.summary_rows

    def test_exposures_only_from_agency_sessions(self, tiny_report):
        assert tiny_report.exposure_rows
        assert {r["condition"] for r in tiny_report.exposure_rows} == {"self_assembled"}

    def test_deterministic_rerun(self, tiny_report):
        again = run_experiment(_tiny_config())
        assert again.team_rows == tiny_report.team_rows
        assert again.pairwise_rows == tiny_report.pairwise_rows
        assert again.exposure_rows == tiny_report.exposure_rows


class TestReportFiles:
    def test_written_report_is_reproducible_and_parallel_invariant(self, tmp_path):
        # Two GA sessions: at workers 4 two workers have no GA share.
        config = _tiny_config(conditions=("random", "algorithmic_diverse", "self_assembled"))
        out1 = tmp_path / "run1"
        run_experiment(dataclasses.replace(config, output_dir=str(out1)))
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        for workers in (2, 4):
            out = tmp_path / f"run{workers}"
            run_experiment(dataclasses.replace(config, output_dir=str(out), workers=workers))
            assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == files1
            for rel in files1:
                assert (out1 / rel).read_bytes() == (out / rel).read_bytes(), (workers, rel)

    def test_ga_sessions_stepped_together_match_sessions_run_alone(self, tmp_path):
        # Three GA sessions: one search at workers 1, one per worker at 3.
        config = _tiny_config(conditions=("algorithmic_diverse", "random"), sessions_per_condition=3)
        together = run_experiment(dataclasses.replace(config, output_dir=str(tmp_path / "one")))
        spread = run_experiment(dataclasses.replace(config, workers=3, output_dir=str(tmp_path / "three")))
        files = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
        for rel in files:
            assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "three" / rel).read_bytes(), rel
        assert spread.sessions == together.sessions
        # Session k of the spec is seeded by SeedSequence(seed).spawn(total)[k] alone.
        seeds = np.random.SeedSequence(config.seed).spawn(len(together.sessions))
        for seed, session in zip(seeds, together.sessions):
            pop_seq, run_seq = seed.spawn(2)
            population = synth_population(
                config.agents_per_session, config.demographics, rng=np.random.default_rng(pop_seq)
            )
            alone = run_session(
                session.condition,
                population,
                rng=np.random.default_rng(run_seq),
                session_index=session.session_index,
                ga=config.ga,
                policy=config.policy,
                params=config.choice_params,
                rounds=config.rounds,
            )
            assert alone == session

    def test_master_seed_is_spawned_once(self, monkeypatch):
        config = _tiny_config(conditions=("algorithmic_diverse", "random"), sessions_per_condition=3)
        master_spawns = []

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                # The GA seeds its own root sequences from other entropy.
                if not self.spawn_key and self.entropy == config.seed:
                    master_spawns.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        report = run_experiment(config)
        assert master_spawns == [len(report.sessions)] == [6]

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("TEAMSIM_OUTPUT_DIR", str(target))
        report = run_experiment(_tiny_config(output_dir=str(tmp_path / "ignored")))
        assert report.output_dir == target
        assert (target / "team_metrics.csv").exists()

    def test_regenerated_rows_match_live_report(self, tmp_path):
        out = tmp_path / "run"
        report = run_experiment(
            _tiny_config(
                conditions=("random", "algorithmic_diverse", "fairness_aware"),
                sessions_per_condition=1,
                output_dir=str(out),
            )
        )
        regenerated = regenerate_team_rows(out)
        live = sorted(report.team_rows, key=lambda r: (r["condition"], r["session"], r["team"]))
        rebuilt = sorted(regenerated, key=lambda r: (r["condition"], r["session"], r["team"]))
        assert rebuilt == live

    def test_regenerates_manifest_with_old_schema_record(self, tmp_path):
        """Run directories written while the config had a schema section still rebuild."""
        out = tmp_path / "run"
        report = run_experiment(
            _tiny_config(conditions=("random", "fairness_aware"), sessions_per_condition=1, output_dir=str(out))
        )
        manifest = out / "manifest.jsonl"
        records = [json.loads(line) for line in manifest.read_text().splitlines()]
        (config,) = [r for r in records if r["kind"] == "config"]
        assert "schema" not in config["config"]
        config["config"]["schema"] = {
            "age_max": 80, "age_min": 18, "ethnicity_k": 2, "gender_k": 3, "international_k": 2, "race_k": 6,
        }
        manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        key = lambda r: (r["condition"], r["session"], r["team"])  # noqa: E731
        assert sorted(regenerate_team_rows(out), key=key) == sorted(report.team_rows, key=key)

    def test_exposures_csv_round_trips_for_audit(self, tmp_path):
        out = tmp_path / "run"
        report = run_experiment(
            _tiny_config(
                conditions=("self_assembled", "fairness_aware"),
                sessions_per_condition=2,
                rounds=8,
                output_dir=str(out),
            )
        )
        rows = read_table(out / "exposures.csv", AUDIT_INPUTS)
        assert len(rows) == len(report.exposure_rows)
        audit = choice_audit(rows)
        assert audit.n_exposures == len(rows)
        assert {r["coefficient"] for r in audit.rows} == {
            "intercept",
            "rank",
            "same_gender",
            "diversity",
            "treatment",
            "interaction",
        }

    def test_regenerate_names_a_refused_partition_file(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(
            _tiny_config(conditions=("random", "fairness_aware"), sessions_per_condition=1, output_dir=str(out))
        )
        partition = out / "partitions" / "random_000.json"
        partition.write_text(json.dumps({"teams": [["p0001"]]}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"random_000\.json, line 1: missing field 'solos'"):
            regenerate_team_rows(out)

    def test_manifest_that_lists_a_session_twice_is_refused(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(_tiny_config(output_dir=str(out)))
        manifest = out / "manifest.jsonl"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        assert len(regenerate_team_rows(out)) == len((out / "team_metrics.csv").read_text().splitlines()) - 1
        manifest.write_text("\n".join([*lines, lines[2]]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"manifest\.jsonl, line {len(lines) + 1}: session random_000 is listed twice"):
            regenerate_team_rows(out)


@pytest.fixture(scope="module")
def four_condition_run(tmp_path_factory):
    """A run directory that holds every table of TABLE_COLUMNS."""
    out = tmp_path_factory.mktemp("tables")
    report = run_experiment(_tiny_config(conditions=CONDITIONS, sessions_per_condition=2, output_dir=str(out)))
    return report, out


@pytest.mark.parametrize("name", sorted(TABLE_COLUMNS))
def test_table_round_trips(four_condition_run, name):
    report, out = four_condition_run
    rows = {
        "team_metrics.csv": report.team_rows,
        "condition_summary.csv": report.summary_rows,
        "anova.csv": report.anova_rows,
        "pairwise.csv": report.pairwise_rows,
        "balance.csv": report.balance_rows,
        "exposures.csv": report.exposure_rows,
    }[name]
    columns = TABLE_COLUMNS[name]
    assert rows
    assert tuple((out / name).read_text(encoding="utf-8").splitlines()[0].split(",")) == columns
    assert read_table(out / name, columns) == [{c: str(row[c]) for c in columns} for row in rows]


@pytest.mark.parametrize("kind", ["manifest", "population", "partition", "event log"])
def test_json_lines_files_round_trip(four_condition_run, kind):
    """Each JSON-lines file of a run reads back as the values it was written from."""
    report, out = four_condition_run
    if kind == "manifest":
        config, sessions = read_manifest(out)
        assert ExperimentConfig.from_dict(config) == dataclasses.replace(report.config, output_dir=None)
        assert sessions == [
            {
                "kind": "session",
                "condition": s.condition,
                "index": s.session_index,
                "spawn_index": spawn_index,
                "n_teams": len(s.partition.teams),
                "n_solos": len(s.partition.solos),
                "moments": s.moments.to_dict() if s.moments else None,
            }
            for spawn_index, s in enumerate(report.sessions)
        ]
        return
    logged = 0
    for s in report.sessions:
        stem = session_stem(s.condition, s.session_index)
        if kind == "population":
            assert load_population(out / "populations" / f"{stem}.jsonl") == s.population
        elif kind == "partition":
            assert read_json_lines(out / "partitions" / f"{stem}.json", Partition.from_dict) == [s.partition]
        elif s.events:
            assert read_log(out / "events" / f"{stem}.jsonl") == (sorted(p.id for p in s.population), list(s.events))
            logged += 1
    assert kind != "event log" or logged == 2 * 2


def _source_uses(source: str):
    """([(module.name, enclosing function, printed)] for each reference to a
    module attribute in source, printed telling whether it is inside a
    print(...) or sys.stderr.write(...) call; count of f-string fields
    formatted as :03d, the session stem's index format; the modules and the
    module.name of each from-import that source imports)."""
    references, imports = [], set()
    stems = 0

    def visit(node, function, printed):
        nonlocal stems
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            printed = printed or ast.unparse(node.func) in ("print", "sys.stderr.write")
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            references.append((f"{node.value.id}.{node.attr}", function, printed))
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            stems += ast.unparse(node.format_spec) == "f'03d'"
        if isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            imports.update(f"{node.module}.{alias.name}" for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, function, printed)

    visit(ast.parse(source), None, False)
    return references, stems, imports


def _package_sources():
    for path in sorted(Path(teamsim.stats.__file__).parent.glob("*.py")):
        yield path.name, _source_uses(path.read_text(encoding="utf-8"))


def test_files_are_parsed_only_by_the_two_readers():
    """CSV and JSON lines are parsed only in core.read_table and
    core.read_json_lines, and the session stem is formatted in one place."""
    parsers = {"csv.DictReader", "csv.reader", "json.loads"}
    uses, stems = [], 0
    for name, (references, count, _) in _package_sources():
        uses += [(name, reference, function) for reference, function, _ in references if reference in parsers]
        stems += count
    assert {(path, function) for path, _, function in uses} == {
        ("core.py", "read_table"),
        ("core.py", "read_json_lines"),
    }, uses
    assert stems == 1


def test_files_are_written_only_by_the_two_writers():
    """JSON and CSV are formatted only in core.write_json_lines and
    core.write_csv, apart from the JSON lines that cli.py prints to stdout
    and stderr. Only core imports csv; json is imported by core, by cli for
    what it prints and by experiment for the config file."""
    writers = {"json.dumps", "json.dump", "json.JSONEncoder", "csv.writer", "csv.DictWriter"}
    uses, imports = [], set()
    for name, (references, _, modules) in _package_sources():
        uses += [
            (name, function)
            for reference, function, printed in references
            if reference in writers and not (name == "cli.py" and printed)
        ]
        imports |= {(name, module) for module in modules if module.split(".")[0] in ("csv", "json")}
    assert set(uses) == {("core.py", "write_json_lines"), ("core.py", "write_csv")}, uses
    assert imports == {("core.py", "csv"), ("core.py", "json"), ("cli.py", "json"), ("experiment.py", "json")}


class TestChoiceAudit:
    def _rows_from_batch(self, batch):
        return [
            {
                "rank_z": batch.rank_z[i],
                "same_gender": batch.same_gender[i],
                "diversity_z": batch.diversity_z[i],
                "treatment": batch.treatment[i],
                "selected": batch.selected[i],
            }
            for i in range(len(batch.selected))
        ]

    def test_refuses_thin_data(self):
        batch = simulate_exposures(ChoiceModelParams(), 200, np.random.default_rng(1))
        with pytest.raises(AuditError, match="at least"):
            choice_audit(self._rows_from_batch(batch))

    def test_recovers_generating_interaction(self):
        batch = simulate_exposures(ChoiceModelParams(), 8000, np.random.default_rng(2))
        audit = choice_audit(self._rows_from_batch(batch))
        assert abs(audit.recovered("interaction") - 0.95) < 0.15
        assert not audit.warnings

    def test_constant_treatment_dropped_with_warning(self):
        batch = simulate_exposures(
            ChoiceModelParams(), 3000, np.random.default_rng(3), treatment_share=0.0
        )
        audit = choice_audit(self._rows_from_batch(batch))
        names = {r["coefficient"] for r in audit.rows}
        assert "treatment" not in names and "interaction" not in names
        assert len(audit.warnings) == 2

    def test_shuffled_outcomes_give_null_slopes(self):
        rng = np.random.default_rng(4)
        batch = simulate_exposures(ChoiceModelParams(), 8000, rng)
        rows = self._rows_from_batch(batch)
        shuffled = [int(batch.selected[i]) for i in rng.permutation(len(rows))]
        for row, y in zip(rows, shuffled):
            row["selected"] = y
        audit = choice_audit(rows)
        for row in audit.rows:
            if row["coefficient"] != "intercept":
                assert abs(row["recovered"]) < 0.12
