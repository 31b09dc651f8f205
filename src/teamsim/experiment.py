"""End-to-end 2x2 experiment runner, reporting, and the choice-model audit.

Sessions are independent and seeded from one master seed: session k of
the spec (conditions in config order, then session index) draws its
population and its generator from SeedSequence(seed).spawn(total)[k].spawn(2),
and k is the manifest's spawn_index. So the report is byte-identical at
any worker count. Team-level metrics feed permutation ANOVA, pairwise
comparisons with Benjamini-Hochberg adjustment, and chi-squared
demographic balance checks.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Mapping, Sequence

import numpy as np

from . import __version__
from .agents import FIXED_EFFECTS, AgentPolicy, ChoiceModelParams, Exposure, design_matrix
from .core import (
    GENDERS,
    RACES,
    TEAM_SIZE,
    Participant,
    Partition,
    _is_int,
    read_json_lines,
    write_csv,
    write_json_lines,
)
from .optimizer import GaConfig
from .population import DemographicSpec, load_population, save_population, synth_population
from .protocol import read_log, replay, write_log
from .session import CONDITIONS, SessionResult, run_ga_sessions, run_session, session_result
from .stats import LogisticFit, chi2_independence, logistic_fit, permutation_tests

OUTPUT_DIR_ENV = "TEAMSIM_OUTPUT_DIR"

REPORT_METRICS = (
    "surface_score",
    "deep_score",
    "total_score",
    "gender_blau",
    "race_blau",
    "ethnicity_blau",
    "international_blau",
)

# The columns of each CSV file of a run directory, in file order.
TABLE_COLUMNS = {
    "team_metrics.csv": ("condition", "session", "team", "size", *REPORT_METRICS, "age_cv"),
    "condition_summary.csv": ("condition", "metric", "n_teams", "mean", "sd"),
    "anova.csv": ("metric", "f_stat", "p_value"),
    "pairwise.csv": ("metric", "group_a", "group_b", "delta", "p_value", "p_adjusted"),
    "balance.csv": ("attribute", "chi2", "df", "p_value"),
    "exposures.csv": ("condition", "session", *(f.name for f in dataclasses.fields(Exposure))),
}

# The exposures.csv columns that the choice audit reads.
AUDIT_INPUTS = ("rank_z", "same_gender", "diversity_z", "treatment", "selected")

MIN_EXPOSURES_PER_COEFFICIENT = 50


class AuditError(ValueError):
    """The audit cannot run on the provided exposures."""


@dataclass(frozen=True)
class ExperimentConfig:
    conditions: tuple[str, ...] = CONDITIONS
    sessions_per_condition: int = 40
    agents_per_session: int = 32
    rounds: int = 10
    seed: int = 0
    workers: int = 1
    output_dir: str | None = None
    ga: GaConfig = field(default_factory=GaConfig)
    policy: AgentPolicy = field(default_factory=AgentPolicy)
    choice_params: ChoiceModelParams = field(default_factory=ChoiceModelParams)
    demographics: DemographicSpec = field(default_factory=DemographicSpec)
    # Not a setting: the benchmark reads the team size from its configs.
    team_size: ClassVar[int] = TEAM_SIZE

    def __post_init__(self) -> None:
        if not self.conditions:
            raise ValueError("need at least one condition")
        unknown = [c for c in self.conditions if c not in CONDITIONS]
        if unknown:
            raise ValueError(f"unknown conditions {unknown}")
        if len(set(self.conditions)) != len(self.conditions):
            raise ValueError("duplicate conditions")
        for name, low in (
            ("sessions_per_condition", 1),
            ("agents_per_session", 2 * TEAM_SIZE),
            ("rounds", 1),
            ("seed", 0),
            ("workers", 1),
        ):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.ga.rng_seed != 0:
            raise ValueError("ga.rng_seed is not a setting: each GA session is seeded from seed")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["conditions"] = list(self.conditions)
        del d["ga"]["rng_seed"]
        return d

    @classmethod
    def from_dict(cls, d) -> "ExperimentConfig":
        """Config from JSON data: a mapping with mappings as nested configs,
        refusing keys that to_dict does not write. A value of the wrong type
        raises ValueError, as a malformed event does in replay."""
        if not isinstance(d, Mapping):
            raise ValueError(f"a config must be a mapping, got {type(d).__name__}")
        kwargs = dict(d)
        known = cls().to_dict()
        _reject_unknown_keys(known, kwargs)
        try:
            if "conditions" in kwargs:
                kwargs["conditions"] = tuple(kwargs["conditions"])
            for key, sub in (
                ("ga", GaConfig),
                ("policy", AgentPolicy),
                ("choice_params", ChoiceModelParams),
                ("demographics", DemographicSpec),
            ):
                if key not in kwargs:
                    continue
                if not isinstance(kwargs[key], Mapping):
                    raise ValueError(
                        f"config key {key!r} must be a mapping, got {type(kwargs[key]).__name__}"
                    )
                sub_kwargs = dict(kwargs[key])
                _reject_unknown_keys(known[key], sub_kwargs, f"{key}.")
                for name, value in sub_kwargs.items():
                    if isinstance(value, list):
                        sub_kwargs[name] = tuple(value)
                kwargs[key] = sub(**sub_kwargs)
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"malformed config value: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None


def _reject_unknown_keys(known: Mapping, data: Mapping, prefix: str = "") -> None:
    unknown = [prefix + key for key in sorted(data) if key not in known]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")


def _session_inputs(
    config: ExperimentConfig, seed: np.random.SeedSequence
) -> tuple[list[Participant], np.random.Generator]:
    """(population, session generator) of the session seeded by seed."""
    pop_seq, run_seq = seed.spawn(2)
    population = synth_population(
        config.agents_per_session, config.demographics, rng=np.random.default_rng(pop_seq)
    )
    return population, np.random.default_rng(run_seq)


def _run_sessions(
    config: ExperimentConfig, condition: str, units: Sequence[tuple[int, np.random.SeedSequence]]
) -> list[SessionResult]:
    """The sessions of condition, one per (session index, seed): GA sessions
    stepped together in one search, the others one at a time."""
    inputs = [_session_inputs(config, seed) for _, seed in units]
    if condition == "algorithmic_diverse":
        return run_ga_sessions(
            [population for population, _ in inputs],
            [rng for _, rng in inputs],
            session_indices=[index for index, _ in units],
            ga=config.ga,
        )
    return [
        run_session(
            condition,
            population,
            rng=rng,
            session_index=index,
            policy=config.policy,
            params=config.choice_params,
            rounds=config.rounds,
        )
        for (index, _), (population, rng) in zip(units, inputs)
    ]


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    sessions: list[SessionResult]
    team_rows: list[dict]
    summary_rows: list[dict]
    anova_rows: list[dict]
    pairwise_rows: list[dict]
    balance_rows: list[dict]
    exposure_rows: list[dict]
    output_dir: Path | None = None

    def condition_metric(self, condition: str, metric: str) -> list[float]:
        return [row[metric] for row in self.team_rows if row["condition"] == condition]

    def pairwise(self, metric: str, group_a: str, group_b: str) -> dict:
        a, b = sorted((group_a, group_b))
        for row in self.pairwise_rows:
            if row["metric"] == metric and row["group_a"] == a and row["group_b"] == b:
                return row
        raise KeyError(f"no pairwise row for {metric} {a} vs {b}")


def _team_rows(sessions: Sequence[SessionResult]) -> list[dict]:
    rows = []
    for s in sessions:
        for team, profile in zip(s.partition.teams, s.profiles):
            row = {
                "condition": s.condition,
                "session": s.session_index,
                "team": "+".join(team.sorted_ids()),
                "size": len(team),
            }
            # The columns after the team's own are DiversityProfile fields.
            row.update((metric, getattr(profile, metric)) for metric in TABLE_COLUMNS["team_metrics.csv"][len(row) :])
            rows.append(row)
    return rows


def _summary_rows(
    groups_by_metric: Mapping[str, Mapping[str, list[float]]], conditions: Sequence[str]
) -> list[dict]:
    rows = []
    for condition in conditions:
        for metric, groups in groups_by_metric.items():
            values = np.asarray(groups[condition])
            rows.append(
                {
                    "condition": condition,
                    "metric": metric,
                    "n_teams": int(values.size),
                    "mean": float(values.mean()) if values.size else float("nan"),
                    "sd": float(values.std()) if values.size else float("nan"),
                }
            )
    return rows


def metric_groups(
    team_rows: Sequence[dict], conditions: Sequence[str], metrics: Sequence[str]
) -> dict[str, dict[str, list[float]]]:
    """metric -> condition -> that condition's team values, as floats."""
    return {
        metric: {
            condition: [float(r[metric]) for r in team_rows if r["condition"] == condition]
            for condition in conditions
        }
        for metric in metrics
    }


def stats_tables(
    groups_by_metric: Mapping[str, Mapping[str, Sequence[float]]], seed: int
) -> tuple[list[dict], list[dict]]:
    """(anova rows, pairwise rows) over metrics; metrics with fewer than two
    groups are skipped. All tests run in one permutation_tests call, which
    draws one permutation stream per pooled size."""
    tested = {metric: groups for metric, groups in groups_by_metric.items() if len(groups) >= 2}
    anovas, diffs = permutation_tests(tested, tested, seed=seed)
    anova_rows: list[dict] = []
    pairwise_rows: list[dict] = []
    for metric in tested:
        result = anovas[metric]
        anova_rows.append({"metric": metric, "f_stat": result.f_stat, "p_value": result.p_value})
        for diff in diffs[metric]:
            pairwise_rows.append(
                {
                    "metric": metric,
                    "group_a": diff.group_a,
                    "group_b": diff.group_b,
                    "delta": diff.delta,
                    "p_value": diff.p_value,
                    "p_adjusted": diff.p_adjusted,
                }
            )
    return anova_rows, pairwise_rows


def _balance_tables(sessions: Sequence[SessionResult], conditions: Sequence[str]) -> list[dict]:
    """Chi-squared demographic balance across conditions.

    Categories absent from every condition are dropped before testing so
    sparse levels (e.g. a race synthesized zero times) cannot zero a
    marginal.
    """
    populations: dict[str, list[Participant]] = {c: [] for c in conditions}
    for s in sessions:
        populations[s.condition].extend(s.population)
    attributes = {
        "gender": (GENDERS, lambda p: p.gender),
        "race": (RACES, lambda p: p.race),
        "ethnicity": (("Hispanic", "NonHispanic"), lambda p: "Hispanic" if p.hispanic else "NonHispanic"),
        "international": (("International", "Domestic"), lambda p: "International" if p.international else "Domestic"),
    }
    rows = []
    for name, (categories, getter) in attributes.items():
        table = np.array(
            [
                [sum(1 for p in populations[c] if getter(p) == category) for c in conditions]
                for category in categories
            ],
            dtype=float,
        )
        table = table[table.sum(axis=1) > 0]
        if table.shape[0] < 2 or len(conditions) < 2:
            continue
        result = chi2_independence(table)
        rows.append(
            {
                "attribute": name,
                "chi2": result.statistic,
                "df": result.df,
                "p_value": result.p_value,
            }
        )
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every configured session, aggregate metrics, run the stats suite,
    and (when an output directory is configured) persist the full report."""
    n = config.sessions_per_condition
    seeds = np.random.SeedSequence(config.seed).spawn(len(config.conditions) * n)
    units = []
    for position, condition in enumerate(config.conditions):
        indexed_seeds = list(enumerate(seeds[position * n : (position + 1) * n]))
        if condition == "algorithmic_diverse":
            # Each worker steps its share of the GA sessions together, in one
            # search. The shares go first: they run longest.
            units[:0] = [(condition, indexed_seeds[w :: config.workers]) for w in range(min(config.workers, n))]
        else:
            units += [(condition, [indexed_seed]) for indexed_seed in indexed_seeds]
    conditions, shares = zip(*units)
    run = functools.partial(_run_sessions, config)
    if config.workers > 1:
        # Imported here: the process pool and multiprocessing cost an import
        # that a one-worker run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            runs = list(pool.map(run, conditions, shares))
    else:
        runs = map(run, conditions, shares)
    order = {condition: position for position, condition in enumerate(config.conditions)}
    sessions = sorted(
        (session for run_sessions in runs for session in run_sessions),
        key=lambda s: (order[s.condition], s.session_index),
    )

    team_rows = _team_rows(sessions)
    groups_by_metric = metric_groups(team_rows, config.conditions, REPORT_METRICS)
    summary_rows = _summary_rows(groups_by_metric, config.conditions)
    anova_rows, pairwise_rows = stats_tables(groups_by_metric, config.seed)
    balance_rows = _balance_tables(sessions, config.conditions)

    exposure_rows = [
        {"condition": s.condition, "session": s.session_index, **vars(e)} for s in sessions for e in s.exposures
    ]

    report = ExperimentReport(
        config=config,
        sessions=sessions,
        team_rows=team_rows,
        summary_rows=summary_rows,
        anova_rows=anova_rows,
        pairwise_rows=pairwise_rows,
        balance_rows=balance_rows,
        exposure_rows=exposure_rows,
    )
    out_dir = resolve_output_dir(config)
    if out_dir is not None:
        write_report(report, out_dir)
        report.output_dir = out_dir
    return report


def resolve_output_dir(config: ExperimentConfig) -> Path | None:
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    if config.output_dir:
        return Path(config.output_dir)
    return None


def write_report(report: ExperimentReport, out_dir: Path) -> None:
    """Persist tables, manifest, per-session artifacts, and the text summary."""
    out_dir = Path(out_dir)
    (out_dir / "events").mkdir(parents=True, exist_ok=True)
    (out_dir / "populations").mkdir(exist_ok=True)
    (out_dir / "partitions").mkdir(exist_ok=True)

    tables = {
        "team_metrics.csv": report.team_rows,
        "condition_summary.csv": report.summary_rows,
        "anova.csv": report.anova_rows,
        "pairwise.csv": report.pairwise_rows,
        "balance.csv": report.balance_rows,
        "exposures.csv": report.exposure_rows,
    }
    for name, rows in tables.items():
        # Tables a run has no rows for are not written: a run of one condition
        # tests nothing, and a run without agency sessions logs no exposures.
        if rows:
            write_csv(out_dir / name, rows, TABLE_COLUMNS[name])

    write_json_lines(out_dir / "manifest.jsonl", _manifest_records(report))

    for s in report.sessions:
        stem = session_stem(s.condition, s.session_index)
        save_population(out_dir / "populations" / f"{stem}.jsonl", s.population)
        write_json_lines(out_dir / "partitions" / f"{stem}.json", [s.partition.to_dict()])
        if s.events:
            write_log(out_dir / "events" / f"{stem}.jsonl", [p.id for p in s.population], s.events)

    (out_dir / "report.txt").write_text(render_report_text(report), encoding="utf-8")


def render_report_text(report: ExperimentReport) -> str:
    lines = []
    lines.append("team formation experiment report")
    lines.append(
        f"conditions={','.join(report.config.conditions)} "
        f"sessions={report.config.sessions_per_condition} "
        f"agents={report.config.agents_per_session} seed={report.config.seed}"
    )
    lines.append("")
    lines.append("condition means (teams)")
    for row in report.summary_rows:
        lines.append(
            f"  {row['condition']:<22} {row['metric']:<20} "
            f"n={row['n_teams']:<4} mean={row['mean']:.4f} sd={row['sd']:.4f}"
        )
    if report.anova_rows:
        lines.append("")
        lines.append("one-way permutation ANOVA")
        for row in report.anova_rows:
            lines.append(
                f"  {row['metric']:<20} F={row['f_stat']:.4f} p={row['p_value']:.4f}"
            )
    if report.pairwise_rows:
        lines.append("")
        lines.append("pairwise mean differences (delta = B - A, BH adjusted)")
        for row in report.pairwise_rows:
            lines.append(
                f"  {row['metric']:<20} {row['group_a']} vs {row['group_b']}: "
                f"delta={row['delta']:+.4f} p={row['p_value']:.4f} p_adj={row['p_adjusted']:.4f}"
            )
    if report.balance_rows:
        lines.append("")
        lines.append("demographic balance (chi-squared)")
        for row in report.balance_rows:
            lines.append(
                f"  {row['attribute']:<15} chi2={row['chi2']:.4f} df={row['df']} p={row['p_value']:.4f}"
            )
    lines.append("")
    return "\n".join(lines)


@dataclass
class AuditReport:
    rows: list[dict]
    warnings: list[str]
    n_exposures: int
    fit: LogisticFit

    def recovered(self, name: str) -> float | None:
        for row in self.rows:
            if row["coefficient"] == name:
                return row["recovered"]
        return None


def choice_audit(
    exposure_rows: Sequence[dict], params: ChoiceModelParams = ChoiceModelParams()
) -> AuditReport:
    """Fit the invitation model on pooled exposures and compare against the
    generating coefficients.

    Constant predictor columns (for example treatment when only
    self_assembled sessions ran) are dropped with a warning rather than
    producing a singular fit.
    """
    n = len(exposure_rows)
    needed = MIN_EXPOSURES_PER_COEFFICIENT * len(FIXED_EFFECTS)
    if n < needed:
        raise AuditError(
            f"need at least {needed} exposures ({MIN_EXPOSURES_PER_COEFFICIENT} per coefficient), "
            f"got {n}; run more or longer agency sessions"
        )
    *predictors, y = (np.asarray([float(r[c]) for r in exposure_rows]) for c in AUDIT_INPUTS)
    columns = dict(zip(FIXED_EFFECTS, design_matrix(*predictors).T))
    warnings = []
    kept = ["intercept"]
    for name in FIXED_EFFECTS[1:]:
        if np.ptp(columns[name]) == 0.0:
            warnings.append(f"dropped constant column {name!r}")
        else:
            kept.append(name)
    X = np.column_stack([columns[name] for name in kept])
    fit = logistic_fit(X, y)
    generating = params.named_fixed_effects()
    rows = []
    for i, name in enumerate(kept):
        rows.append(
            {
                "coefficient": name,
                "generating": generating[name],
                "recovered": float(fit.coefficients[i]),
                "se": float(fit.standard_errors[i]),
                "abs_error": abs(float(fit.coefficients[i]) - generating[name]),
            }
        )
    return AuditReport(rows=rows, warnings=warnings, n_exposures=n, fit=fit)


def session_stem(condition: str, index: int) -> str:
    """The file name stem of a session's population, partition and event log."""
    return f"{condition}_{index:03d}"


def _manifest_records(report: ExperimentReport) -> list[dict]:
    """The lines of manifest.jsonl: the version, the config, then one record per session."""
    # workers and output_dir are execution details with no effect on
    # results; the manifest records only what reproduction needs
    config = report.config.to_dict()
    config.pop("workers", None)
    config.pop("output_dir", None)
    records = [{"kind": "version", "teamsim": __version__}, {"kind": "config", "config": config}]
    for spawn_index, s in enumerate(report.sessions):
        records.append(
            {
                "kind": "session",
                "condition": s.condition,
                "index": s.session_index,
                "spawn_index": spawn_index,
                "n_teams": len(s.partition.teams),
                "n_solos": len(s.partition.solos),
                "moments": s.moments.to_dict() if s.moments else None,
            }
        )
    return records


def _manifest_record(record: dict, sessions: set) -> dict:
    """A manifest line, refused if a field that read_manifest returns is
    missing or malformed. sessions holds the (condition, index) pairs of the
    session records read so far: a record that repeats one is refused."""
    if record["kind"] == "config" and not isinstance(record["config"], Mapping):
        raise ValueError(f"field 'config' must be an object, got {record['config']!r}")
    if record["kind"] == "session":
        session = (record["condition"], record["index"])
        if session[0] not in CONDITIONS or not _is_int(session[1]):
            raise ValueError(f"a session record needs a known 'condition' and an integer 'index': {record!r}")
        if session in sessions:
            raise ValueError(f"session {session_stem(*session)} is listed twice")
        sessions.add(session)
    return record


def read_manifest(run_dir) -> tuple[dict, list[dict]]:
    """(config, session records) of the manifest.jsonl in run_dir."""
    path = Path(run_dir) / "manifest.jsonl"
    sessions: set = set()
    records = read_json_lines(path, lambda record: _manifest_record(record, sessions))
    configs = [r["config"] for r in records if r["kind"] == "config"]
    if len(configs) != 1:
        raise ValueError(f"{path}: {len(configs)} config records, expected 1")
    return configs[0], [r for r in records if r["kind"] == "session"]


def regenerate_team_rows(run_dir) -> list[dict]:
    """Rebuild the team-metrics table from persisted artifacts.

    Agency sessions are replayed from their event logs; other conditions
    load their persisted partitions. Used to check replay equivalence of
    the report. Of the config record only its presence is checked, so
    manifests whose config predates the current config format still work.
    """
    run_dir = Path(run_dir)
    sessions = []
    for record in read_manifest(run_dir)[1]:
        stem = session_stem(record["condition"], record["index"])
        population = load_population(run_dir / "populations" / f"{stem}.jsonl")
        log_path = run_dir / "events" / f"{stem}.jsonl"
        if log_path.exists():
            members, events = read_log(log_path)
            state = replay(members, events)
            state.check_invariants()
            partition = state.partition()
        else:
            partition_path = run_dir / "partitions" / f"{stem}.json"
            partitions = read_json_lines(partition_path, Partition.from_dict)
            if len(partitions) != 1:
                raise ValueError(f"{partition_path}: {len(partitions)} partitions, expected 1")
            partition = partitions[0]
        sessions.append(session_result(record["condition"], population, partition, record["index"]))
    return _team_rows(sessions)
