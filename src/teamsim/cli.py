"""Command-line interface.

Subcommands: synth, assign, recommend, run, analyze, audit, replay.
Errors print one machine-readable JSON line to stderr and exit nonzero:
usage errors exit 2 (argparse), bad input and bad configs exit 3, runtime
errors exit 4.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import SKILL_NAMES, population_lookup, read_table, write_csv
from .experiment import (
    AUDIT_INPUTS,
    REPORT_METRICS,
    TABLE_COLUMNS,
    ExperimentConfig,
    choice_audit,
    metric_groups,
    read_manifest,
    run_experiment,
    stats_tables,
)
from .optimizer import GaConfig, brute_force_partition, ga_partition, objectives, random_partition
from .population import load_population, save_population, synth_population
from .protocol import AssemblyError, read_log, replay
from .recommender import Criterion, Query, rank_candidates
from .session import CONDITIONS

EXIT_OK = 0
EXIT_INPUT = 3
EXIT_RUNTIME = 4


def _fail(category: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": category, "message": message}) + "\n")
    return code


def _partition_payload(partition, lookup) -> dict:
    surface, deep = objectives(partition, lookup)
    return {
        **partition.to_dict(),
        "surface_objective": surface,
        "deep_objective": deep,
        "total_objective": surface + deep,
    }


def _cmd_synth(args) -> int:
    rng = np.random.default_rng(args.seed)
    population = synth_population(args.n, rng=rng)
    save_population(args.out, population)
    print(f"wrote {len(population)} participants to {args.out}")
    return EXIT_OK


def _cmd_assign(args) -> int:
    population = load_population(args.population)
    lookup = population_lookup(population)
    if args.mode == "random":
        partition = random_partition(population, rng=np.random.default_rng(args.seed))
    elif args.mode == "ga":
        config = GaConfig(
            generations=args.generations,
            population_size=args.ga_population,
            swap_attempts=args.swap_attempts,
            rng_seed=args.seed,
        )
        _, partition = ga_partition(population, config)
    else:
        result = brute_force_partition(population)
        partition = result.best_total_partitions[0]
        print(json.dumps({"partitions_enumerated": result.n_partitions}))
    print(json.dumps(_partition_payload(partition, lookup), sort_keys=True))
    return EXIT_OK


def _parse_query(searcher_id: str, specs: list[str]) -> Query:
    criteria = []
    for spec in specs:
        if "=" not in spec:
            raise ValueError(f"criterion spec {spec!r} must look like kind=weight")
        kind_part, weight = spec.split("=", 1)
        importance = int(weight)
        if kind_part.startswith("skill:"):
            skill_key = kind_part.split(":", 1)[1]
            skill = int(skill_key) if skill_key.isdigit() else SKILL_NAMES.index(skill_key)
            criteria.append(Criterion(kind="skill", importance=importance, skill=skill))
        else:
            criteria.append(Criterion(kind=kind_part, importance=importance))
    return Query(searcher_id=searcher_id, criteria=tuple(criteria))


def _cmd_recommend(args) -> int:
    population = load_population(args.population)
    lookup = population_lookup(population)
    query = _parse_query(args.searcher, args.criterion)
    team = [args.searcher] + (args.team.split(",") if args.team else [])
    pool = [p.id for p in population if p.id not in team]
    recs = rank_candidates(
        query,
        pool,
        lookup=lookup,
        mode=args.mode,
        searcher_team=team,
        page=args.page,
    )
    for rec in recs:
        print(
            json.dumps(
                {
                    "rank": rec.rank,
                    "candidate": rec.candidate_id,
                    "fit": rec.fit_score,
                    "diversity": rec.diversity_score,
                    "combined": rec.combined_score,
                    "match_percent": rec.match_percent,
                },
                sort_keys=True,
            )
        )
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.config:
        config = ExperimentConfig.from_json_file(args.config)
    else:
        config = ExperimentConfig()
    overrides = {}
    if args.out:
        overrides["output_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.sessions is not None:
        overrides["sessions_per_condition"] = args.sessions
    if args.agents is not None:
        overrides["agents_per_session"] = args.agents
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.conditions:
        overrides["conditions"] = tuple(args.conditions.split(","))
    if overrides:
        config = dataclasses.replace(config, **overrides)
    if config.output_dir is None:
        config = dataclasses.replace(config, output_dir="teamsim_run")
    report = run_experiment(config)
    print(f"report written to {report.output_dir}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    rows = read_table(args.teams, ("condition", *REPORT_METRICS), dict.fromkeys(REPORT_METRICS, float))
    # first appearance is the run's config order, which fixes the permutation stream
    conditions = list(dict.fromkeys(r["condition"] for r in rows))
    if len(conditions) < 2:
        return _fail("input", f"need at least two conditions to compare, got {conditions}", EXIT_INPUT)
    anova_rows, pairwise_rows = stats_tables(
        metric_groups(rows, conditions, REPORT_METRICS), args.seed
    )
    for row in anova_rows:
        print(f"{row['metric']}: F={row['f_stat']:.4f} p={row['p_value']:.4f}")
        for diff in pairwise_rows:
            if diff["metric"] == row["metric"]:
                print(
                    f"  {diff['group_a']} vs {diff['group_b']}: delta={diff['delta']:+.4f} "
                    f"p={diff['p_value']:.4f} p_adj={diff['p_adjusted']:.4f}"
                )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, table in (("anova.csv", anova_rows), ("pairwise.csv", pairwise_rows)):
            write_csv(out / name, table, TABLE_COLUMNS[name])
        print(f"tables written to {out}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    path = Path(args.exposures)
    if path.is_dir():
        path = path / "exposures.csv"
    rows = read_table(path, AUDIT_INPUTS, dict.fromkeys(AUDIT_INPUTS, float))
    # A run's manifest beside its exposures names the coefficients that generated them.
    params = {}
    if (path.parent / "manifest.jsonl").is_file():
        params = read_manifest(path.parent)[0].get("choice_params", {})
    report = choice_audit(rows, ExperimentConfig.from_dict({"choice_params": params}).choice_params)
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(f"n_exposures={report.n_exposures} converged={report.fit.converged}")
    for row in report.rows:
        print(
            f"  {row['coefficient']:<12} generating={row['generating']:+.3f} "
            f"recovered={row['recovered']:+.3f} se={row['se']:.3f} abs_error={row['abs_error']:.3f}"
        )
    return EXIT_OK


def _cmd_replay(args) -> int:
    members, events = read_log(args.events)
    state = replay(members, events)
    state.check_invariants()
    print(
        json.dumps(
            {
                "events": len(events),
                "members": len(members),
                "merges": state.merged_count(),
                "groups": [list(g) for g in state.groups()],
                "invariants": "ok",
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="teamsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"teamsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a population file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path (.jsonl or .csv)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("assign", help="partition a population into teams")
    p.add_argument("--population", required=True)
    p.add_argument("--mode", choices=("random", "ga", "oracle"), default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generations", type=int, default=20)
    p.add_argument("--ga-population", type=int, default=50)
    p.add_argument("--swap-attempts", type=int, default=None)
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("recommend", help="rank teammate candidates for a query")
    p.add_argument("--population", required=True)
    p.add_argument("--searcher", required=True)
    p.add_argument("--team", default="", help="comma-separated current teammate ids")
    p.add_argument(
        "--criterion",
        action="append",
        required=True,
        help="kind=weight, e.g. same_gender=2 or skill:visual_design=3 (repeatable)",
    )
    p.add_argument("--mode", choices=("fit_only", "fairness"), default="fit_only")
    p.add_argument("--page", type=int, default=1)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("run", help="run the full experiment")
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sessions", type=int, default=None)
    p.add_argument("--agents", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--conditions", help=f"comma-separated subset of {','.join(CONDITIONS)}")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("analyze", help="ANOVA + pairwise report from a team metrics table")
    p.add_argument("--teams", required=True, help="team_metrics.csv path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write anova.csv and pairwise.csv here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("audit", help="choice-model recovery on logged exposures")
    p.add_argument("--exposures", required=True, help="exposures.csv or a run directory")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("replay", help="validate an event log against the assembly rules")
    p.add_argument("--events", required=True)
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AssemblyError as exc:
        return _fail("protocol", str(exc), EXIT_INPUT)
    except FileNotFoundError as exc:
        return _fail("io", str(exc), EXIT_INPUT)
    except (ValueError, KeyError) as exc:
        return _fail("input", str(exc), EXIT_INPUT)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
