"""The benchmark's workloads.

Each workload builds its inputs from the seed: a few variants of one
experiment, each with its own seed derived from the workload seed. A
repetition runs one variant through the public teamsim API (the timed
part); afterwards its outputs are checked and digested, and the team values
the quality figures pool over all variants are read. Averaging over variants
keeps one seed's session dynamics from setting a run's work and quality.
Nothing here imports teamsim at module level: the set-up time starts before
``import teamsim``.

- paper_2x2: the paper's 2x2 experiment (random, GA, self-assembled and
  fairness-aware sessions of 32 agents), writing the full run directory.
  GA sessions and the fixed-cost permutation statistics do most of the work.
- agency_n128: self-assembled and fairness-aware sessions of 128 agents,
  the run directory, then the choice-model audit on the exposures. The
  recommender does most of the work; there is no GA.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
from pathlib import Path

# Run sizes. "full" is the benchmark; "tiny" exists for the smoke test.
SIZES = {
    "full": {
        "paper_2x2": {"variants": 2, "sessions": 2, "agents": 32},
        "agency_n128": {"variants": 3, "sessions": 3, "agents": 128},
    },
    "tiny": {
        "paper_2x2": {"variants": 2, "sessions": 1, "agents": 16},
        "agency_n128": {"variants": 2, "sessions": 1, "agents": 32},
    },
}


class Checks:
    """Pass/fail record of the correctness checks of one run.

    Invariant checks decide whether the run's outputs are correct. Effect
    checks are the paper's orderings; on a finite sample they fail with a
    small probability, so they are reported but do not mark outputs wrong.
    """

    def __init__(self) -> None:
        self.invariant: list[tuple[str, bool]] = []
        self.effect: list[tuple[str, bool]] = []

    def expect(self, name: str, check) -> None:
        """Record check(), a callable returning a bool; raising fails it."""
        try:
            ok = bool(check())
        except Exception as exc:  # a failed check is recorded, not fatal
            name = f"{name} ({type(exc).__name__}: {exc})"
            ok = False
        self.invariant.append((name, ok))

    def effect_holds(self, name: str, ok: bool) -> None:
        self.effect.append((name, bool(ok)))

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.invariant if not ok]


def digest_dir(path: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under path."""
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(file.relative_to(path).as_posix().encode("utf-8") + b"\0")
        h.update(file.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class ExperimentWorkload:
    """run_experiment with workers=1 into a fresh run directory."""

    # (condition, metric) pairs of the team values the quality figures use.
    TEAM_VALUES: tuple[tuple[str, str], ...] = ()

    def __init__(
        self,
        seed: int,
        conditions: tuple[str, ...],
        variants: int,
        sessions: int,
        agents: int,
        audit: bool,
    ):
        import teamsim

        self.teamsim = teamsim
        self.configs = [
            teamsim.ExperimentConfig(
                conditions=conditions,
                sessions_per_condition=sessions,
                agents_per_session=agents,
                seed=seed * variants + variant,
                workers=1,
            )
            for variant in range(variants)
        ]
        self.audit = audit

    @property
    def variants(self) -> int:
        return len(self.configs)

    @property
    def min_reps(self) -> int:
        """Every variant once, then variant 0 again as the byte-identical rerun."""
        return self.variants + 1

    def run(self, out_dir: Path, variant: int):
        report = self.teamsim.run_experiment(
            dataclasses.replace(self.configs[variant], output_dir=str(out_dir))
        )
        audit = self.teamsim.choice_audit(report.exposure_rows) if self.audit else None
        return report, audit

    def digest(self, result, out_dir: Path) -> str:
        return digest_dir(out_dir)

    def check(self, result, out_dir: Path, checks: Checks) -> None:
        from teamsim.protocol import read_log, replay

        report, audit = result
        for s in report.sessions:
            sid = f"{s.condition}:{s.session_index}"
            ids = [p.id for p in s.population]
            checks.expect(
                f"partition covers population {sid}",
                lambda s=s, ids=ids: s.partition.validate(ids) is None,
            )
            if s.condition in ("self_assembled", "fairness_aware"):
                log = out_dir / "events" / f"{s.condition}_{s.session_index:03d}.jsonl"

                def replays(log=log, s=s) -> bool:
                    members, events = read_log(log)
                    state = replay(members, events)
                    state.check_invariants()
                    return state.partition() == s.partition

                checks.expect(f"event log replays to the partition {sid}", replays)
        if self.audit:
            checks.expect("audit fit converged", lambda: audit.fit.converged)

    def team_values(self, result) -> dict[tuple[str, str], list[float]]:
        report, _ = result
        return {key: list(report.condition_metric(*key)) for key in self.TEAM_VALUES}

    def outputs(self, result, out_dir: Path) -> dict:
        """Counts read from the outputs: protocol events and the files written."""
        from teamsim.protocol import replay

        report, _ = result
        out = dict.fromkeys(
            ("events", "invitations", "merges", "fill_members", "agency_members"), 0
        )
        for s in report.sessions:
            if not s.events:
                continue
            kinds = [e.kind for e in s.events]
            out["events"] += len(kinds)
            out["invitations"] += kinds.count("invitation_sent")
            out["merges"] += kinds.count("groups_merged")
            # Members already in a full team before the deadline fill ran.
            before_fill = replay(
                [p.id for p in s.population], [e for e in s.events if e.kind != "deadline_fill"]
            )
            full = sum(len(g) for g in before_fill.groups() if len(g) == self.configs[0].team_size)
            placed = sum(len(t) for t in s.partition.teams)
            out["fill_members"] += placed - full
            out["agency_members"] += len(s.population)
        files = [p for p in out_dir.rglob("*") if p.is_file()]
        out["files_written"] = len(files)
        out["bytes_written"] = sum(p.stat().st_size for p in files)
        return out


class Paper2x2(ExperimentWorkload):
    TEAM_VALUES = (
        ("algorithmic_diverse", "surface_score"),
        ("algorithmic_diverse", "total_score"),
        ("self_assembled", "surface_score"),
        ("self_assembled", "total_score"),
        ("fairness_aware", "total_score"),
    )

    def __init__(self, seed: int, variants: int, sessions: int, agents: int):
        super().__init__(
            seed,
            ("random", "algorithmic_diverse", "self_assembled", "fairness_aware"),
            variants,
            sessions,
            agents,
            audit=False,
        )

    def quality(self, values: dict, checks: Checks) -> dict:
        """Quality figures and effect checks over the pooled team values."""
        mean = lambda c, m: statistics.fmean(values[c, m])  # noqa: E731
        checks.effect_holds(
            "mean surface_score algorithmic_diverse > self_assembled",
            mean("algorithmic_diverse", "surface_score") > mean("self_assembled", "surface_score"),
        )
        checks.effect_holds(
            "mean total_score fairness_aware > self_assembled",
            mean("fairness_aware", "total_score") > mean("self_assembled", "total_score"),
        )
        return {"ga_total_score": mean("algorithmic_diverse", "total_score")}


class AgencyN128(ExperimentWorkload):
    TEAM_VALUES = (("self_assembled", "total_score"), ("fairness_aware", "total_score"))

    def __init__(self, seed: int, variants: int, sessions: int, agents: int):
        super().__init__(
            seed, ("self_assembled", "fairness_aware"), variants, sessions, agents, audit=True
        )

    def quality(self, values: dict, checks: Checks) -> dict:
        """Quality figures and effect checks over the pooled team values."""
        fair = statistics.fmean(values["fairness_aware", "total_score"])
        fit = statistics.fmean(values["self_assembled", "total_score"])
        checks.effect_holds("mean total_score fairness_aware > self_assembled", fair > fit)
        return {"fairness_lift": fair / fit}


WORKLOADS = {
    "paper_2x2": Paper2x2,
    "agency_n128": AgencyN128,
}


def setup(name: str, seed: int, size: str):
    """Build the workload's inputs; returns (workload, seconds).

    The time runs from before ``import teamsim`` until the inputs are ready,
    so it covers the imports and the configs.
    """
    started = time.perf_counter()
    import teamsim  # noqa: F401  (timed: importing is part of set-up)

    workload = WORKLOADS[name](seed, **SIZES[size][name])
    return workload, time.perf_counter() - started
