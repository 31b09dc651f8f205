from __future__ import annotations

import numpy as np
import pytest

import teamsim.agents
import teamsim.session
from teamsim.agents import AgentPolicy, ChoiceModelParams
from teamsim.population import synth_population
from teamsim.session import CONDITIONS, pilot_moments, run_session

from conftest import scalar_rank_candidates


class TestPilotMoments:
    def test_deterministic(self, mixed_population):
        m1 = pilot_moments(
            mixed_population, AgentPolicy(), "fit_only", np.random.default_rng(4)
        )
        m2 = pilot_moments(
            mixed_population, AgentPolicy(), "fit_only", np.random.default_rng(4)
        )
        assert m1 == m2
        assert m1.rank_sd > 0 and m1.diversity_sd > 0

    def test_clone_population_degenerate_sd_guard(self, clones):
        moments = pilot_moments(clones(16), AgentPolicy(), "fairness", np.random.default_rng(5))
        # every candidate hits the diversity floor: sd falls back to 1
        assert moments.diversity_sd == 1.0
        assert moments.diversity_mean == pytest.approx(0.01)


class TestRunSession:
    def test_unknown_condition_rejected(self, mixed_population):
        with pytest.raises(ValueError, match="unknown condition"):
            run_session("telepathy", mixed_population, rng=np.random.default_rng(0))

    def test_small_population_rejected(self, clones):
        with pytest.raises(ValueError, match="at least"):
            run_session("random", clones(7), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_each_condition_yields_valid_partition(self, condition, mixed_population):
        result = run_session(condition, mixed_population, rng=np.random.default_rng(8))
        result.partition.validate([p.id for p in mixed_population])
        assert len(result.profiles) == len(result.partition.teams)
        assert len(result.partition.teams) == 8
        assert result.partition.solos == ()

    def test_agency_session_has_logs_and_exposures(self, mixed_population):
        result = run_session("fairness_aware", mixed_population, rng=np.random.default_rng(9))
        assert result.events
        assert result.exposures
        assert result.moments is not None
        assert all(e.treatment == 1 for e in result.exposures)
        kinds = {e.kind for e in result.events}
        assert "deadline_fill" in kinds and "query_issued" in kinds

    def test_self_assembled_exposures_untreated(self, mixed_population):
        result = run_session("self_assembled", mixed_population, rng=np.random.default_rng(10))
        assert all(e.treatment == 0 for e in result.exposures)

    def test_non_agency_sessions_have_no_events(self, mixed_population):
        result = run_session("random", mixed_population, rng=np.random.default_rng(11))
        assert result.events == [] and result.exposures == []
        assert result.moments is None

    def test_clone_population_ga_condition(self, clones):
        result = run_session("algorithmic_diverse", clones(16), rng=np.random.default_rng(12))
        result.partition.validate([f"c{i:03d}" for i in range(16)])
        assert all(p.total_score == 0.0 for p in result.profiles)

    def test_degenerate_dynamics_fill_before_round_limit(self, mixed_population):
        result = run_session(
            "self_assembled",
            mixed_population,
            rng=np.random.default_rng(13),
            policy=AgentPolicy(accept_probability=1.0),
            params=ChoiceModelParams(intercept=50.0),
            rounds=10,
        )
        assert all(len(t) == 4 for t in result.partition.teams)
        assert result.partition.solos == ()
        # the deadline fill had nothing to pack: every group arrived full
        fill = [e for e in result.events if e.kind == "deadline_fill"][0]
        merges = [e for e in result.events if e.kind == "groups_merged"]
        assert len(fill.payload["teams"]) == 8
        assert fill.payload["solos"] == []
        assert len(merges) == 24  # 8 teams x 3 merges each

    def test_deterministic_per_seed(self, mixed_population):
        r1 = run_session("fairness_aware", mixed_population, rng=np.random.default_rng(14))
        r2 = run_session("fairness_aware", mixed_population, rng=np.random.default_rng(14))
        assert r1.partition == r2.partition
        assert r1.exposures == r2.exposures
        assert [e.to_dict() for e in r1.events] == [e.to_dict() for e in r2.events]

    def test_odd_population_size_leaves_solos(self):
        pop = synth_population(30, rng=np.random.default_rng(15))
        result = run_session("self_assembled", pop, rng=np.random.default_rng(16))
        result.partition.validate([p.id for p in pop])
        assert len(result.partition.teams) == 7
        assert len(result.partition.solos) == 2

    def test_most_agents_reach_full_teams_before_deadline(self):
        # pooled full-group membership just before the deadline fill;
        # threshold frozen from a 100-seed pilot (mean 0.93)
        from teamsim.protocol import replay

        placed = total = 0
        for seed in range(100):
            pop = synth_population(32, rng=np.random.default_rng(40_000 + seed))
            result = run_session("self_assembled", pop, rng=np.random.default_rng(seed))
            pre_fill = replay([p.id for p in pop], result.events[:-1])
            placed += sum(len(g) for g in pre_fill.groups() if len(g) == 4)
            total += 32
        assert placed / total >= 0.90

    @pytest.mark.parametrize("condition", ["self_assembled", "fairness_aware"])
    def test_batched_ranking_matches_scalar_reference(self, condition, monkeypatch):
        pop = synth_population(40, rng=np.random.default_rng(21))

        def session():
            result = run_session(condition, pop, rng=np.random.default_rng(22))
            events = [e.to_dict() for e in result.events]
            return events, result.partition, result.moments, result.exposures

        batched = session()
        monkeypatch.setattr(teamsim.agents, "rank_candidates", scalar_rank_candidates)
        monkeypatch.setattr(teamsim.session, "rank_candidates", scalar_rank_candidates)
        assert session() == batched
