from __future__ import annotations

import numpy as np
import pytest

import teamsim
from teamsim.agents import AgentPolicy, ChoiceModelParams, StandardizationMoments, gen_query
from teamsim.core import population_lookup
from teamsim.population import synth_population
from teamsim.protocol import replay
from teamsim.recommender import CodedPool
from teamsim.session import CONDITIONS, PILOT_EXPOSURES, pilot_moments, run_assembly, run_session

from conftest import scalar_rank_candidates, shown_page


def scalar_pilot_moments(population, policy, mode, rng):
    """Reference for pilot_moments: draw a searcher and its query, rank the
    whole population through scalar_rank_candidates, until PILOT_EXPOSURES
    (rank, diversity) pairs are pooled."""
    lookup = population_lookup(population)
    ids = [p.id for p in population]
    ranks, divs = [], []
    while len(ranks) < PILOT_EXPOSURES:
        searcher = ids[int(rng.integers(len(ids)))]
        query = gen_query(searcher, policy, rng)
        for rec in scalar_rank_candidates(query, ids, lookup=lookup, mode=mode, page=1):
            ranks.append(float(rec.rank))
            divs.append(rec.diversity_score)
    rank_sd, div_sd = float(np.std(ranks)), float(np.std(divs))
    return StandardizationMoments(
        rank_mean=float(np.mean(ranks)),
        rank_sd=rank_sd if rank_sd > 0 else 1.0,
        diversity_mean=float(np.mean(divs)),
        diversity_sd=div_sd if div_sd > 0 else 1.0,
    )


class TestPilotMoments:
    def test_deterministic(self, mixed_population):
        m1 = pilot_moments(
            CodedPool(mixed_population), AgentPolicy(), "fit_only", np.random.default_rng(4)
        )
        m2 = pilot_moments(
            CodedPool(mixed_population), AgentPolicy(), "fit_only", np.random.default_rng(4)
        )
        assert m1 == m2
        assert m1.rank_sd > 0 and m1.diversity_sd > 0

    def test_clone_population_degenerate_sd_guard(self, clones):
        moments = pilot_moments(CodedPool(clones(16)), AgentPolicy(), "fairness", np.random.default_rng(5))
        # every candidate hits the diversity floor: sd falls back to 1
        assert moments.diversity_sd == 1.0
        assert moments.diversity_mean == pytest.approx(0.01)

    @pytest.mark.parametrize("mode", ["fit_only", "fairness"])
    @pytest.mark.parametrize("n", [2, 9, 11, 32, 40, 128])
    def test_matches_scalar_reference(self, mode, n):
        # n=2 and n=9 give pages shorter than PAGE_SIZE, so the query count
        # is not PILOT_EXPOSURES / PAGE_SIZE; n=11 gives pages of exactly
        # n - 1 = PAGE_SIZE, so each searcher's own row, sorted last, is the
        # first row left off.
        pop = synth_population(n, rng=np.random.default_rng(30 + n))
        rng, scalar_rng = np.random.default_rng(31), np.random.default_rng(31)
        assert pilot_moments(CodedPool(pop), AgentPolicy(), mode, rng) == scalar_pilot_moments(
            pop, AgentPolicy(), mode, scalar_rng
        )
        # Both drew the same stream: the same count of searchers and queries.
        assert rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_refused_before_any_draw(self, n, clones):
        rng = np.random.default_rng(6)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="at least 2"):
            pilot_moments(CodedPool(clones(n)), AgentPolicy(), "fit_only", rng)
        assert rng.bit_generator.state == before

    def test_run_assembly_refuses_one_member(self, clones):
        with pytest.raises(ValueError, match="at least 2"):
            run_assembly(
                clones(1), "fit_only", np.random.default_rng(7),
                policy=AgentPolicy(), params=ChoiceModelParams(),
            )


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
        placed = total = 0
        for seed in range(100):
            pop = synth_population(32, rng=np.random.default_rng(40_000 + seed))
            result = run_session("self_assembled", pop, rng=np.random.default_rng(seed))
            pre_fill = replay([p.id for p in pop], result.events[:-1])
            placed += sum(len(g) for g in pre_fill.groups() if len(g) == 4)
            total += 32
        assert placed / total >= 0.90

    @pytest.mark.parametrize("condition", ["self_assembled", "fairness_aware"])
    def test_batched_ranking_matches_scalar_reference(self, condition):
        # Each shown page, replayed against the state the log had just before
        # it, is the scalar ranking of that state's candidates for the query
        # issued just before it; each step's exposures walk its page in order.
        # n=9 gives pages shorter than PAGE_SIZE. The population runs in
        # reverse id order, so member order does not break ties by id.
        mode = {"self_assembled": "fit_only", "fairness_aware": "fairness"}[condition]
        for n in (40, 9):
            pop = synth_population(n, rng=np.random.default_rng(21))[::-1]
            lookup = population_lookup(pop)
            result = run_session(condition, pop, rng=np.random.default_rng(22))
            assert result.moments == scalar_pilot_moments(
                pop, AgentPolicy(), mode, np.random.default_rng(22)
            )
            exposures = iter(result.exposures)
            pages = 0
            for i, event in enumerate(result.events):
                if event.kind == "query_issued":
                    query = event.payload
                elif event.kind == "recommendations_shown":
                    searcher = event.payload.searcher_id
                    assert searcher == query.searcher_id
                    state = replay([p.id for p in pop], result.events[:i])
                    expected = scalar_rank_candidates(
                        query,
                        state.candidates(searcher),
                        lookup=lookup,
                        mode=mode,
                        searcher_team=state.group_of(searcher),
                        page=1,
                    )
                    assert event.payload == shown_page(searcher, expected)
                    for rec in expected:
                        exposure = next(exposures)
                        assert (exposure.searcher, exposure.candidate) == (searcher, rec.candidate_id)
                        assert (exposure.rank, exposure.diversity) == (rec.rank, rec.diversity_score)
                        assert exposure.same_gender == int(
                            lookup[searcher].gender == lookup[rec.candidate_id].gender
                        )
                        if exposure.selected:
                            break
                    pages += 1
            assert next(exposures, None) is None
            assert pages >= len(pop)

    def test_one_coding_and_at_most_one_scoring_per_search(self, monkeypatch):
        # Guards against per-search work creeping back: the population is
        # coded once per session, the pilot ranks and scores in one pass, and
        # each search scores teams at most once.
        calls = {"attribute_table": 0, "score_teams": 0, "rank": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (teamsim.core, teamsim.recommender, teamsim.agents, teamsim.session):
            for name in ("attribute_table", "score_teams"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(CodedPool, "rank", counted("rank", CodedPool.rank))
        pop = synth_population(32, rng=np.random.default_rng(23))
        for mode in ("fit_only", "fairness"):
            calls.update(attribute_table=0, score_teams=0, rank=0)
            state, *_ = run_assembly(
                pop, mode, np.random.default_rng(24), policy=AgentPolicy(), params=ChoiceModelParams()
            )
            queries = sum(e.kind == "query_issued" for e in state.event_log)
            assert calls["attribute_table"] == 1
            assert calls["rank"] == queries
            assert calls["score_teams"] <= 1 + calls["rank"]
