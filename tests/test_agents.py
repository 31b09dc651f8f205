from __future__ import annotations

import math

import numpy as np
import pytest

from teamsim.agents import (
    AgentPolicy,
    ChoiceModelParams,
    StandardizationMoments,
    agent_step,
    choice_probability,
    gen_query,
    simulate_exposures,
    standardize,
)
from teamsim.core import NUM_SKILLS
from teamsim.population import synth_population
from teamsim.protocol import AssemblyState
from teamsim.recommender import DEMOGRAPHIC_KINDS, CodedPool


class TestChoiceModelParams:
    def test_table_defaults(self):
        p = ChoiceModelParams()
        assert (p.intercept, p.rank, p.same_gender) == (-3.17, -1.20, 0.26)
        assert (p.diversity, p.treatment, p.interaction) == (-0.11, -0.33, 0.95)
        assert p.random_intercept_variance == 0.42

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            ChoiceModelParams(random_intercept_variance=-0.1)


class TestChoiceProbability:
    def test_baseline_intercept(self):
        p = choice_probability(ChoiceModelParams(), 0.0, 0, 0.0, 0)
        assert p == pytest.approx(1 / (1 + math.exp(3.17)), abs=1e-12)
        assert p == pytest.approx(0.0403, abs=5e-4)

    def test_monotone_decreasing_in_rank(self):
        params = ChoiceModelParams()
        probs = [choice_probability(params, z, 0, 0.0, 0) for z in np.linspace(-2, 2, 9)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_treatment_flips_diversity_slope(self):
        params = ChoiceModelParams()
        # treated: net slope -0.11 + 0.95 > 0
        assert choice_probability(params, 0, 0, 1.0, 1) > choice_probability(params, 0, 0, -1.0, 1)
        # untreated: slope -0.11 < 0
        assert choice_probability(params, 0, 0, 1.0, 0) < choice_probability(params, 0, 0, -1.0, 0)

    def test_same_gender_bonus(self):
        params = ChoiceModelParams()
        assert choice_probability(params, 0, 1, 0.0, 0) > choice_probability(params, 0, 0, 0.0, 0)

    def test_random_intercept_shifts_probability(self):
        params = ChoiceModelParams()
        assert choice_probability(params, 0, 0, 0.0, 0, u=1.0) > choice_probability(
            params, 0, 0, 0.0, 0, u=-1.0
        )


class TestStandardize:
    def test_mean_maps_to_zero(self):
        m = StandardizationMoments(rank_mean=5.5, rank_sd=2.87, diversity_mean=0.3, diversity_sd=0.1)
        assert standardize(m, 5.5, 0.3) == (0.0, 0.0)

    def test_rank_one_from_pilot_moments(self):
        ranks = np.arange(1, 11)
        m = StandardizationMoments(
            rank_mean=float(ranks.mean()),
            rank_sd=float(ranks.std()),
            diversity_mean=0.0,
            diversity_sd=1.0,
        )
        rank_z, _ = standardize(m, 1.0, 0.0)
        assert rank_z == pytest.approx(-1.5667, abs=5e-4)

    def test_zero_sd_rejected(self):
        with pytest.raises(ValueError, match="sd"):
            StandardizationMoments(rank_mean=0, rank_sd=0, diversity_mean=0, diversity_sd=1)

    def test_affine_invariance_when_moments_reestimated(self):
        rng = np.random.default_rng(1)
        raw = rng.random(50)
        scaled = 3.0 * raw + 2.0
        m_raw = StandardizationMoments(1, 1, float(raw.mean()), float(raw.std()))
        m_scaled = StandardizationMoments(1, 1, float(scaled.mean()), float(scaled.std()))
        for r, s in zip(raw[:10], scaled[:10]):
            assert standardize(m_raw, 1, r)[1] == pytest.approx(
                standardize(m_scaled, 1, s)[1], abs=1e-12
            )


class TestGenQuery:
    def test_always_at_least_two_criteria(self):
        rng = np.random.default_rng(2)
        policy = AgentPolicy()
        for _ in range(200):
            q = gen_query("s", policy, rng)
            assert len(q.criteria) >= 2
            assert all(c.importance > 0 for c in q.criteria)

    def test_pure_skill_policy(self):
        rng = np.random.default_rng(3)
        policy = AgentPolicy(skill_criterion_prob=1.0)
        for _ in range(50):
            q = gen_query("s", policy, rng)
            assert all(c.kind == "skill" for c in q.criteria)

    def test_skill_share_matches_default_rate(self):
        rng = np.random.default_rng(4)
        policy = AgentPolicy()
        skill = total = 0
        for _ in range(10000):
            q = gen_query("s", policy, rng)
            skill += sum(1 for c in q.criteria if c.kind == "skill")
            total += len(q.criteria)
        assert skill / total == pytest.approx(0.49, abs=0.02)

    def test_deterministic_per_seed(self):
        q1 = gen_query("s", AgentPolicy(), np.random.default_rng(9))
        q2 = gen_query("s", AgentPolicy(), np.random.default_rng(9))
        assert q1 == q2

    def test_queries_share_one_criterion_per_value(self):
        rng = np.random.default_rng(4)
        shared = {}
        for _ in range(300):
            for c in gen_query("s", AgentPolicy(importance_choices=(-3, -1, 2, 3)), rng).criteria:
                assert shared.setdefault((c.kind, c.skill, c.importance), c) is c
        assert len(shared) > 20

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AgentPolicy(criteria_counts=(1,))
        with pytest.raises(ValueError):
            AgentPolicy(skill_criterion_prob=1.2)
        with pytest.raises(ValueError):
            AgentPolicy(importance_choices=(0, 1))
        # an empty choice used to fail at the first query, inside numpy ("high <= 0")
        with pytest.raises(ValueError, match="importance_choices must contain"):
            AgentPolicy(importance_choices=())

    @pytest.mark.parametrize(
        "kwargs, most",
        [({}, NUM_SKILLS + len(DEMOGRAPHIC_KINDS)), ({"skill_criterion_prob": 1.0}, NUM_SKILLS),
         ({"skill_criterion_prob": 0.0}, len(DEMOGRAPHIC_KINDS))],
    )
    def test_criteria_counts_bounded_by_the_drawable_criteria(self, kwargs, most):
        # a count above the distinct criteria a query can draw left gen_query looping forever
        with pytest.raises(ValueError, match=rf"criteria_counts must contain integers in 2\.\.{most},"):
            AgentPolicy(criteria_counts=(2, most + 1), **kwargs)
        policy = AgentPolicy(criteria_counts=(most,), **kwargs)
        rng = np.random.default_rng(most)
        for _ in range(20):
            assert len(gen_query("s", policy, rng).criteria) == most

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"criteria_counts": (2.5,)},
            {"criteria_counts": (2, 3.0)},
            {"criteria_counts": (True, 2)},
            {"importance_choices": (1.5,)},
            {"importance_choices": (1, True)},
        ],
    )
    def test_policy_numbers_must_be_integers(self, kwargs):
        # a criteria count of 2.5 would otherwise make gen_query issue 3-criterion queries
        with pytest.raises(ValueError, match="integers"):
            AgentPolicy(**kwargs)


def _session_bits(n=12, seed=6):
    pop = synth_population(n, rng=np.random.default_rng(seed))
    pool = CodedPool(pop)
    state = AssemblyState(pool.ids)
    return pop, pool, state


class TestAgentStep:
    def test_full_team_agent_does_nothing(self):
        pop, pool, state = _session_bits(8)
        ids = [p.id for p in pop]
        for off in ids[1:4]:
            inv = state.send_invitation(ids[0], off)
            for m in state.invitations[inv].recipient_group:
                state.respond(inv, m, "accepted")
        moments = StandardizationMoments(5.5, 2.87, 0.25, 0.08)
        exposures = agent_step(
            ids[0], state, pool=pool, policy=AgentPolicy(), params=ChoiceModelParams(),
            moments=moments, mode="fit_only", u=0.0, rng=np.random.default_rng(0),
        )
        assert exposures == []

    def test_pool_out_of_member_order_refused(self):
        pop, pool, state = _session_bits(8)
        with pytest.raises(ValueError, match="member order"):
            agent_step(
                pop[0].id, state, pool=CodedPool(pop[::-1]), policy=AgentPolicy(),
                params=ChoiceModelParams(), moments=StandardizationMoments(5.5, 2.87, 0.25, 0.08),
                mode="fit_only", u=0.0, rng=np.random.default_rng(0),
            )

    def test_degenerate_policy_fills_teams(self):
        # near-certain selection and certain acceptance: merges every round
        pop, pool, state = _session_bits(8)
        ids = [p.id for p in pop]
        params = ChoiceModelParams(intercept=50.0)
        policy = AgentPolicy(accept_probability=1.0)
        moments = StandardizationMoments(5.5, 2.87, 0.25, 0.08)
        rng = np.random.default_rng(1)
        for _ in range(6):
            state.advance_round()
            for agent_id in ids:
                agent_step(
                    agent_id, state, pool=pool, policy=policy, params=params,
                    moments=moments, mode="fit_only", u=0.0, rng=rng,
                )
        assert all(len(g) == 4 for g in state.groups())
        state.check_invariants()

    def test_exposures_are_walked_prefix(self):
        pop, pool, state = _session_bits(12)
        state.advance_round()
        moments = StandardizationMoments(5.5, 2.87, 0.25, 0.08)
        exposures = agent_step(
            pop[0].id, state, pool=pool, policy=AgentPolicy(),
            params=ChoiceModelParams(intercept=2.0),  # high base rate: stops early
            moments=moments, mode="fairness", u=0.0, rng=np.random.default_rng(3),
        )
        assert [e.rank for e in exposures] == list(range(1, len(exposures) + 1))
        assert all(e.selected == 0 for e in exposures[:-1])
        assert exposures[-1].selected == 1
        assert all(e.treatment == 1 for e in exposures)

    def test_selection_sends_invitation_and_logs(self):
        pop, pool, state = _session_bits(12)
        state.advance_round()
        moments = StandardizationMoments(5.5, 2.87, 0.25, 0.08)
        rng = np.random.default_rng(3)
        exposures = agent_step(
            pop[0].id, state, pool=pool, policy=AgentPolicy(accept_probability=1.0),
            params=ChoiceModelParams(intercept=50.0), moments=moments,
            mode="fit_only", u=0.0, rng=rng,
        )
        assert len(exposures) == 1 and exposures[0].selected == 1
        assert state.merged_count() == 1
        kinds = [e.kind for e in state.event_log]
        assert kinds[:2] == ["query_issued", "recommendations_shown"]
        assert "invitation_sent" in kinds and "groups_merged" in kinds


class TestSimulateExposures:
    def test_shapes_and_determinism(self):
        params = ChoiceModelParams()
        b1 = simulate_exposures(params, 500, np.random.default_rng(5))
        b2 = simulate_exposures(params, 500, np.random.default_rng(5))
        assert b1.design_matrix().shape == (500, 6)
        assert np.array_equal(b1.selected, b2.selected)
        assert set(np.unique(b1.treatment)) <= {0.0, 1.0}

    def test_standardized_columns_centered(self):
        batch = simulate_exposures(ChoiceModelParams(), 2000, np.random.default_rng(6))
        assert abs(batch.rank_z.mean()) < 1e-9
        assert abs(batch.diversity_z.mean()) < 1e-9

    def test_rank_effect_visible_in_rates(self):
        batch = simulate_exposures(ChoiceModelParams(), 20000, np.random.default_rng(7))
        low_rank = batch.selected[batch.rank_z < -1.0].mean()
        high_rank = batch.selected[batch.rank_z > 1.0].mean()
        assert low_rank > high_rank

    def test_gender_homophily_visible_in_rates(self):
        batch = simulate_exposures(ChoiceModelParams(), 40000, np.random.default_rng(8))
        same = batch.selected[batch.same_gender == 1].mean()
        different = batch.selected[batch.same_gender == 0].mean()
        assert same > different

    def test_diversity_selection_correlation_sign_pattern(self):
        # treated exposures select on diversity; untreated are flat or negative
        batch = simulate_exposures(ChoiceModelParams(), 60000, np.random.default_rng(9))
        treated = batch.treatment == 1
        corr_treated = np.corrcoef(batch.diversity_z[treated], batch.selected[treated])[0, 1]
        corr_plain = np.corrcoef(batch.diversity_z[~treated], batch.selected[~treated])[0, 1]
        assert corr_treated > 0.0
        assert corr_plain < corr_treated
        assert corr_plain < 0.02
