from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats as sps

from teamsim.stats import (
    GroupSamples,
    anova_f,
    bh_adjust,
    chi2_independence,
    logistic_fit,
    pairwise_diffs,
)


class TestGroupSamples:
    def test_needs_two_nonempty_groups(self):
        with pytest.raises(ValueError):
            GroupSamples.from_mapping({"a": [1.0]})
        with pytest.raises(ValueError):
            GroupSamples.from_mapping({"a": [1.0], "b": []})


class TestAnova:
    def test_nan_rejected(self):
        # a nan F used to count as the most significant p-value, 1/(B+1)
        with pytest.raises(ValueError, match="non-finite"):
            anova_f({"a": [1.0, math.nan], "b": [2.0, 3.0]}, n_permutations=10)

    def test_identical_groups(self):
        result = anova_f({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]}, n_permutations=2000)
        assert result.f_stat == 0.0
        assert result.p_value > 0.9

    def test_zero_within_variance_edge(self):
        result = anova_f({"a": [0.0] * 4, "b": [1.0] * 4}, n_permutations=2000, seed=1)
        assert math.isinf(result.f_stat)
        # smallest resolvable p is about 1/(n+1); exact-tie permutations inflate it slightly
        assert result.p_value < 0.05

    def test_matches_classic_f(self):
        rng = np.random.default_rng(11)
        groups = {f"g{i}": rng.normal(i * 0.3, 1.0, size=15) for i in range(3)}
        ours = anova_f(groups, n_permutations=200, seed=0)
        classic = sps.f_oneway(*groups.values())
        assert ours.f_stat == pytest.approx(classic.statistic, rel=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        groups = {"a": rng.normal(0, 1, 20), "b": rng.normal(1, 1, 20)}
        shifted = {k: v + 100.0 for k, v in groups.items()}
        r1 = anova_f(groups, n_permutations=500, seed=3)
        r2 = anova_f(shifted, n_permutations=500, seed=3)
        assert r1.f_stat == pytest.approx(r2.f_stat, rel=1e-9)
        assert r1.p_value == r2.p_value

    def test_relabel_invariance(self):
        rng = np.random.default_rng(13)
        a = rng.normal(0, 1, 12)
        b = rng.normal(0.8, 1, 12)
        r1 = anova_f({"a": a, "b": b}, n_permutations=500, seed=4)
        r2 = anova_f({"b": a, "a": b}, n_permutations=500, seed=4)
        assert r1.f_stat == pytest.approx(r2.f_stat, rel=1e-12)

    def test_power_on_shifted_group(self):
        # three null groups plus one shifted by a full sd
        hits = 0
        seeds = 25
        for seed in range(seeds):
            rng = np.random.default_rng(1000 + seed)
            groups = {
                "a": rng.normal(0, 1, 20),
                "b": rng.normal(0, 1, 20),
                "c": rng.normal(0, 1, 20),
                "d": rng.normal(1, 1, 20),
            }
            if anova_f(groups, n_permutations=2000, seed=seed).p_value < 0.05:
                hits += 1
        assert hits >= 0.8 * seeds

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(14)
        groups = {"a": rng.normal(0, 1, 10), "b": rng.normal(0.5, 1, 10)}
        assert anova_f(groups, seed=7, n_permutations=1000) == anova_f(
            groups, seed=7, n_permutations=1000
        )


class TestBhAdjust:
    def test_step_up_example(self):
        assert bh_adjust([0.01, 0.02, 0.03, 0.04, 0.05, 0.06]) == pytest.approx([0.06] * 6)

    def test_monotone_and_never_decreases(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            raw = sorted(rng.random(8))
            adj = bh_adjust(raw)
            assert all(a >= r for a, r in zip(adj, raw))
            assert adj == sorted(adj)
            assert all(a <= 1.0 for a in adj)

    def test_preserves_input_order_mapping(self):
        raw = [0.04, 0.001, 0.3]
        adj = bh_adjust(raw)
        # smallest raw p keeps the smallest adjusted p
        assert adj[1] == min(adj)

    def test_empty(self):
        assert bh_adjust([]) == []


class TestPairwise:
    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            pairwise_diffs({"a": [1.0, 2.0], "b": [math.inf, 3.0]}, n_permutations=10)

    def test_identical_groups_null(self):
        diffs = pairwise_diffs(
            {"a": [1.0, 2.0, 3.0, 4.0], "b": [1.0, 2.0, 3.0, 4.0]}, n_permutations=1000
        )
        assert len(diffs) == 1
        assert diffs[0].delta == 0.0
        assert diffs[0].p_adjusted > 0.9

    def test_orientation_is_b_minus_a(self):
        diffs = pairwise_diffs({"low": [0.0, 0.0], "high": [1.0, 1.0]}, n_permutations=500)
        d = diffs[0]
        assert (d.group_a, d.group_b) == ("high", "low")
        assert d.delta == pytest.approx(-1.0)

    def test_all_pairs_present_with_bh(self):
        rng = np.random.default_rng(16)
        groups = {k: rng.normal(0, 1, 10) for k in ("a", "b", "c", "d")}
        diffs = pairwise_diffs(groups, n_permutations=300, seed=2)
        assert len(diffs) == 6
        raw = [d.p_value for d in diffs]
        assert [d.p_adjusted for d in diffs] == pytest.approx(bh_adjust(raw))

    def test_detects_real_shift(self):
        rng = np.random.default_rng(17)
        groups = {"a": rng.normal(0, 1, 40), "b": rng.normal(1.2, 1, 40)}
        d = pairwise_diffs(groups, n_permutations=2000, seed=3)[0]
        assert d.p_adjusted < 0.05
        assert d.delta > 0


class TestChi2:
    def test_proportional_table_is_null(self):
        result = chi2_independence([[10, 20], [20, 40]])
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0)

    def test_diagonal_table(self):
        result = chi2_independence([[10, 0], [0, 10]])
        assert result.statistic == pytest.approx(20.0)
        assert result.df == 1

    def test_matches_scipy_tail(self):
        table = [[12, 7, 9], [5, 11, 8], [9, 9, 14]]
        ours = chi2_independence(table)
        ref_stat, ref_p, ref_df, _ = sps.chi2_contingency(table, correction=False)
        assert ours.statistic == pytest.approx(ref_stat, rel=1e-12)
        assert ours.df == ref_df
        assert ours.p_value == pytest.approx(ref_p, rel=1e-10)

    def test_zero_marginal_rejected(self):
        with pytest.raises(ValueError, match="zero marginal"):
            chi2_independence([[0, 0], [3, 4]])

    def test_too_small_table_rejected(self):
        with pytest.raises(ValueError):
            chi2_independence([[1, 2]])


class TestLogisticFit:
    def test_null_model_recovers_base_rate(self):
        rng = np.random.default_rng(18)
        n = 4000
        y = (rng.random(n) < 0.3).astype(float)
        X = np.ones((n, 1))
        fit = logistic_fit(X, y)
        base = y.mean()
        assert fit.converged
        assert fit.coefficients[0] == pytest.approx(math.log(base / (1 - base)), abs=1e-8)

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(19)
        n = 6000
        x1 = rng.normal(size=n)
        x2 = rng.integers(0, 2, size=n).astype(float)
        X = np.column_stack([np.ones(n), x1, x2])
        beta = np.array([-1.0, 0.8, -0.5])
        p = 1 / (1 + np.exp(-(X @ beta)))
        y = (rng.random(n) < p).astype(float)
        fit = logistic_fit(X, y)
        assert fit.converged
        assert np.abs(fit.coefficients - beta).max() < 0.15

    def test_affine_equivariance(self):
        rng = np.random.default_rng(20)
        n = 2000
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x])
        p = 1 / (1 + np.exp(-(0.5 + 1.2 * x)))
        y = (rng.random(n) < p).astype(float)
        fit = logistic_fit(X, y)
        scaled = np.column_stack([np.ones(n), 4.0 * x])
        fit_scaled = logistic_fit(scaled, y)
        assert fit_scaled.coefficients[1] == pytest.approx(fit.coefficients[1] / 4.0, rel=1e-6)
        assert fit_scaled.standard_errors[1] == pytest.approx(
            fit.standard_errors[1] / 4.0, rel=1e-6
        )

    def test_separation_flagged(self):
        x = np.concatenate([np.full(20, -1.0), np.full(20, 1.0)])
        y = (x > 0).astype(float)
        X = np.column_stack([np.ones(40), x])
        fit = logistic_fit(X, y)
        assert fit.separation
        assert not fit.converged

    def test_standard_errors_match_information(self):
        rng = np.random.default_rng(21)
        n = 3000
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x])
        p = 1 / (1 + np.exp(-(0.2 + 0.7 * x)))
        y = (rng.random(n) < p).astype(float)
        fit = logistic_fit(X, y)
        mu = 1 / (1 + np.exp(-(X @ fit.coefficients)))
        info = X.T @ (X * (mu * (1 - mu))[:, None])
        expected_se = np.sqrt(np.diag(np.linalg.inv(info)))
        assert fit.standard_errors == pytest.approx(expected_se, rel=1e-8)

    def test_input_validation(self):
        X = np.column_stack([np.ones(10), np.zeros(10)])
        y = np.zeros(10)
        with pytest.raises(ValueError, match="all-zero"):
            logistic_fit(X, y)
        with pytest.raises(ValueError, match="binary"):
            logistic_fit(np.ones((4, 1)), np.array([0.0, 0.5, 1.0, 1.0]))
        with pytest.raises(ValueError, match="more observations"):
            logistic_fit(np.ones((2, 2)), np.array([0.0, 1.0]))
