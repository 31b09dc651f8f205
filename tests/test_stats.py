from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as sps

from teamsim import stats
from teamsim.agents import ChoiceModelParams, simulate_exposures
from teamsim.stats import (
    PERMUTATION_BLOCK,
    _permutation_hits_each,
    _square_sums,
    anova_f,
    bh_adjust,
    chi2_independence,
    chi2_sf,
    expit,
    logistic_fit,
    pairwise_diffs,
    permutation_tests,
)

EPS = np.finfo(float).eps


def _hits(p_value: float, n_permutations: int) -> int:
    return round(p_value * (n_permutations + 1)) - 1


def _oracle_anova(groups: dict, n_permutations: int, seed: int) -> tuple[int, list[float]]:
    """The per-permutation loop with the tie rule: hits and every permuted T."""
    pooled = np.concatenate(list(groups.values()))
    sizes = [len(v) for v in groups.values()]

    def t_stat(values):
        total, start = 0.0, 0
        for size in sizes:
            total += float(values[start : start + size].sum()) ** 2 / size
            start += size
        return total

    threshold = t_stat(pooled) - 64 * pooled.size * EPS * float((pooled**2).sum())
    rng = np.random.default_rng(seed)
    stats = [t_stat(pooled[rng.permutation(pooled.size)]) for _ in range(n_permutations)]
    return sum(t >= threshold for t in stats), stats


def _oracle_pairwise(groups: dict, n_permutations: int, seed: int) -> list[int]:
    """Per-pair hits of the per-permutation loop with the tie rule, in
    sorted-label order; each pair draws from a fresh generator seeded with seed."""
    labels = sorted(groups)
    hits = []
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            rng = np.random.default_rng(seed)
            pooled = np.concatenate([groups[a], groups[b]])
            na = len(groups[a])
            centre = pooled.sum() * (pooled.size - na) / pooled.size
            observed = abs(pooled[na:].sum() - centre)
            threshold = observed - 64 * pooled.size * EPS * float(np.abs(pooled).sum())
            count = 0
            for _ in range(n_permutations):
                perm = pooled[rng.permutation(pooled.size)]
                if abs(perm[na:].sum() - centre) >= threshold:
                    count += 1
            hits.append(count)
    return hits


# Blau-like values: many permutations give statistics mathematically equal
# to the observed one, so ties are frequent.
_tie_heavy_groups = st.lists(
    st.lists(st.sampled_from([0.0, 0.375, 0.5, 0.625]), min_size=1, max_size=40),
    min_size=2,
    max_size=4,
).map(lambda gs: {f"g{i}": np.array(v) for i, v in enumerate(gs)})
# every block boundary: one row, just under, at and over one block, several blocks
_n_permutations = st.sampled_from([1, 999, 1000, 1001, 2500])


class TestGroupSamples:
    def test_needs_two_nonempty_groups(self):
        for test in (anova_f, pairwise_diffs):
            with pytest.raises(ValueError, match="at least two groups"):
                test({"a": [1.0]}, n_permutations=10)
            with pytest.raises(ValueError, match="'b' is empty"):
                test({"a": [1.0], "b": []}, n_permutations=10)
            with pytest.raises(ValueError, match="one-dimensional"):
                test({"a": [1.0], "b": [[2.0]]}, n_permutations=10)

    def test_anova_needs_within_group_degrees_of_freedom(self):
        # one value per group used to give f_stat=inf with p_value=1.0
        one_each = {"a": [1.0], "b": [2.0], "c": [4.0]}
        with pytest.raises(ValueError, match="within-group degrees of freedom"):
            anova_f(one_each, n_permutations=10)
        with pytest.raises(ValueError, match="within-group degrees of freedom"):
            permutation_tests({"ok": {"a": [1.0, 2.0], "b": [3.0]}, "bad": one_each}, {}, n_permutations=10)
        # the pairwise test of the same layout has a permutation distribution
        assert [d.p_value for d in pairwise_diffs(one_each, n_permutations=10)] == [1.0] * 3


class TestAnova:
    def test_nan_rejected(self):
        # a nan F used to count as the most significant p-value, 1/(B+1)
        with pytest.raises(ValueError, match="non-finite"):
            anova_f({"a": [1.0, math.nan], "b": [2.0, 3.0]}, n_permutations=10)

    def test_needs_a_permutation(self):
        with pytest.raises(ValueError, match="n_permutations"):
            anova_f({"a": [1.0, 2.0], "b": [2.0, 3.0]}, n_permutations=0)
        with pytest.raises(ValueError, match="n_permutations"):
            pairwise_diffs({"a": [1.0, 2.0], "b": [2.0, 3.0]}, n_permutations=-1)

    def test_identical_groups(self):
        result = anova_f({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]}, n_permutations=2000)
        assert result.f_stat == 0.0
        assert result.p_value > 0.9

    def test_zero_within_variance_edge(self):
        result = anova_f({"a": [0.0] * 4, "b": [1.0] * 4}, n_permutations=2000, seed=1)
        assert math.isinf(result.f_stat)
        # the 50 permutations that split zeros from ones tie with the observed F
        assert result.p_value == 51 / 2001

    def test_overflowing_sums_count_as_ties(self):
        # squares overflow to inf; inf - inf must not read as a miss on every row
        with np.errstate(over="ignore", invalid="ignore"):
            result = anova_f({"a": [1e200, 3e200], "b": [2e200, 5e200]}, n_permutations=10)
        assert result.p_value == 1.0

    @settings(max_examples=100, deadline=None)
    @given(_tie_heavy_groups, _n_permutations, st.integers(0, 2**32 - 1))
    def test_batched_hits_equal_scalar_oracle(self, groups, n_permutations, seed):
        if sum(map(len, groups.values())) == len(groups):
            with pytest.raises(ValueError, match="within-group degrees of freedom"):
                anova_f(groups, n_permutations=n_permutations, seed=seed)
            return
        hits, oracle_stats = _oracle_anova(groups, n_permutations, seed)
        result = anova_f(groups, n_permutations=n_permutations, seed=seed)
        assert _hits(result.p_value, n_permutations) == hits

        pooled = np.concatenate(list(groups.values()))
        sizes = [len(v) for v in groups.values()]
        batched = []

        def recording(idx):
            stats = _square_sums(pooled[idx], sizes)
            batched.append(np.atleast_1d(stats))
            return stats

        _permutation_hits_each(pooled.size, [recording], [0.0], n_permutations, np.random.default_rng(seed))
        # batched[0] is the observed statistic
        assert np.concatenate(batched[1:]) == pytest.approx(oracle_stats, rel=1e-12, abs=1e-12)

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


def test_hits_equal_exact_arithmetic():
    # continuous data ties too: a permutation that swaps the values of the
    # two size-2 groups reproduces T and the a-b difference exactly
    rng = np.random.default_rng(21)
    groups = {"a": rng.normal(size=2), "b": rng.normal(size=2), "c": rng.normal(size=3)}
    n_permutations = 600

    def exact_hits(values, statistic, perm_rng):
        values = [Fraction(float(v)) for v in values]
        observed = statistic(values)
        return sum(
            statistic([values[i] for i in perm_rng.permutation(len(values))]) >= observed
            for _ in range(n_permutations)
        )

    def exact_t(v):
        return sum(v[:2]) ** 2 / 2 + sum(v[2:4]) ** 2 / 2 + sum(v[4:]) ** 2 / 3

    expected = exact_hits(np.concatenate(list(groups.values())), exact_t, np.random.default_rng(5))
    result = anova_f(groups, n_permutations=n_permutations, seed=5)
    assert _hits(result.p_value, n_permutations) == expected

    expected_pairs = []
    for a, b in (("a", "b"), ("a", "c"), ("b", "c")):
        na, n = len(groups[a]), len(groups[a]) + len(groups[b])

        def exact_d(v, na=na, n=n):
            return abs(sum(v[na:]) - sum(v) * (n - na) / n)

        # each pair is its own two-group call: a fresh stream seeded with 5
        pooled = np.concatenate([groups[a], groups[b]])
        expected_pairs.append(exact_hits(pooled, exact_d, np.random.default_rng(5)))
    diffs = pairwise_diffs(groups, n_permutations=n_permutations, seed=5)
    assert [_hits(d.p_value, n_permutations) for d in diffs] == expected_pairs


# The rows of each block of 2,001 permutations of range(n): at most
# PERMUTATION_BLOCK (1,000) rows and at most 2**17 indices in a block.
BLOCK_ROWS = {
    1: [1000, 1000, 1],
    2: [1000, 1000, 1],
    8: [1000, 1000, 1],
    64: [1000, 1000, 1],
    192: [682, 682, 637],
    1280: [102] * 19 + [63],
}


@pytest.mark.parametrize("n", list(BLOCK_ROWS))
def test_permutation_blocks_follow_sequential_stream(n):
    # the blocked draws must give the rows, and leave the generator in the
    # state, of one rng.permutation(n) call per permutation, whatever the
    # block size; a numpy release that changes rng.permuted's stream fails here
    n_permutations = 2 * PERMUTATION_BLOCK + 1
    blocks = []

    def recording(idx):
        blocks.append(np.atleast_2d(idx))
        return np.zeros(np.atleast_2d(idx).shape[0])

    blocked = np.random.default_rng(9)
    _permutation_hits_each(n, [recording], [0.0], n_permutations, blocked)
    sequential = np.random.default_rng(9)
    expected = np.array([sequential.permutation(n) for _ in range(n_permutations)])
    assert [b.shape[0] for b in blocks[1:]] == BLOCK_ROWS[n]
    np.testing.assert_array_equal(np.concatenate(blocks[1:]), expected)
    assert blocked.integers(2**62) == sequential.integers(2**62)


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

    def test_equal_means_give_p_one(self):
        # the two means agree mathematically but not in floating point
        groups = {"a": [0.1, 0.7, 0.2, 0.3], "b": [0.3, 0.2, 0.1, 0.7]}
        (diff,) = pairwise_diffs(groups, n_permutations=1000)
        assert diff.delta != 0.0
        assert diff.p_value == 1.0
        assert anova_f(groups, n_permutations=1000).p_value == 1.0

    def test_overflowing_sums_count_as_ties(self):
        with np.errstate(over="ignore", invalid="ignore"):
            (diff,) = pairwise_diffs({"a": [1e308, 1.5e308], "b": [1e308, 1.7e308]}, n_permutations=10)
        assert diff.p_value == 1.0

    @settings(max_examples=60, deadline=None)
    @given(_tie_heavy_groups, _n_permutations, st.integers(0, 2**32 - 1))
    def test_batched_hits_equal_scalar_oracle(self, groups, n_permutations, seed):
        diffs = pairwise_diffs(groups, n_permutations=n_permutations, seed=seed)
        assert [_hits(d.p_value, n_permutations) for d in diffs] == _oracle_pairwise(
            groups, n_permutations, seed
        )

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


_TIE_VALUES = st.sampled_from([0.0, 0.375, 0.5, 0.625])


@st.composite
def _metric_tables(draw):
    """1-7 metrics of tie-heavy values over 2-4 groups; most share one size
    vector, and some draw their own."""
    n_groups = draw(st.integers(2, 4))
    shared = draw(st.lists(st.integers(1, 30), min_size=n_groups, max_size=n_groups))
    tables = {}
    for m in range(draw(st.integers(1, 7))):
        sizes = shared
        if draw(st.integers(0, 3)) == 0:
            sizes = draw(st.lists(st.integers(1, 30), min_size=n_groups, max_size=n_groups))
        tables[f"m{m}"] = {
            f"g{i}": np.array(draw(st.lists(_TIE_VALUES, min_size=size, max_size=size)))
            for i, size in enumerate(sizes)
        }
    return tables


@st.composite
def _layouts(draw):
    """2-4 metrics over 2-5 groups of 1-9 tie-heavy values. The metrics share
    one size vector or draw their own; in (3, 5, 5, 3) four distinct pairs
    have one pooled size."""
    shared = draw(st.just([3, 5, 5, 3]) | st.lists(st.integers(1, 9), min_size=2, max_size=5))
    tables = {}
    for m in range(draw(st.integers(2, 4))):
        sizes = shared
        if draw(st.booleans()):
            sizes = draw(st.lists(st.integers(1, 9), min_size=len(shared), max_size=len(shared)))
        tables[f"m{m}"] = {
            f"g{i}": np.array(draw(st.lists(_TIE_VALUES, min_size=size, max_size=size)))
            for i, size in enumerate(sizes)
        }
    return tables


class TestSharedStream:
    @settings(max_examples=60, deadline=None)
    @given(_layouts(), st.sampled_from([1, 999, 1001]), st.integers(0, 2**32 - 1))
    def test_each_test_is_its_own_seeded_call(self, tables, n_permutations, seed):
        with_df = {m: groups for m, groups in tables.items() if sum(map(len, groups.values())) > len(groups)}
        anovas, diffs = permutation_tests(with_df, tables, n_permutations=n_permutations, seed=seed)
        assert list(anovas) == list(with_df) and list(diffs) == list(tables)
        for metric, groups in with_df.items():
            assert anovas[metric] == anova_f(groups, n_permutations=n_permutations, seed=seed)
        for metric, groups in tables.items():
            labels = sorted(groups)
            assert [(d.group_a, d.group_b) for d in diffs[metric]] == [
                (a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]
            ]
            for d in diffs[metric]:
                pair = {d.group_a: groups[d.group_a], d.group_b: groups[d.group_b]}
                (alone,) = pairwise_diffs(pair, n_permutations=n_permutations, seed=seed)
                assert (d.delta, d.p_value) == (alone.delta, alone.p_value)
            assert [d.p_adjusted for d in diffs[metric]] == bh_adjust([d.p_value for d in diffs[metric]])

    @settings(max_examples=50, deadline=None)
    @given(_metric_tables(), st.sampled_from([1, 999, 1000, 1001]), st.integers(0, 2**32 - 1))
    def test_equals_separate_calls(self, tables, n_permutations, seed):
        one_each = [m for m, groups in tables.items() if all(len(v) == 1 for v in groups.values())]
        if one_each:
            with pytest.raises(ValueError, match="within-group degrees of freedom"):
                permutation_tests(tables, {}, n_permutations=n_permutations, seed=seed)
            tables = {m: groups for m, groups in tables.items() if m not in one_each}
        anovas = permutation_tests(tables, {}, n_permutations=n_permutations, seed=seed)[0]
        diffs = permutation_tests({}, tables, n_permutations=n_permutations, seed=seed)[1]
        assert list(anovas) == list(diffs) == list(tables)
        for metric, groups in tables.items():
            # dataclass equality: f_stat, p_value, delta and p_adjusted compare with ==
            assert anovas[metric] == anova_f(groups, n_permutations=n_permutations, seed=seed)
            assert diffs[metric] == pairwise_diffs(groups, n_permutations=n_permutations, seed=seed)

    def test_empty_mapping(self):
        assert permutation_tests({}, {}) == ({}, {})

    def test_bad_metric_refused(self):
        tables = {"ok": {"a": [1.0, 2.0], "b": [2.0, 3.0]}, "bad": {"a": [1.0, math.nan], "b": [2.0]}}
        with pytest.raises(ValueError, match="non-finite"):
            permutation_tests(tables, {}, n_permutations=10)
        with pytest.raises(ValueError, match="non-finite"):
            permutation_tests({}, tables, n_permutations=10)


class TestNullCalibration:
    """Under exchangeable data a permutation p-value is valid. With B = 199,
    p <= 0.05 means at most 9 hits, which a continuous statistic reaches
    with probability exactly 10/200, so over many seeded null datasets the
    share of p <= alpha stays within 3 standard errors of alpha. The pairs
    (a, b), (a, c), (b, d) and (c, d) have the same pooled size."""

    ALPHA = 0.05
    B = 199
    DATASETS = 600
    SIZES = {"a": 8, "b": 12, "c": 12, "d": 8}

    @pytest.fixture(scope="class")
    def null_p_values(self):
        anova, pairs, family = [], [], []
        for seed in range(self.DATASETS):
            rng = np.random.default_rng(50_000 + seed)
            groups = {label: rng.normal(size=k) for label, k in self.SIZES.items()}
            anova.append(anova_f(groups, n_permutations=self.B, seed=seed).p_value)
            diffs = pairwise_diffs(groups, n_permutations=self.B, seed=seed)
            pairs.append([d.p_value for d in diffs])
            family.append(min(d.p_adjusted for d in diffs))
        return np.array(anova), np.array(pairs), np.array(family)

    def _band(self):
        se = math.sqrt(self.ALPHA * (1 - self.ALPHA) / self.DATASETS)
        return self.ALPHA - 3 * se, self.ALPHA + 3 * se

    def test_anova(self, null_p_values):
        low, high = self._band()
        assert low <= np.mean(null_p_values[0] <= self.ALPHA) <= high

    def test_each_pair(self, null_p_values):
        low, high = self._band()
        shares = np.mean(null_p_values[1] <= self.ALPHA, axis=0)
        assert shares.shape == (6,)
        assert ((low <= shares) & (shares <= high)).all(), shares

    def test_bh_family(self, null_p_values):
        # BH under the global null rejects anything at most alpha of the time
        _, high = self._band()
        assert np.mean(null_p_values[2] <= self.ALPHA) <= high


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
        assert ours.p_value == pytest.approx(ref_p, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda r: st.integers(2, 5).flatmap(
                lambda c: st.lists(
                    st.lists(st.integers(1, 200), min_size=c, max_size=c), min_size=r, max_size=r
                )
            )
        )
    )
    def test_matches_scipy_contingency(self, table):
        ours = chi2_independence(table)
        ref_stat, ref_p, ref_df, _ = sps.chi2_contingency(table, correction=False)
        assert ours.statistic == pytest.approx(ref_stat, rel=1e-12, abs=1e-12)
        assert ours.df == ref_df
        assert ours.p_value == pytest.approx(ref_p, rel=1e-12)

    def test_zero_marginal_rejected(self):
        with pytest.raises(ValueError, match="zero marginal"):
            chi2_independence([[0, 0], [3, 4]])

    def test_too_small_table_rejected(self):
        with pytest.raises(ValueError):
            chi2_independence([[1, 2]])


class TestChi2Tail:
    def test_small_df_matches_scipy(self):
        for df in range(1, 31):
            for stat in np.linspace(0.0, 200.0, 401):
                assert chi2_sf(float(stat), df) == pytest.approx(sps.chi2.sf(stat, df), rel=1e-12, abs=0)

    def test_large_df_matches_scipy(self):
        rng = np.random.default_rng(7)
        for df in [*range(31, 1001, 13), 999, 1000]:
            for stat in [*rng.uniform(0.0, 1e4, 8), *np.linspace(0.0, 3.0 * df, 8), 1e4]:
                ours, ref = chi2_sf(float(stat), df), sps.chi2.sf(stat, df)
                if ours < 1e-300 and ref < 1e-300:
                    continue
                assert ours == pytest.approx(ref, rel=1e-9, abs=0), (df, stat)

    def test_zero_statistic_is_exactly_one(self):
        for df in (1, 2, 3, 10, 999, 1000):
            assert chi2_sf(0.0, df) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2000), st.floats(0.0, 1e5))
    def test_finite_probability(self, df, stat):
        p = chi2_sf(stat, df)
        assert math.isfinite(p)
        assert 0.0 <= p <= 1.0


class TestExpit:
    def test_matches_scipy(self):
        eta = np.concatenate([np.linspace(-700.0, 700.0, 200_001), [-700.0, -1e-300, 0.0, 1e-300, 700.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = expit(eta)
        ref = special.expit(eta)
        assert np.all(np.abs(ours - ref) <= 1e-15 * ref)

    def test_no_overflow_far_out(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expit(np.array([-1e4, 1e4])).tolist() == [0.0, 1.0]

    def test_logistic_fit_matches_scipy_expit(self, monkeypatch):
        batch = simulate_exposures(ChoiceModelParams(), 10_000, np.random.default_rng(123))
        X, y = batch.design_matrix(), batch.selected
        ours = logistic_fit(X, y)
        monkeypatch.setattr(stats, "expit", special.expit)
        ref = logistic_fit(X, y)
        assert ours.converged and ref.converged
        assert ours.coefficients == pytest.approx(ref.coefficients, rel=1e-12, abs=0)
        assert ours.standard_errors == pytest.approx(ref.standard_errors, rel=1e-12, abs=0)


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
