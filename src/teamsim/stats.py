"""Statistical toolkit: permutation ANOVA, pairwise comparisons with
Benjamini-Hochberg adjustment, chi-squared independence, and a
fixed-effects logistic regression fitted by iteratively reweighted
least squares.

Permutation inference replaces table lookups for the F and pairwise
tests: p-values come from seeded label shuffles with the add-one rule
(1 + hits) / (1 + draws), so the smallest resolvable p is
1 / (n_permutations + 1).

Each test ranks permutations by a statistic that is exactly monotone in
the reported one. The pooled total sum of squares does not change under
permutation, so F is increasing in T = sum_g S_g^2 / n_g (S_g the group
sums); a pair's |mean(B) - mean(A)| is increasing in |S_B - S n_B / n|.
Permutations are drawn in blocks of at most PERMUTATION_BLOCK rows with
``rng.permuted`` on a broadcast ``arange``; its rows equal successive
``rng.permutation(n)`` draws and leave the generator in the same state,
so the blocks do not move the random stream. One array reduction per
block gives the statistic of every row.

permutation_tests runs the ANOVAs and pairwise tests of several metrics;
the *_by_metric functions and anova_f and pairwise_diffs are its special
cases. One rule fixes the draws: every test draws default_rng(seed)
permutations of range(N), N its pooled size, and all tests of a call with
the same N share them, evaluated one statistic at a time, as in the joint
resampling of Westfall & Young (1993). So each ANOVA's p-value is that
of anova_f alone and each pair's that of its two-group call
pairwise_diffs({a: ..., b: ...}); tie tolerances and the BH family stay
per metric.

Ties: a permuted statistic counts as reaching the observed one unless
``stat < observed - tol``. Statistics that are mathematically equal can
differ in their last bits, because the sums run in different orders, and
tie-heavy data such as Blau indices produce many of them. The tolerance
is TIE_ULPS * n * eps times a scale of the data (sum x^2 for T, sum |x|
for S_B), not of the statistic, which can be exactly zero. A nan from
overflowing sums is never below the threshold, so it counts as a tie.

The module needs numpy alone. chi2_sf gives the chi-squared tail
Q(df/2, stat/2) for integer df in closed form (Abramowitz & Stegun
26.4.4 and 26.4.5): for even df, exp(-x) times the Poisson partial sum;
for odd df, erfc(sqrt(x)) plus the half-integer terms. Each term is
exponentiated from its logarithm, so none overflows at any df, and the
terms, all positive, are added with math.fsum. expit is the logistic
function on numpy's exp in the sign-split form that never overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


def _checked_groups(mapping: Mapping[str, Sequence[float]]) -> dict[str, np.ndarray]:
    """Label -> float array; at least two groups, each one-dimensional,
    non-empty and finite."""
    groups = {str(k): np.asarray(v, dtype=float) for k, v in mapping.items()}
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    for label, values in groups.items():
        if values.size == 0:
            raise ValueError(f"group {label!r} is empty")
        if values.ndim != 1:
            raise ValueError(f"group {label!r} must be one-dimensional")
        if not np.isfinite(values).all():
            raise ValueError(f"group {label!r} has non-finite values")
    return groups


def _f_statistic(pooled: np.ndarray, sizes: Sequence[int]) -> float:
    k = len(sizes)
    n = pooled.size
    grand = pooled.mean()
    ssb = 0.0
    ssw = 0.0
    start = 0
    for size in sizes:
        chunk = pooled[start : start + size]
        mean = chunk.mean()
        ssb += size * (mean - grand) ** 2
        ssw += float(((chunk - mean) ** 2).sum())
        start += size
    if ssw == 0.0:
        return 0.0 if ssb == 0.0 else float("inf")
    return (ssb / (k - 1)) / (ssw / (n - k))


PERMUTATION_BLOCK = 1000
TIE_ULPS = 64


def _tie_tolerance(n: int, scale: float) -> float:
    return TIE_ULPS * n * np.finfo(float).eps * scale


def _square_sums(rows: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """T = sum_g S_g^2 / n_g for each row; group g is the g-th run of sizes[g] columns."""
    starts = np.cumsum([0, *sizes[:-1]])
    sums = np.add.reduceat(rows, starts, axis=-1)
    return (sums**2 / np.asarray(sizes, dtype=float)).sum(axis=-1)


def _permutation_hits_each(
    n: int,
    statistics: Sequence,
    tols: Sequence[float],
    n_permutations: int,
    rng: np.random.Generator,
) -> list[int]:
    """Per statistic, the permutations of range(n) whose value reaches the identity's.

    Every statistic maps an index array of shape (..., n) to one value per
    row and is evaluated on the same permutation blocks; only a value below
    ``observed - tol`` (with that statistic's own tol) misses. Sums that
    overflow give inf - inf = nan, which is never below anything, so
    overflow counts as a tie and can only raise the p-value. The statistics
    run one after another on each block, so memory stays at one block of
    indices plus what one statistic gathers.
    """
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    identity = np.arange(n)
    thresholds = [statistic(identity) - tol for statistic, tol in zip(statistics, tols)]
    misses = [0] * len(thresholds)
    for done in range(0, n_permutations, PERMUTATION_BLOCK):
        m = min(PERMUTATION_BLOCK, n_permutations - done)
        block = rng.permuted(np.broadcast_to(identity, (m, n)), axis=1)
        for j, (statistic, threshold) in enumerate(zip(statistics, thresholds)):
            misses[j] += int(np.count_nonzero(statistic(block) < threshold))
    return [n_permutations - miss for miss in misses]


@dataclass(frozen=True)
class AnovaResult:
    f_stat: float
    p_value: float
    n_permutations: int


@dataclass(frozen=True)
class PairwiseDiff:
    group_a: str
    group_b: str
    delta: float
    p_value: float
    p_adjusted: float


def _anova_statistic(pooled: np.ndarray, sizes: Sequence[int]):
    """(statistic, tol) ranking F through T = sum_g S_g^2 / n_g."""
    if pooled.size == len(sizes):
        raise ValueError("ANOVA needs within-group degrees of freedom: every group has one value")
    return lambda idx: _square_sums(pooled[idx], sizes), _tie_tolerance(pooled.size, float(pooled @ pooled))


def _pair_statistic(va: np.ndarray, vb: np.ndarray):
    """(statistic, tol) ranking |mean(B) - mean(A)| through |S_B - S n_B / n|."""
    pooled = np.concatenate([va, vb])
    na = va.size
    centre = pooled.sum() * vb.size / pooled.size
    return (
        lambda idx: np.abs(pooled[idx[..., na:]].sum(axis=-1) - centre),
        _tie_tolerance(pooled.size, float(np.abs(pooled).sum())),
    )


def permutation_tests(
    anova_groups: Mapping[str, Mapping[str, Sequence[float]]],
    pairwise_groups: Mapping[str, Mapping[str, Sequence[float]]],
    *,
    n_permutations: int = 10000,
    seed: int = 0,
) -> tuple[dict[str, AnovaResult], dict[str, list[PairwiseDiff]]]:
    """(ANOVA of each metric of anova_groups, pairwise differences of each
    metric of pairwise_groups), on one permutation stream per pooled size
    (see the module docstring); BH adjusts over each metric's pairs."""
    streams: dict[int, list[tuple]] = {}  # pooled size -> (statistic, tol) of its tests

    def add(n: int, test: tuple) -> tuple[int, int]:
        streams.setdefault(n, []).append(test)
        return n, len(streams[n]) - 1

    anovas = {}
    for metric, groups in anova_groups.items():
        groups = _checked_groups(groups)
        sizes = [values.size for values in groups.values()]
        pooled = np.concatenate(list(groups.values()))
        anovas[metric] = (_f_statistic(pooled, sizes), add(pooled.size, _anova_statistic(pooled, sizes)))
    pairs = {}
    for metric, groups in pairwise_groups.items():
        groups = _checked_groups(groups)
        labels = sorted(groups)
        pairs[metric] = [
            (a, b, float(vb.mean() - va.mean()), add(va.size + vb.size, _pair_statistic(va, vb)))
            for i, a in enumerate(labels)
            for b in labels[i + 1 :]
            for va, vb in [(groups[a], groups[b])]
        ]
    p_value = {}  # (pooled size, position in its stream) -> add-one p-value
    for n, stream in streams.items():
        hits = _permutation_hits_each(n, *zip(*stream), n_permutations, np.random.default_rng(seed))
        p_value.update(((n, j), (1 + h) / (1 + n_permutations)) for j, h in enumerate(hits))
    diffs = {}
    for metric, rows in pairs.items():
        p_values = [p_value[key] for *_, key in rows]
        diffs[metric] = [
            PairwiseDiff(group_a=a, group_b=b, delta=d, p_value=p, p_adjusted=adj)
            for (a, b, d, _), p, adj in zip(rows, p_values, bh_adjust(p_values))
        ]
    return {
        metric: AnovaResult(f_stat=f, p_value=p_value[key], n_permutations=n_permutations)
        for metric, (f, key) in anovas.items()
    }, diffs


def anova_f_by_metric(
    groups_by_metric: Mapping[str, Mapping[str, Sequence[float]]],
    *,
    n_permutations: int = 10000,
    seed: int = 0,
) -> dict[str, AnovaResult]:
    """anova_f of each metric's groups; the metrics share one permutation
    stream per pooled size (see permutation_tests)."""
    return permutation_tests(groups_by_metric, {}, n_permutations=n_permutations, seed=seed)[0]


def anova_f(groups, *, n_permutations: int = 10000, seed: int = 0) -> AnovaResult:
    """One-way F statistic with a permutation p-value.

    Group labels are shuffled n_permutations times (seeded); p is the
    add-one share of permuted F values at or above the observed one,
    ranked through the equivalent T = sum_g S_g^2 / n_g. One value per
    group leaves no within-group variance and is refused.
    """
    return anova_f_by_metric({"": groups}, n_permutations=n_permutations, seed=seed)[""]


def bh_adjust(p_values: Sequence[float]) -> list[float]:
    """Benjamini-Hochberg step-up adjustment; order-preserving, never smaller."""
    m = len(p_values)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 1.0
    for pos in range(m - 1, -1, -1):
        i = order[pos]
        running = min(running, p_values[i] * m / (pos + 1))
        adjusted[i] = running
    return adjusted


def pairwise_diffs_by_metric(
    groups_by_metric: Mapping[str, Mapping[str, Sequence[float]]],
    *,
    n_permutations: int = 10000,
    seed: int = 0,
) -> dict[str, list[PairwiseDiff]]:
    """pairwise_diffs of each metric's groups. Pairs of one pooled size share
    one stream, so each pair's p-value is that of its two-group call
    pairwise_diffs({a: ..., b: ...}, n_permutations=..., seed=seed)."""
    return permutation_tests({}, groups_by_metric, n_permutations=n_permutations, seed=seed)[1]


def pairwise_diffs(groups, *, n_permutations: int = 10000, seed: int = 0) -> list[PairwiseDiff]:
    """All unordered pair mean differences with permutation + BH inference.

    Pairs are oriented by sorted label: delta = mean(B) - mean(A). The
    two-sided permutation p-values, ranked through the equivalent
    |S_B - S n_B / n|, are BH-adjusted across the pair family.
    """
    return pairwise_diffs_by_metric({"": groups}, n_permutations=n_permutations, seed=seed)[""]


@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    df: int
    p_value: float


def chi2_independence(table) -> Chi2Result:
    """Pearson chi-squared test of independence on an r x c count table."""
    counts = np.asarray(table, dtype=float)
    if counts.ndim != 2 or counts.shape[0] < 2 or counts.shape[1] < 2:
        raise ValueError("table must be at least 2x2")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    if (row == 0).any() or (col == 0).any():
        raise ValueError("zero marginal in table")
    total = counts.sum()
    expected = np.outer(row, col) / total
    stat = float(((counts - expected) ** 2 / expected).sum())
    df = (counts.shape[0] - 1) * (counts.shape[1] - 1)
    return Chi2Result(statistic=stat, df=df, p_value=chi2_sf(stat, df))


def chi2_sf(stat: float, df: int) -> float:
    """P(X >= stat) for X chi-squared with integer df >= 1: the regularized
    upper incomplete gamma Q(df/2, stat/2)."""
    x = stat / 2.0
    if x == 0.0:
        return 1.0
    log_x = math.log(x)
    if df % 2 == 0:
        head = 0.0
        logs = [i * log_x - x - math.lgamma(i + 1) for i in range(df // 2)]
    else:
        head = math.erfc(math.sqrt(x))
        logs = [(i - 0.5) * log_x - x - math.lgamma(i + 0.5) for i in range(1, df // 2 + 1)]
    return min(1.0, math.fsum([head, *map(math.exp, logs)]))


def expit(eta: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-eta)), as e^eta / (1 + e^eta) for
    negative eta so that exp never overflows."""
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class LogisticFit:
    coefficients: np.ndarray
    standard_errors: np.ndarray
    converged: bool
    iterations: int
    separation: bool = False


SEPARATION_BOUND = 30.0
LOGISTIC_MAX_ITER = 100
LOGISTIC_TOL = 1e-8


def logistic_fit(X, y) -> LogisticFit:
    """Maximum-likelihood logistic regression via Newton/IRLS.

    Stops when the largest coefficient step falls below LOGISTIC_TOL, or
    unconverged after LOGISTIC_MAX_ITER steps. Diverging
    coefficients (|beta| beyond SEPARATION_BOUND) are flagged as
    separation and the fit is returned unconverged rather than silently.
    Standard errors come from the inverse observed information matrix.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d design matrix")
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("y length must match X rows")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("outcomes must be binary 0/1")
    if n <= p:
        raise ValueError("need more observations than coefficients")
    if (X == 0).all(axis=0).any():
        raise ValueError("design matrix has an all-zero column")

    beta = np.zeros(p)
    converged = False
    separation = False
    iterations = 0
    info = np.eye(p)
    for iterations in range(1, LOGISTIC_MAX_ITER + 1):
        eta = X @ beta
        mu = expit(eta)
        w = mu * (1.0 - mu)
        grad = X.T @ (y - mu)
        info = X.T @ (X * w[:, None])
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            separation = True
            break
        beta = beta + step
        if np.abs(beta).max() > SEPARATION_BOUND:
            separation = True
            break
        if np.abs(step).max() < LOGISTIC_TOL:
            converged = True
            break
    if converged:
        mu = expit(X @ beta)
        info = X.T @ (X * (mu * (1.0 - mu))[:, None])
    try:
        covariance = np.linalg.inv(info)
        se = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    except np.linalg.LinAlgError:
        se = np.full(p, np.nan)
    return LogisticFit(
        coefficients=beta,
        standard_errors=se,
        converged=converged and not separation,
        iterations=iterations,
        separation=separation,
    )
