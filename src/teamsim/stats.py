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

Ties: a permuted statistic counts as reaching the observed one unless
``stat < observed - tol``. Statistics that are mathematically equal can
differ in their last bits, because the sums run in different orders, and
tie-heavy data such as Blau indices produce many of them. The tolerance
is TIE_ULPS * n * eps times a scale of the data (sum x^2 for T, sum |x|
for S_B), not of the statistic, which can be exactly zero. A nan from
overflowing sums is never below the threshold, so it counts as a tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import expit, gammaincc


@dataclass(frozen=True)
class GroupSamples:
    """Named groups of finite observations; at least two groups, none empty."""

    groups: dict[str, np.ndarray]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Sequence[float]]) -> "GroupSamples":
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
        return cls(groups=groups)

    @property
    def labels(self) -> list[str]:
        return list(self.groups)

    def pooled(self) -> tuple[np.ndarray, list[int]]:
        values = np.concatenate([self.groups[k] for k in self.groups])
        sizes = [len(self.groups[k]) for k in self.groups]
        return values, sizes


def _as_groups(groups) -> GroupSamples:
    if isinstance(groups, GroupSamples):
        return groups
    return GroupSamples.from_mapping(groups)


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


def _permutation_hits(
    n: int, statistic, tol: float, n_permutations: int, rng: np.random.Generator
) -> int:
    """Permutations of range(n) whose statistic reaches the identity's, ties included.

    ``statistic`` maps an index array of shape (..., n) to one value per row.
    Only a statistic below ``observed - tol`` misses. Sums that overflow
    give inf - inf = nan, which is never below anything, so overflow counts
    as a tie and can only raise the p-value.
    """
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    threshold = statistic(np.arange(n)) - tol
    misses = 0
    for done in range(0, n_permutations, PERMUTATION_BLOCK):
        m = min(PERMUTATION_BLOCK, n_permutations - done)
        block = rng.permuted(np.broadcast_to(np.arange(n), (m, n)), axis=1)
        misses += int(np.count_nonzero(statistic(block) < threshold))
    return n_permutations - misses


@dataclass(frozen=True)
class AnovaResult:
    f_stat: float
    p_value: float
    n_permutations: int


def anova_f(groups, *, n_permutations: int = 10000, seed: int = 0) -> AnovaResult:
    """One-way F statistic with a permutation p-value.

    Group labels are shuffled n_permutations times (seeded); p is the
    add-one share of permuted F values at or above the observed one,
    ranked through the equivalent T = sum_g S_g^2 / n_g.
    """
    gs = _as_groups(groups)
    pooled, sizes = gs.pooled()
    hits = _permutation_hits(
        pooled.size,
        lambda idx: _square_sums(pooled[idx], sizes),
        _tie_tolerance(pooled.size, float(pooled @ pooled)),
        n_permutations,
        np.random.default_rng(seed),
    )
    return AnovaResult(
        f_stat=_f_statistic(pooled, sizes),
        p_value=(1 + hits) / (1 + n_permutations),
        n_permutations=n_permutations,
    )


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


@dataclass(frozen=True)
class PairwiseDiff:
    group_a: str
    group_b: str
    delta: float
    p_value: float
    p_adjusted: float


def pairwise_diffs(groups, *, n_permutations: int = 10000, seed: int = 0) -> list[PairwiseDiff]:
    """All unordered pair mean differences with permutation + BH inference.

    Pairs are oriented by sorted label: delta = mean(B) - mean(A). The
    two-sided permutation p-values, ranked through the equivalent
    |S_B - S n_B / n|, are BH-adjusted across the pair family.
    """
    gs = _as_groups(groups)
    labels = sorted(gs.labels)
    results: list[tuple[str, str, float, float]] = []
    rng = np.random.default_rng(seed)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            va = gs.groups[a]
            vb = gs.groups[b]
            delta = float(vb.mean() - va.mean())
            pooled = np.concatenate([va, vb])
            na = va.size
            centre = pooled.sum() * vb.size / pooled.size
            hits = _permutation_hits(
                pooled.size,
                lambda idx: np.abs(pooled[idx[..., na:]].sum(axis=-1) - centre),
                _tie_tolerance(pooled.size, float(np.abs(pooled).sum())),
                n_permutations,
                rng,
            )
            results.append((a, b, delta, (1 + hits) / (1 + n_permutations)))
    adjusted = bh_adjust([r[3] for r in results])
    return [
        PairwiseDiff(group_a=a, group_b=b, delta=d, p_value=p, p_adjusted=adj)
        for (a, b, d, p), adj in zip(results, adjusted)
    ]


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
    p = float(gammaincc(df / 2.0, stat / 2.0))
    return Chi2Result(statistic=stat, df=df, p_value=p)


@dataclass(frozen=True)
class LogisticFit:
    coefficients: np.ndarray
    standard_errors: np.ndarray
    converged: bool
    iterations: int
    separation: bool = False


SEPARATION_BOUND = 30.0


def logistic_fit(
    X, y, *, max_iter: int = 100, tol: float = 1e-8
) -> LogisticFit:
    """Maximum-likelihood logistic regression via Newton/IRLS.

    Stops when the largest coefficient step falls below tol. Diverging
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
    for iterations in range(1, max_iter + 1):
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
        if np.abs(step).max() < tol:
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
