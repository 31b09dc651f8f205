"""Teammate search: fit scoring, marginal diversity, and ranking.

A query weights criteria on a signed -3..+3 scale; a candidate's fit
score is the weighted sum of per-criterion scores in [0, 1]. In fairness
mode the fit score is multiplied by the candidate's diversity score (the
mean normalized diversity of the searcher's team after adding the
candidate) before ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    AGE_SPAN,
    METRIC_COUNT,
    NUM_SKILLS,
    TEAM_SIZE,
    Participant,
    _is_int,
    _is_real,
    attribute_table,
    population_rows,
    profile_for_members,
    score_teams,
)

CRITERION_KINDS = ("skill", "similar_age", "same_gender", "same_race", "same_international")
DEMOGRAPHIC_KINDS = ("similar_age", "same_gender", "same_race", "same_international")
MODES = ("fit_only", "fairness")
DIVERSITY_FLOOR = 0.01
# Candidates on one page of recommendations.
PAGE_SIZE = 10

# Participant._row columns read by the criteria.
_SAME_COLUMN = {"same_gender": 0, "same_race": 1, "same_international": 3}
_AGE_COLUMN = 4
_SKILL_COLUMN = 5


@dataclass(frozen=True)
class Criterion:
    """One weighted search criterion; skill criteria carry a skill index."""

    kind: str
    importance: int
    skill: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CRITERION_KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if not _is_int(self.importance) or not -3 <= self.importance <= 3:
            raise ValueError(f"importance must be an integer in [-3, 3], got {self.importance!r}")
        if self.kind == "skill":
            if not _is_int(self.skill) or not 0 <= self.skill < NUM_SKILLS:
                raise ValueError(f"skill criterion needs an integer skill index in 0..{NUM_SKILLS - 1}")
        elif self.skill is not None:
            raise ValueError(f"{self.kind} criterion takes no skill index")

    @property
    def key(self) -> tuple:
        return (self.kind, self.skill)


@dataclass(frozen=True)
class Query:
    """A searcher's weighted criteria; at least two, all with nonzero weight."""

    searcher_id: str
    criteria: tuple[Criterion, ...]

    def __post_init__(self) -> None:
        if len(self.criteria) < 2:
            raise ValueError("query needs at least two criteria")
        if any(c.importance == 0 for c in self.criteria):
            raise ValueError("query criteria must have nonzero importance")
        keys = [c.key for c in self.criteria]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate criteria in query")


@dataclass(frozen=True)
class Recommendation:
    candidate_id: str
    fit_score: float
    diversity_score: float
    combined_score: float
    rank: int
    match_percent: float


# A shown page's score columns, in the order the checks name them.
SCORE_COLUMNS = ("fit", "diversity", "combined", "match_percent")


@dataclass(frozen=True)
class ShownPage:
    """A searcher's page of recommendations as columns: ids[i] is the
    candidate at rank i + 1, scored fit[i], diversity[i], combined[i] and
    match_percent[i]. The candidates are distinct strings and every score is
    a finite real number; any other page is refused with ValueError."""

    searcher_id: str
    ids: tuple[str, ...]
    fit: tuple[float, ...]
    diversity: tuple[float, ...]
    combined: tuple[float, ...]
    match_percent: tuple[float, ...]

    def __post_init__(self) -> None:
        ids = self.ids
        if not len(ids) == len(self.fit) == len(self.diversity) == len(self.combined) == len(self.match_percent):
            raise ValueError("a shown page needs each score of each candidate")
        if not set(map(type, ids)) <= {str}:
            raise ValueError(f"shown candidate ids must be strings, got {ids!r}")
        if len(set(ids)) != len(ids):
            repeat = next(cid for i, cid in enumerate(ids) if cid in ids[:i])
            raise ValueError(f"shown candidate {repeat!r} repeats")
        # One pass over the scores of a page of floats, as ranking returns it;
        # any other page is checked score by score, and its first bad score named.
        scores = (*self.fit, *self.diversity, *self.combined, *self.match_percent)
        if set(map(type, scores)) <= {float} and all(map(math.isfinite, scores)):
            return
        for i, cid in enumerate(ids):
            for name in SCORE_COLUMNS:
                score = getattr(self, name)[i]
                if not _is_real(score):
                    raise ValueError(f"shown {name} of {cid!r} is not a finite number: {score!r}")


def criterion_score(searcher: Participant, candidate: Participant, criterion: Criterion) -> float:
    """Candidate's score for one criterion, in [0, 1]."""
    if criterion.kind == "skill":
        return (candidate.skills[criterion.skill] - 1) / 4.0
    if criterion.kind == "similar_age":
        return max(0.0, 1.0 - abs(searcher.age - candidate.age) / AGE_SPAN)
    if criterion.kind == "same_gender":
        return 1.0 if searcher.gender == candidate.gender else 0.0
    if criterion.kind == "same_race":
        return 1.0 if searcher.race == candidate.race else 0.0
    return 1.0 if searcher.international == candidate.international else 0.0


def fit_score(searcher: Participant, candidate: Participant, query: Query) -> float:
    """Weighted sum of per-criterion scores, added left to right in query order."""
    total = 0.0
    for c in query.criteria:
        total += c.importance * criterion_score(searcher, candidate, c)
    return total


def score_extremes(query: Query) -> tuple[float, float]:
    """Attainable (min, max) fit score; negative weights bottom out at s=1."""
    s_max = sum(max(c.importance, 0) for c in query.criteria)
    s_min = sum(min(c.importance, 0) for c in query.criteria)
    return float(s_min), float(s_max)


def match_percent(query: Query, score: float) -> float:
    """Score position within the query's attainable range, as 0..100."""
    s_min, s_max = score_extremes(query)
    if s_max == s_min:
        return 100.0
    return 100.0 * (score - s_min) / (s_max - s_min)


def marginal_diversity(team_members: Sequence[Participant], candidate: Participant) -> float:
    """Diversity score of the team after adding the candidate.

    The mean of all normalized metric components of the post-addition
    team, floored at DIVERSITY_FLOOR so the fairness multiplier never
    zeroes a fit score.
    """
    team_ids = {m.id for m in team_members}
    if len(team_ids) != len(team_members):
        raise ValueError("duplicate ids in team_members")
    if candidate.id in team_ids:
        raise ValueError(f"candidate {candidate.id!r} already in team")
    combined = list(team_members) + [candidate]
    if len(combined) > TEAM_SIZE:
        raise ValueError(f"adding candidate would exceed team size {TEAM_SIZE}")
    return max(DIVERSITY_FLOOR, profile_for_members(combined).component_mean)


def _criterion_columns(table: np.ndarray) -> tuple[np.ndarray, dict[tuple, list[int]]]:
    """criterion_score of every row of an attribute_table for every criterion
    and searcher, as (columns, column_of): columns[column_of[c.key][s]] scores
    criterion c for the searcher at row s. A skill has one column for every
    searcher; a demographic criterion has one per code of its column (per age
    for similar_age), shared by the searchers with that code."""
    n = len(table)
    columns: list[np.ndarray] = []
    column_of: dict[tuple, list[int]] = {}
    for skill in range(NUM_SKILLS):
        column_of["skill", skill] = [len(columns)] * n
        columns.append((table[:, _SKILL_COLUMN + skill] - 1) / 4.0)
    for kind in DEMOGRAPHIC_KINDS:
        codes = table[:, _AGE_COLUMN if kind == "similar_age" else _SAME_COLUMN[kind]]
        values, code_of = np.unique(codes, return_inverse=True)
        column_of[kind, None] = (len(columns) + code_of).tolist()
        for value in values:
            if kind == "similar_age":
                columns.append(np.maximum(0.0, 1.0 - np.abs(value - codes) / AGE_SPAN))
            else:
                columns.append((codes == value).astype(float))
    return np.array(columns).reshape(len(columns), n), column_of


class CodedPool:
    """A population coded once for ranking by row.

    Row i of table, which is read-only, is the attribute_table code of
    participant i; ids[i] is its id, row maps each id to its row, and
    id_rank[i] is the position of ids[i] in id order, so ties break by id
    without comparing strings. Duplicate ids are refused. The criterion
    columns are computed once, and the diversity of every row joining a
    team once per team: a session's groups search again and again.
    """

    def __init__(self, participants: Sequence[Participant]):
        self.row = population_rows(participants)
        self.ids: tuple[str, ...] = tuple(self.row)
        self.table = attribute_table(participants)
        self.table.flags.writeable = False
        self.id_rank = np.empty(len(self.ids), dtype=np.intp)
        self.id_rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = np.arange(len(self.ids))
        self._columns, self._column_of = _criterion_columns(self.table)
        self._team_diversity: dict[tuple[int, ...], np.ndarray] = {}

    def rank(
        self,
        query: Query,
        team_rows: Sequence[int],
        searcher_row: int,
        eligible_rows: np.ndarray,
        mode: str,
        page: int | None,
    ) -> ShownPage:
        """Rank the eligible rows for a searcher at searcher_row whose team
        is team_rows, fewer than TEAM_SIZE rows that eligible_rows excludes.

        fit_only sorts by fit score, fairness by fit x diversity; ties break
        by id. Returns the requested page (1-based) of PAGE_SIZE candidates,
        or the whole ranking when page is None. Each candidate is scored bit
        for bit as the scalar definitions score it: fit_score adds the
        criteria in query order, marginal_diversity scores the team in
        team_rows order followed by the candidate, and match_percent is
        applied elementwise. score_teams treats each row on its own, so a
        row's scores do not depend on the other rows scored with it: both
        modes score every row joining the team once per team and look the
        eligible rows up.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if page is not None and page < 1:
            raise ValueError("page is 1-based")
        eligible_rows = np.asarray(eligible_rows, dtype=np.intp)
        if not len(eligible_rows):
            return ShownPage(query.searcher_id, (), (), (), (), ())
        fit = self._fit(query, searcher_row)[eligible_rows]
        diversity = self._joining(team_rows)[eligible_rows]
        fairness = mode == "fairness"
        combined = fit * diversity if fairness else fit
        order = np.lexsort((self.id_rank[eligible_rows], -combined))
        if page is not None:
            order = order[(page - 1) * PAGE_SIZE : page * PAGE_SIZE]
        # fit_only's combined score is its fit score.
        return self._page(
            query, eligible_rows[order], fit[order], diversity[order], combined[order] if fairness else None
        )

    def solo_first_pages(self, queries: Sequence[Query], mode: str) -> np.ndarray:
        """Diversity of the first page of each query whose searcher, alone,
        ranks every other row: [len(queries), min(PAGE_SIZE, n - 1)], row q
        the diversity column of rank(queries[q], [s], s, every row but s,
        mode, page=1) for s the searcher's row.

        One pass for all queries: criterion slot j of every query is added
        in query order (a query without slot j adds 0.0), all rows sort in
        one np.lexsort with each searcher's own row last, and the searchers
        not yet cached score in one score_teams call.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        n = len(self.ids)
        searchers = [self.row[q.searcher_id] for q in queries]
        width = max(len(q.criteria) for q in queries)
        weights = np.zeros((len(queries), width))
        slots = np.zeros((len(queries), width), dtype=np.intp)
        for i, (query, searcher) in enumerate(zip(queries, searchers)):
            for j, c in enumerate(query.criteria):
                weights[i, j] = c.importance
                slots[i, j] = self._column_of[c.key][searcher]
        fit = np.zeros((len(queries), n))
        for j in range(width):
            fit = fit + weights[:, j, None] * self._columns[slots[:, j]]
        missing = sorted({s for s in searchers if (s,) not in self._team_diversity})
        if missing:
            idx = np.empty((len(missing), n, 2), dtype=np.intp)
            idx[:, :, 0] = np.array(missing)[:, None]
            idx[:, :, 1] = np.arange(n)
            scored = self._diversity(idx.reshape(-1, 2)).reshape(len(missing), n)
            self._team_diversity.update(((s,), d) for s, d in zip(missing, scored))
        diversity = np.array([self._team_diversity[(s,)] for s in searchers])
        key = -(fit * diversity) if mode == "fairness" else -fit
        key[np.arange(len(queries)), searchers] = np.inf
        order = np.lexsort((np.broadcast_to(self.id_rank, key.shape), key))
        return np.take_along_axis(diversity, order[:, : min(PAGE_SIZE, n - 1)], axis=1)

    def _fit(self, query: Query, searcher_row: int) -> np.ndarray:
        """fit_score of every row for the searcher at searcher_row, the
        criterion columns added in query order."""
        fit = np.zeros(len(self.ids))
        for c in query.criteria:
            fit = fit + c.importance * self._columns[self._column_of[c.key][searcher_row]]
        return fit

    def _page(self, query: Query, rows: np.ndarray, fit, diversity, combined) -> ShownPage:
        fit = tuple(fit.tolist())
        # match_percent of each fit, taking its steps in the same order. A
        # query's nonzero weights make s_max > s_min, so its equal-extremes
        # branch never applies.
        s_min, s_max = score_extremes(query)
        span = s_max - s_min
        return ShownPage(
            query.searcher_id,
            tuple(map(self.ids.__getitem__, rows.tolist())),
            fit,
            tuple(diversity.tolist()),
            fit if combined is None else tuple(combined.tolist()),
            tuple([100.0 * (f - s_min) / span for f in fit]),
        )

    def _joining(self, team_rows: Sequence[int]) -> np.ndarray:
        """marginal_diversity of every row joining the team, scored once per team."""
        key = tuple(team_rows)
        if key not in self._team_diversity:
            n, k = len(self.ids), len(key)
            idx = np.empty((n, k + 1), dtype=np.intp)
            idx[:, :k] = key
            idx[:, k] = np.arange(n)
            self._team_diversity[key] = self._diversity(idx)
        return self._team_diversity[key]

    def _diversity(self, idx: np.ndarray) -> np.ndarray:
        """marginal_diversity of each team idx[m] lists, its candidate last, floored."""
        surface, deep = score_teams(self.table, idx)
        # DiversityProfile.component_mean, floored as in marginal_diversity.
        return np.maximum(DIVERSITY_FLOOR, (surface + NUM_SKILLS * deep) / METRIC_COUNT)


def rank_candidates(
    query: Query,
    pool: Sequence[str],
    *,
    lookup: Mapping[str, Participant],
    mode: str,
    searcher_team: Sequence[str] | None = None,
    page: int | None = None,
) -> list[Recommendation]:
    """Rank pool candidates for the query's searcher, as CodedPool.rank does.

    Each pool member is scored as joining searcher_team alone; members of
    searcher_team are dropped and a full team gets none (a live search's
    pool is AssemblyState.candidates). An empty pool yields an empty list.
    Duplicate ids in pool or searcher_team, and ids missing from lookup,
    are refused.
    """
    team_ids = list(searcher_team) if searcher_team is not None else [query.searcher_id]
    if query.searcher_id not in team_ids:
        raise ValueError("searcher_team must include the searcher")
    in_team = set(team_ids)
    if len(in_team) != len(team_ids):
        raise ValueError("duplicate ids in searcher_team")
    if len(set(pool)) != len(pool):
        raise ValueError("duplicate ids in pool")
    for mid in (*team_ids, *pool):
        if mid not in lookup:
            raise ValueError(f"unknown member id {mid!r}")
    eligible = [cid for cid in pool if cid not in in_team] if len(team_ids) < TEAM_SIZE else []
    k = len(team_ids)
    coded = CodedPool([lookup[mid] for mid in team_ids + eligible])
    shown = coded.rank(
        query, range(k), team_ids.index(query.searcher_id), np.arange(k, k + len(eligible)), mode, page
    )
    columns = zip(shown.ids, shown.fit, shown.diversity, shown.combined, shown.match_percent)
    first = 1 if page is None else (page - 1) * PAGE_SIZE + 1
    return [Recommendation(cid, f, d, c, rank, m) for rank, (cid, f, d, c, m) in enumerate(columns, first)]
