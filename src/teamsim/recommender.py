"""Teammate search: fit scoring, marginal diversity, and ranking.

A query weights criteria on a signed -3..+3 scale; a candidate's fit
score is the weighted sum of per-criterion scores in [0, 1]. In fairness
mode the fit score is multiplied by the candidate's diversity score (the
mean normalized diversity of the searcher's team after adding the
candidate) before ranking.
"""

from __future__ import annotations

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
    attribute_table,
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

    def to_payload(self) -> dict:
        """The query as a query_issued event logs it."""
        return {
            "searcher_id": self.searcher_id,
            "criteria": [
                {"kind": c.kind, "skill": c.skill, "importance": c.importance}
                for c in self.criteria
            ],
        }

    @classmethod
    def from_payload(cls, d) -> "Query":
        """Inverse of to_payload; a payload that is not a valid query raises ValueError."""
        try:
            criteria = tuple(Criterion(c["kind"], c["importance"], c["skill"]) for c in d["criteria"])
            return cls(searcher_id=d["searcher_id"], criteria=criteria)
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed query payload: {exc!r}") from exc


@dataclass(frozen=True)
class Recommendation:
    candidate_id: str
    fit_score: float
    diversity_score: float
    combined_score: float
    rank: int
    match_percent: float


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
    if any(m.id == candidate.id for m in team_members):
        raise ValueError(f"candidate {candidate.id!r} already in team")
    combined = list(team_members) + [candidate]
    if len(combined) > TEAM_SIZE:
        raise ValueError(f"adding candidate would exceed team size {TEAM_SIZE}")
    return max(DIVERSITY_FLOOR, profile_for_members(combined).component_mean)


def _criterion_column(searcher: np.ndarray, candidates: np.ndarray, criterion: Criterion) -> np.ndarray:
    """criterion_score of every candidate; rows are attribute_table codes."""
    if criterion.kind == "skill":
        return (candidates[:, _SKILL_COLUMN + criterion.skill] - 1) / 4.0
    if criterion.kind == "similar_age":
        gap = np.abs(searcher[_AGE_COLUMN] - candidates[:, _AGE_COLUMN])
        return np.maximum(0.0, 1.0 - gap / AGE_SPAN)
    column = _SAME_COLUMN[criterion.kind]
    return (candidates[:, column] == searcher[column]).astype(float)


class CodedPool:
    """A population coded once for ranking by row.

    Row i of table, which is read-only, is the attribute_table code of
    participant i; ids[i] is its id, row maps each id to its row, and
    id_rank[i] is the position of ids[i] in id order, so ties break by id
    without comparing strings. Duplicate ids are refused.
    """

    def __init__(self, participants: Sequence[Participant]):
        self.ids: tuple[str, ...] = tuple(p.id for p in participants)
        self.row: dict[str, int] = {pid: i for i, pid in enumerate(self.ids)}
        if len(self.row) != len(self.ids):
            raise ValueError("duplicate participant ids")
        self.table = attribute_table(participants)
        self.table.flags.writeable = False
        self.id_rank = np.empty(len(self.ids), dtype=np.intp)
        self.id_rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = np.arange(len(self.ids))
        # Diversity of every row joining a team, by team rows: a session's
        # groups search again and again.
        self._team_diversity: dict[tuple[int, ...], np.ndarray] = {}

    def rank(
        self,
        query: Query,
        team_rows: Sequence[int],
        searcher_row: int,
        eligible_rows: np.ndarray,
        mode: str,
        page: int | None,
    ) -> list[Recommendation]:
        """Rank the eligible rows for a searcher at searcher_row whose team
        is team_rows, fewer than TEAM_SIZE rows that eligible_rows excludes.

        fit_only sorts by fit score, fairness by fit x diversity; ties break
        by id. Returns the requested page (1-based) of PAGE_SIZE candidates,
        or the whole ranking when page is None. Each candidate is scored bit
        for bit as the scalar definitions score it: fit_score adds the
        criteria in query order, marginal_diversity scores the team in
        team_rows order followed by the candidate, and match_percent is
        applied elementwise. score_teams treats each row on its own, so a
        row's scores do not depend on the other rows scored with it: fairness
        scores every row joining the team once per team and looks the
        eligible rows up, and fit_only, whose ranking diversity does not
        enter, scores the returned page only.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if page is not None and page < 1:
            raise ValueError("page is 1-based")
        eligible_rows = np.asarray(eligible_rows, dtype=np.intp)
        if not len(eligible_rows):
            return []
        searcher = self.table[searcher_row]
        candidates = self.table[eligible_rows]
        fit = np.zeros(len(eligible_rows))
        for c in query.criteria:
            fit = fit + c.importance * _criterion_column(searcher, candidates, c)
        if mode == "fairness":
            diversity = self._joining(team_rows)[eligible_rows]
            combined = fit * diversity
        else:
            combined = fit
        order = np.lexsort((self.id_rank[eligible_rows], -combined))
        first = 1
        if page is not None:
            first = (page - 1) * PAGE_SIZE + 1
            order = order[first - 1 : first - 1 + PAGE_SIZE]
        rows = eligible_rows[order]
        fit = fit[order]
        diversity = diversity[order] if mode == "fairness" else self._diversity(team_rows, rows)
        # A query's nonzero weights make s_max > s_min, so match_percent's
        # equal-extremes branch never applies.
        s_min, s_max = score_extremes(query)
        match = 100.0 * (fit - s_min) / (s_max - s_min)
        columns = (fit, diversity, combined[order], match)
        return [
            Recommendation(self.ids[row], f, d, c, rank, m)
            for rank, (row, f, d, c, m) in enumerate(zip(rows.tolist(), *(a.tolist() for a in columns)), first)
        ]

    def _joining(self, team_rows: Sequence[int]) -> np.ndarray:
        """_diversity of every row joining the team, scored once per team."""
        key = tuple(team_rows)
        if key not in self._team_diversity:
            self._team_diversity[key] = self._diversity(key, np.arange(len(self.ids)))
        return self._team_diversity[key]

    def _diversity(self, team_rows: Sequence[int], rows: np.ndarray) -> np.ndarray:
        """marginal_diversity of each row joining the team, floored."""
        k = len(team_rows)
        idx = np.empty((len(rows), k + 1), dtype=np.intp)
        idx[:, :k] = team_rows
        idx[:, k] = rows
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
    return coded.rank(
        query, range(k), team_ids.index(query.searcher_id), np.arange(k, k + len(eligible)), mode, page
    )
