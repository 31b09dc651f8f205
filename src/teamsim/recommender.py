"""Teammate search: fit scoring, marginal diversity, and ranking.

A query weights criteria on a signed -3..+3 scale; a candidate's fit
score is the weighted sum of per-criterion scores in [0, 1]. In fairness
mode the fit score is multiplied by the candidate's diversity score (the
mean normalized diversity of the searcher's team after adding the
candidate) before ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .core import (
    DEFAULT_SCHEMA,
    NUM_SKILLS,
    TEAM_SIZE,
    AttributeSchema,
    Participant,
    profile_for_members,
)

CRITERION_KINDS = ("skill", "similar_age", "same_gender", "same_race", "same_international")
DEMOGRAPHIC_KINDS = ("similar_age", "same_gender", "same_race", "same_international")
MODES = ("fit_only", "fairness")
DIVERSITY_FLOOR = 0.01


@dataclass(frozen=True)
class Criterion:
    """One weighted search criterion; skill criteria carry a skill index."""

    kind: str
    importance: int
    skill: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CRITERION_KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if not -3 <= self.importance <= 3:
            raise ValueError(f"importance must be in [-3, 3], got {self.importance}")
        if self.kind == "skill":
            if self.skill is None or not 0 <= self.skill < NUM_SKILLS:
                raise ValueError(f"skill criterion needs a skill index in 0..{NUM_SKILLS - 1}")
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


def criterion_score(
    searcher: Participant,
    candidate: Participant,
    criterion: Criterion,
    schema: AttributeSchema = DEFAULT_SCHEMA,
) -> float:
    """Candidate's score for one criterion, in [0, 1]."""
    if criterion.kind == "skill":
        return (candidate.skills[criterion.skill] - 1) / 4.0
    if criterion.kind == "similar_age":
        return max(0.0, 1.0 - abs(searcher.age - candidate.age) / schema.age_range)
    if criterion.kind == "same_gender":
        return 1.0 if searcher.gender == candidate.gender else 0.0
    if criterion.kind == "same_race":
        return 1.0 if searcher.race == candidate.race else 0.0
    return 1.0 if searcher.international == candidate.international else 0.0


def fit_score(
    searcher: Participant,
    candidate: Participant,
    query: Query,
    schema: AttributeSchema = DEFAULT_SCHEMA,
) -> float:
    """Weighted sum of per-criterion scores."""
    return sum(
        c.importance * criterion_score(searcher, candidate, c, schema) for c in query.criteria
    )


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


def marginal_diversity(
    team_members: Sequence[Participant],
    candidate: Participant,
    schema: AttributeSchema = DEFAULT_SCHEMA,
) -> float:
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
    return max(DIVERSITY_FLOOR, profile_for_members(combined, schema).component_mean)


def rank_candidates(
    query: Query,
    pool: Sequence[str],
    *,
    lookup: Mapping[str, Participant],
    mode: str,
    searcher_team: Sequence[str] | None = None,
    team_of: Callable[[str], Sequence[str]] | None = None,
    schema: AttributeSchema = DEFAULT_SCHEMA,
    team_size: int = TEAM_SIZE,
    page: int | None = None,
    page_size: int = 10,
) -> list[Recommendation]:
    """Rank pool candidates for the query's searcher.

    fit_only sorts by fit score, fairness by fit x diversity; ties break
    by candidate id. Candidates in the searcher's own group, and those
    whose group merge would exceed team_size, are dropped before scoring.
    Returns the requested page (1-based), or the whole ranking when page
    is None. An empty pool yields an empty list.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    searcher = lookup[query.searcher_id]
    team_ids = list(searcher_team) if searcher_team is not None else [query.searcher_id]
    if query.searcher_id not in team_ids:
        raise ValueError("searcher_team must include the searcher")
    team_members = [lookup[mid] for mid in team_ids]

    scored: list[tuple[float, str, Recommendation]] = []
    for cid in pool:
        if cid == query.searcher_id or cid in team_ids:
            continue
        candidate_group = list(team_of(cid)) if team_of is not None else [cid]
        if len(team_ids) + len(candidate_group) > team_size:
            continue
        candidate = lookup[cid]
        s = fit_score(searcher, candidate, query, schema)
        d = marginal_diversity(team_members, candidate, schema)
        combined = s * d if mode == "fairness" else s
        scored.append(
            (
                combined,
                cid,
                Recommendation(
                    candidate_id=cid,
                    fit_score=s,
                    diversity_score=d,
                    combined_score=combined,
                    rank=0,
                    match_percent=match_percent(query, s),
                ),
            )
        )

    scored.sort(key=lambda item: (-item[0], item[1]))
    ranked = [
        Recommendation(
            candidate_id=rec.candidate_id,
            fit_score=rec.fit_score,
            diversity_score=rec.diversity_score,
            combined_score=rec.combined_score,
            rank=i + 1,
            match_percent=rec.match_percent,
        )
        for i, (_, _, rec) in enumerate(scored)
    ]
    if page is None:
        return ranked
    if page < 1:
        raise ValueError("page is 1-based")
    start = (page - 1) * page_size
    return ranked[start : start + page_size]
