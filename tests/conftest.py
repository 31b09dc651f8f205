from __future__ import annotations

import numpy as np
import pytest

from teamsim.core import TEAM_SIZE, Participant
from teamsim.population import synth_population
from teamsim.recommender import (
    PAGE_SIZE,
    Recommendation,
    ShownPage,
    fit_score,
    marginal_diversity,
    match_percent,
)

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_participant(
    pid: str = "p1",
    gender: str = "Female",
    race: str = "White",
    hispanic: bool = False,
    international: bool = False,
    age: int = 25,
    skills: tuple[int, ...] = (3, 3, 3, 3, 3, 3),
) -> Participant:
    return Participant(
        id=pid,
        gender=gender,
        race=race,
        hispanic=hispanic,
        international=international,
        age=age,
        skills=skills,
    )


@pytest.fixture
def participant_factory():
    return make_participant


@pytest.fixture
def mixed_population():
    """32 participants drawn from the default demographic mix."""
    return synth_population(32, rng=np.random.default_rng(2024))


@pytest.fixture
def small_population():
    """8 participants, enough for exactly two teams."""
    return synth_population(8, rng=np.random.default_rng(77))


def clone_population(n: int) -> list[Participant]:
    return [
        make_participant(pid=f"c{i:03d}", gender="Female", race="Asian", age=30, skills=(2,) * 6)
        for i in range(n)
    ]


@pytest.fixture
def clones():
    return clone_population


def scalar_rank_candidates(
    query,
    pool,
    *,
    lookup,
    mode,
    searcher_team=None,
    page=None,
):
    """Reference for rank_candidates: one candidate at a time through the
    scalar definitions, sorted by (-combined, candidate id)."""
    searcher = lookup[query.searcher_id]
    team_ids = list(searcher_team) if searcher_team is not None else [query.searcher_id]
    team_members = [lookup[mid] for mid in team_ids]
    scored = []
    for cid in pool:
        if cid in team_ids or len(team_ids) + 1 > TEAM_SIZE:
            continue
        candidate = lookup[cid]
        fit = fit_score(searcher, candidate, query)
        diversity = marginal_diversity(team_members, candidate)
        combined = fit * diversity if mode == "fairness" else fit
        scored.append((combined, cid, fit, diversity, match_percent(query, fit)))
    scored.sort(key=lambda item: (-item[0], item[1]))
    ranked = [
        Recommendation(cid, fit, diversity, combined, rank, percent)
        for rank, (combined, cid, fit, diversity, percent) in enumerate(scored, 1)
    ]
    if page is None:
        return ranked
    return ranked[(page - 1) * PAGE_SIZE : page * PAGE_SIZE]


def shown_page(searcher_id, recs) -> ShownPage:
    """The columns of ranked Recommendations, as CodedPool.rank returns them."""
    return ShownPage(
        searcher_id,
        tuple(r.candidate_id for r in recs),
        tuple(r.fit_score for r in recs),
        tuple(r.diversity_score for r in recs),
        tuple(r.combined_score for r in recs),
        tuple(r.match_percent for r in recs),
    )
