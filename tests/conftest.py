from __future__ import annotations

import numpy as np
import pytest

from teamsim.core import (
    BLAU_MAX,
    NUM_SKILLS,
    TEAM_SIZE,
    DiversityProfile,
    Participant,
    _blau_from_codes,
    _cv_from_values,
    normalize_cv,
)
from teamsim.population import synth_population
from teamsim.recommender import (
    DIVERSITY_FLOOR,
    PAGE_SIZE,
    Recommendation,
    ShownPage,
    fit_score,
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


def profile_for_rows(rows) -> DiversityProfile:
    """The scalar definition of a team's diversity, the oracle of core's
    kernel: the team of attribute rows (Participant._row codes), its
    members in the order given, one attribute and one member at a time
    through the Blau and CV definitions that core.blau and
    core.coefficient_of_variation use."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty group")
    gender, race, eth, intl, age, *skills = zip(*rows)
    gender_b, race_b, eth_b, intl_b = (
        _blau_from_codes(codes, n) / top for codes, top in zip((gender, race, eth, intl), BLAU_MAX)
    )
    age_cv = _cv_from_values(age, n)
    skill_cvs = tuple(_cv_from_values(values, n) for values in skills)
    surface = gender_b + race_b + eth_b + intl_b + normalize_cv(age_cv)
    deep = 0.0
    for cv in skill_cvs:
        deep += normalize_cv(cv)
    deep /= NUM_SKILLS
    return DiversityProfile(
        gender_blau=gender_b,
        race_blau=race_b,
        ethnicity_blau=eth_b,
        international_blau=intl_b,
        age_cv=age_cv,
        skill_cvs=skill_cvs,
        surface_score=surface,
        deep_score=deep,
        total_score=surface + deep,
    )


def scalar_surface_deep(rows, idxs) -> tuple[float, float]:
    """(surface_score, deep_score) of the team idxs selects from rows, through profile_for_rows."""
    profile = profile_for_rows([rows[i] for i in idxs])
    return profile.surface_score, profile.deep_score


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
    team_rows = [lookup[mid]._row for mid in team_ids]
    scored = []
    for cid in pool:
        if cid in team_ids or len(team_ids) + 1 > TEAM_SIZE:
            continue
        candidate = lookup[cid]
        fit = fit_score(searcher, candidate, query)
        diversity = max(DIVERSITY_FLOOR, profile_for_rows(team_rows + [candidate._row]).component_mean)
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
