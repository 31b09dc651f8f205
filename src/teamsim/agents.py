"""Synthetic participants driven by a logistic invitation-choice model.

Each agent issues weighted teammate searches, walks the first page of
recommendations in rank order, and invites the first candidate whose
Bernoulli draw under the choice model succeeds. The model's default
coefficients make low ranks, same-gender candidates, and (under the
fairness treatment) diverse candidates more likely to be chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NUM_SKILLS, TEAM_SIZE, _is_int, _is_real
from .protocol import AssemblyState
from .recommender import _SAME_COLUMN, DEMOGRAPHIC_KINDS, PAGE_SIZE, CodedPool, Criterion, Query

# The choice model's fixed effects, in design-matrix column order.
FIXED_EFFECTS = ("intercept", "rank", "same_gender", "diversity", "treatment", "interaction")


@dataclass(frozen=True)
class ChoiceModelParams:
    """Logistic coefficients governing invitation decisions."""

    intercept: float = -3.17
    rank: float = -1.20
    same_gender: float = 0.26
    diversity: float = -0.11
    treatment: float = -0.33
    interaction: float = 0.95
    random_intercept_variance: float = 0.42

    def __post_init__(self) -> None:
        for name in (*FIXED_EFFECTS, "random_intercept_variance"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite real number, got {getattr(self, name)!r}")
        if self.random_intercept_variance < 0:
            raise ValueError("random_intercept_variance must be >= 0")

    def named_fixed_effects(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in FIXED_EFFECTS}


@dataclass(frozen=True)
class AgentPolicy:
    """Query-generation and response behavior of one synthetic agent.

    A query draws its criterion count uniformly from criteria_counts;
    each criterion is a skill with probability skill_criterion_prob,
    otherwise a demographic-similarity criterion chosen uniformly.
    Importances are sampled uniformly from importance_choices. Incoming
    invitations are accepted per-member with accept_probability.
    """

    criteria_counts: tuple[int, ...] = (2, 3)
    skill_criterion_prob: float = 0.49
    importance_choices: tuple[int, ...] = (1, 2, 3)
    accept_probability: float = 0.8

    def __post_init__(self) -> None:
        # A string fails the comparison first, with the TypeError that
        # ExperimentConfig.from_dict reports as a malformed value.
        for name in ("skill_criterion_prob", "accept_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0 or not _is_real(value):
                raise ValueError(f"{name} must be a finite real number in [0, 1], got {value!r}")
        # A query draws skills unless skill_criterion_prob is 0 and
        # demographic criteria unless it is 1: at most this many distinct ones.
        most = (self.skill_criterion_prob > 0) * NUM_SKILLS + (self.skill_criterion_prob < 1) * len(DEMOGRAPHIC_KINDS)
        if not self.criteria_counts or any(not _is_int(c) or not 2 <= c <= most for c in self.criteria_counts):
            raise ValueError(f"criteria_counts must contain integers in 2..{most}, got {self.criteria_counts!r}")
        if not self.importance_choices or not all(_is_int(i) and 0 < abs(i) <= 3 for i in self.importance_choices):
            raise ValueError(
                f"importance_choices must contain nonzero integers in [-3, 3], got {self.importance_choices!r}"
            )


@dataclass(frozen=True)
class StandardizationMoments:
    """Session-level mean/sd used to z-score rank and diversity inputs."""

    rank_mean: float
    rank_sd: float
    diversity_mean: float
    diversity_sd: float

    def __post_init__(self) -> None:
        if self.rank_sd <= 0 or self.diversity_sd <= 0:
            raise ValueError("standardization sd must be > 0")

    def to_dict(self) -> dict:
        return {
            "rank_mean": self.rank_mean,
            "rank_sd": self.rank_sd,
            "diversity_mean": self.diversity_mean,
            "diversity_sd": self.diversity_sd,
        }


@dataclass(slots=True)
class Exposure:
    """One displayed recommendation and whether the searcher picked it. Its
    fields, in order, are the exposures.csv columns after condition and session.
    A run builds one per walked candidate and keeps them all, so it is slotted:
    no per-instance dict. Not frozen: a frozen dataclass sets each field
    through object.__setattr__ (five times the cost)."""

    searcher: str
    candidate: str
    round: int
    rank: int
    rank_z: float
    same_gender: int
    diversity: float
    diversity_z: float
    treatment: int
    selected: int


def standardize(
    moments: StandardizationMoments, raw_rank: float, raw_diversity: float
) -> tuple[float, float]:
    """(rank_z, diversity_z) using the session's pilot moments."""
    return (
        (raw_rank - moments.rank_mean) / moments.rank_sd,
        (raw_diversity - moments.diversity_mean) / moments.diversity_sd,
    )


def choice_probability(
    params: ChoiceModelParams,
    rank_z: float,
    same_gender: int,
    diversity_z: float,
    treatment: int,
    u: float = 0.0,
) -> float:
    """Invitation probability for one standardized recommendation."""
    eta = linear_predictor(params, rank_z, same_gender, diversity_z, treatment, u)
    if eta >= 0:
        return 1.0 / (1.0 + math.exp(-eta))
    e = math.exp(eta)
    return e / (1.0 + e)


def _predictors(rank_z, same_gender, diversity_z, treatment) -> tuple:
    """The columns of FIXED_EFFECTS after the intercept; floats or arrays."""
    return (rank_z, same_gender, diversity_z, treatment, diversity_z * treatment)


def linear_predictor(params: ChoiceModelParams, rank_z, same_gender, diversity_z, treatment, u=0.0):
    """The choice model's log-odds, summed left to right in FIXED_EFFECTS
    order, plus the searcher's random intercept u; works on floats and on
    arrays alike. Spelled out rather than looped: it runs once per exposure."""
    rank, same, div, treat, inter = _predictors(rank_z, same_gender, diversity_z, treatment)
    return (
        params.intercept
        + params.rank * rank
        + params.same_gender * same
        + params.diversity * div
        + params.treatment * treat
        + params.interaction * inter
        + u
    )


def design_matrix(rank_z, same_gender, diversity_z, treatment) -> np.ndarray:
    """One row per exposure, one column per name in FIXED_EFFECTS."""
    columns = _predictors(rank_z, same_gender, diversity_z, treatment)
    return np.column_stack([np.ones(len(rank_z)), *columns])


# Every criterion a query can hold, by (kind, skill, importance): queries
# share these frozen instances rather than each building its own.
_CRITERIA = {
    (kind, skill, importance): Criterion(kind, importance, skill)
    for kind, skill in (*(("skill", i) for i in range(NUM_SKILLS)), *((k, None) for k in DEMOGRAPHIC_KINDS))
    for importance in (-3, -2, -1, 1, 2, 3)
}


def gen_query(searcher_id: str, policy: AgentPolicy, rng: np.random.Generator) -> Query:
    """Sample one valid search query; duplicate criteria are redrawn. The
    criteria are the shared instances of _CRITERIA."""
    count = int(policy.criteria_counts[rng.integers(len(policy.criteria_counts))])
    criteria: dict[tuple, Criterion] = {}  # by key, in draw order
    while len(criteria) < count:
        importance = int(policy.importance_choices[rng.integers(len(policy.importance_choices))])
        if rng.random() < policy.skill_criterion_prob:
            key = ("skill", int(rng.integers(NUM_SKILLS)))
        else:
            key = (DEMOGRAPHIC_KINDS[rng.integers(len(DEMOGRAPHIC_KINDS))], None)
        if key not in criteria:
            criteria[key] = _CRITERIA[(*key, importance)]
    return Query(searcher_id=searcher_id, criteria=tuple(criteria.values()))


def agent_step(
    agent_id: str,
    state: AssemblyState,
    *,
    pool: CodedPool,
    policy: AgentPolicy,
    params: ChoiceModelParams,
    moments: StandardizationMoments,
    mode: str,
    u: float,
    rng: np.random.Generator,
) -> list[Exposure]:
    """One search-and-invite turn for an agent.

    Walks the first recommendation page in rank order and invites the
    first candidate whose choice-model draw succeeds; recipients then
    answer immediately with per-member acceptance draws. Agents whose
    group already holds TEAM_SIZE members do nothing. Returns the walked
    exposures. pool codes the session's members in state.members order, so
    a member's row in pool is its position in state.
    """
    # The pool a session builds is the tuple its state holds, so identity
    # settles the check on nearly every turn.
    if pool.ids is not state.members and pool.ids != state.members:
        raise ValueError("pool must code the session's members in member order")
    group = state.group_of(agent_id)
    if len(group) >= TEAM_SIZE:
        return []
    query = gen_query(agent_id, policy, rng)
    state.record_query(query)
    row = pool.row
    searcher_row = row[agent_id]
    page = pool.rank(query, [row[m] for m in group], searcher_row, state.eligible_rows(agent_id), mode, page=1)
    state.record_recommendations(page)
    treatment = 1 if mode == "fairness" else 0
    genders = pool.table[:, _SAME_COLUMN["same_gender"]]
    gender = genders[searcher_row]
    exposures: list[Exposure] = []
    for rank, (candidate, diversity) in enumerate(zip(page.ids, page.diversity), 1):
        rank_z, div_z = standardize(moments, rank, diversity)
        same_gender = int(genders[row[candidate]] == gender)
        p = choice_probability(params, rank_z, same_gender, div_z, treatment, u)
        selected = int(rng.random() < p)
        exposures.append(
            Exposure(agent_id, candidate, state.round, rank, rank_z, same_gender, diversity, div_z, treatment, selected)
        )
        if not selected:
            continue
        inv_id = state.send_invitation(agent_id, candidate)
        inv = state.invitations[inv_id]
        for member in inv.recipient_group:
            if state.invitations[inv_id].status != "open":
                break
            if inv.responses.get(member) != "pending":
                continue
            response = "accepted" if rng.random() < policy.accept_probability else "declined"
            state.respond(inv_id, member, response)
        break
    return exposures


@dataclass
class ExposureBatch:
    """Synthetic standardized exposures plus outcomes, for model recovery."""

    rank_z: np.ndarray
    same_gender: np.ndarray
    diversity_z: np.ndarray
    treatment: np.ndarray
    selected: np.ndarray

    def design_matrix(self) -> np.ndarray:
        return design_matrix(self.rank_z, self.same_gender, self.diversity_z, self.treatment)


SIMULATED_SEARCHERS = 200


def simulate_exposures(
    params: ChoiceModelParams,
    n: int,
    rng: np.random.Generator,
    *,
    random_intercepts: bool = False,
    treatment_share: float = 0.5,
) -> ExposureBatch:
    """Draw n independent recommendation exposures straight from the model.

    Raw ranks are uniform over a page of PAGE_SIZE, raw diversity
    uniform on (0, 1); both are standardized against the batch's own moments
    before entering the linear predictor, mirroring the live pipeline. The
    exposures come from SIMULATED_SEARCHERS searchers.
    """
    searcher = rng.integers(SIMULATED_SEARCHERS, size=n)
    u_by_searcher = (
        rng.normal(0.0, math.sqrt(params.random_intercept_variance), size=SIMULATED_SEARCHERS)
        if random_intercepts
        else np.zeros(SIMULATED_SEARCHERS)
    )
    treat_by_searcher = (rng.random(SIMULATED_SEARCHERS) < treatment_share).astype(int)
    raw_rank = rng.integers(1, PAGE_SIZE + 1, size=n).astype(float)
    raw_div = rng.random(n)
    same_gender = rng.integers(0, 2, size=n)
    rank_z = (raw_rank - raw_rank.mean()) / raw_rank.std()
    div_z = (raw_div - raw_div.mean()) / raw_div.std()
    treatment = treat_by_searcher[searcher]
    eta = linear_predictor(params, rank_z, same_gender, div_z, treatment, u_by_searcher[searcher])
    p = 1.0 / (1.0 + np.exp(-eta))
    selected = (rng.random(n) < p).astype(int)
    return ExposureBatch(
        rank_z=rank_z,
        same_gender=same_gender.astype(float),
        diversity_z=div_z,
        treatment=treatment.astype(float),
        selected=selected,
    )
