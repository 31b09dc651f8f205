"""Run one experimental session under any of the four conditions.

random and algorithmic_diverse assign a partition directly; the agency
conditions (self_assembled, fairness_aware) run invitation rounds over
the assembly state machine with synthetic agents and finish with the
deadline fill. Standardization moments for the agents' choice model are
estimated from a pilot batch of recommendations before the live rounds.
An agency session codes its population once, as a CodedPool whose rows
are the assembly state's member positions; the pilot and every agent
search rank by row through it, and share its diversity cache.
run_ga_sessions runs several algorithmic_diverse sessions at once, their
GA searches stepped together, each with the result it gets alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .agents import (
    AgentPolicy,
    ChoiceModelParams,
    Exposure,
    StandardizationMoments,
    agent_step,
    gen_query,
)
from .core import (
    TEAM_SIZE,
    DiversityProfile,
    Participant,
    Partition,
    population_lookup,
    team_diversity_profile,
)
from .optimizer import GaConfig, ga_partition_many, random_partition
from .protocol import AssemblyState, Event
from .recommender import PAGE_SIZE, CodedPool

CONDITIONS = ("random", "algorithmic_diverse", "self_assembled", "fairness_aware")
AGENCY_MODES = {"self_assembled": "fit_only", "fairness_aware": "fairness"}

PILOT_EXPOSURES = 500


@dataclass
class SessionResult:
    condition: str
    session_index: int
    population: list[Participant]
    partition: Partition
    profiles: list[DiversityProfile]
    events: list[Event] = field(default_factory=list)
    moments: StandardizationMoments | None = None
    exposures: list[Exposure] = field(default_factory=list)


def pilot_moments(
    pool: CodedPool,
    policy: AgentPolicy,
    mode: str,
    rng: np.random.Generator,
) -> StandardizationMoments:
    """Estimate rank/diversity moments from a pre-session recommendation batch.

    Queries are sampled as the live agents would issue them, each a
    searcher then its query, and ranked against the all-singleton pool.
    Every first page holds min(PAGE_SIZE, n - 1) candidates, so
    ceil(PILOT_EXPOSURES / that) queries pool at least PILOT_EXPOSURES
    (rank, diversity) pairs. All queries are drawn first and ranked in one
    pass, CodedPool.solo_first_pages. Constant columns fall back to sd 1 so
    a degenerate population still standardizes (to all-zero scores). A
    population of fewer than 2 has no pages and is refused before any draw.
    """
    n = len(pool.ids)
    if n < 2:
        raise ValueError(f"pilot needs at least 2 participants, got {n}")
    queries = []
    for _ in range(math.ceil(PILOT_EXPOSURES / min(PAGE_SIZE, n - 1))):
        searcher = int(rng.integers(n))
        queries.append(gen_query(pool.ids[searcher], policy, rng))
    diversity = pool.solo_first_pages(queries, mode)
    # Each page's ranks are 1..k, in the order its diversity row lists them.
    rank_arr = np.tile(np.arange(1.0, diversity.shape[1] + 1), len(queries))
    div_arr = diversity.ravel()
    rank_sd = float(rank_arr.std())
    div_sd = float(div_arr.std())
    return StandardizationMoments(
        rank_mean=float(rank_arr.mean()),
        rank_sd=rank_sd if rank_sd > 0 else 1.0,
        diversity_mean=float(div_arr.mean()),
        diversity_sd=div_sd if div_sd > 0 else 1.0,
    )


def run_assembly(
    population: Sequence[Participant],
    mode: str,
    rng: np.random.Generator,
    *,
    policy: AgentPolicy,
    params: ChoiceModelParams,
    rounds: int = 10,
) -> tuple[AssemblyState, Partition, StandardizationMoments, list[Exposure]]:
    """Agent-driven assembly: pilot moments, seeded-order rounds, finalize.
    One CodedPool of the population serves the pilot and every search."""
    pool = CodedPool(population)
    ids = pool.ids
    moments = pilot_moments(pool, policy, mode, rng)
    sigma = math.sqrt(params.random_intercept_variance)
    u_by_agent = {pid: float(rng.normal(0.0, sigma)) if sigma > 0 else 0.0 for pid in ids}
    state = AssemblyState(ids)
    exposures: list[Exposure] = []
    for _ in range(rounds):
        state.advance_round()
        order = [ids[i] for i in rng.permutation(len(ids))]
        for agent_id in order:
            exposures.extend(
                agent_step(
                    agent_id,
                    state,
                    pool=pool,
                    policy=policy,
                    params=params,
                    moments=moments,
                    mode=mode,
                    u=u_by_agent[agent_id],
                    rng=rng,
                )
            )
    state.advance_round()
    partition = state.finalize(rng)
    return state, partition, moments, exposures


def run_session(
    condition: str,
    population: Sequence[Participant],
    *,
    rng: np.random.Generator,
    session_index: int = 0,
    ga: GaConfig = GaConfig(),
    policy: AgentPolicy = AgentPolicy(),
    params: ChoiceModelParams = ChoiceModelParams(),
    rounds: int = 10,
) -> SessionResult:
    """Produce a partition plus per-team diversity profiles for one condition."""
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    if len(population) < 2 * TEAM_SIZE:
        raise ValueError(f"population must have at least {2 * TEAM_SIZE} participants")
    if condition == "algorithmic_diverse":
        (result,) = run_ga_sessions([population], [rng], session_indices=[session_index], ga=ga)
        return result
    if condition == "random":
        return session_result(condition, population, random_partition(population, rng=rng), session_index)
    state, partition, moments, exposures = run_assembly(
        population, AGENCY_MODES[condition], rng, policy=policy, params=params, rounds=rounds
    )
    return session_result(condition, population, partition, session_index, state.event_log, moments, exposures)


def run_ga_sessions(
    populations: Sequence[Sequence[Participant]],
    rngs: Sequence[np.random.Generator],
    *,
    session_indices: Sequence[int],
    ga: GaConfig = GaConfig(),
) -> list[SessionResult]:
    """algorithmic_diverse sessions, one per (population, rng, session index),
    their GA searches stepped together in one ga_partition_many call.

    Each session draws its GA seed from its rng, so each gets the result
    run_session gives it alone. The populations must have one size.
    """
    configs = [dataclasses.replace(ga, rng_seed=int(rng.integers(2**63 - 1))) for rng in rngs]
    searches = ga_partition_many(populations, configs)
    return [
        session_result("algorithmic_diverse", population, partition, index)
        for population, (_, partition), index in zip(populations, searches, session_indices)
    ]


def session_result(
    condition: str,
    population: Sequence[Participant],
    partition: Partition,
    session_index: int,
    events: Sequence[Event] = (),
    moments: StandardizationMoments | None = None,
    exposures: Sequence[Exposure] = (),
) -> SessionResult:
    """The session's result: its partition validated against the population
    and each team's diversity profile."""
    lookup = population_lookup(population)
    partition.validate(lookup)
    profiles = [team_diversity_profile(team, lookup) for team in partition.teams]
    return SessionResult(
        condition=condition,
        session_index=session_index,
        population=list(population),
        partition=partition,
        profiles=profiles,
        events=list(events),
        moments=moments,
        exposures=list(exposures),
    )
