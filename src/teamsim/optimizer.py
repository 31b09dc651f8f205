"""Partition generators for the non-agency conditions.

random_partition draws uniform teams of four. ga_partition runs a
two-objective genetic search (surface-level and deep-level diversity,
both maximized) built on member-swap mutations, keeps a non-dominated
archive, and picks one front entry with the elbow rule; its climbers step
together, each step scored in one batched score_teams call.
brute_force_partition enumerates every partition of a small population
and serves as the validation oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    TEAM_SIZE,
    Participant,
    Partition,
    _is_int,
    attribute_table,
    population_lookup,
    score_teams,
    team_diversity_profile,
)


@dataclass(frozen=True)
class GaConfig:
    """Genetic search knobs.

    generations: improvement passes over the candidate set (default 20).
    population_size: candidate partitions kept per generation.
    swap_attempts: member-swap mutations tried per candidate per
        generation; None means one per participant.
    rng_seed: non-negative integer seed of the search.
    """

    generations: int = 20
    population_size: int = 50
    swap_attempts: int | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        counts = {"generations": self.generations, "population_size": self.population_size}
        if self.swap_attempts is not None:
            counts["swap_attempts"] = self.swap_attempts
        for name, value in counts.items():
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not _is_int(self.rng_seed) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")


@dataclass(frozen=True)
class ArchiveEntry:
    partition: Partition
    surface: float
    deep: float


def _dominates(a_surface, a_deep, b_surface, b_deep):
    """True if objective pair A dominates B (>= on both, > on at least one).

    Works elementwise on arrays of pairs as well as on floats.
    """
    return (
        (a_surface >= b_surface)
        & (a_deep >= b_deep)
        & ((a_surface > b_surface) | (a_deep > b_deep))
    )


@dataclass
class ParetoArchive:
    """Non-dominated set of (partition, surface, deep) entries, one per point.

    The first partition seen at an objective point represents it, so flat
    fitness landscapes (for example clone populations, where every swap
    ties) cannot flood the front with equal-objective duplicates.
    """

    entries: list[ArchiveEntry] = field(default_factory=list)

    def admits(self, surface: float, deep: float) -> bool:
        """True unless an entry's point is >= on both objectives (it dominates
        the point or is the same point)."""
        for e in self.entries:
            if e.surface >= surface and e.deep >= deep:
                return False
        return True

    def insert(self, entry: ArchiveEntry) -> bool:
        """Insert if admitted; evicts entries the newcomer dominates."""
        surface, deep = entry.surface, entry.deep
        if not self.admits(surface, deep):
            return False
        self.entries = [e for e in self.entries if not (surface >= e.surface and deep >= e.deep)]
        self.entries.append(entry)
        return True

    def check_invariant(self) -> None:
        for i, e in enumerate(self.entries):
            others = ParetoArchive(self.entries[:i] + self.entries[i + 1 :])
            if not others.admits(e.surface, e.deep):
                raise AssertionError("archive contains a dominated or repeated point")

    def __len__(self) -> int:
        return len(self.entries)


def random_partition(population: Sequence[Participant], *, rng: np.random.Generator) -> Partition:
    """Uniformly random teams of TEAM_SIZE; the remainder become solos."""
    if not population:
        raise ValueError("empty population")
    population_lookup(population)  # id uniqueness check
    ids = [p.id for p in population]
    order = [ids[i] for i in rng.permutation(len(ids))]
    n_teams = len(order) // TEAM_SIZE
    teams = [order[i * TEAM_SIZE : (i + 1) * TEAM_SIZE] for i in range(n_teams)]
    solos = order[n_teams * TEAM_SIZE :]
    return Partition.build(teams, solos)


def objectives(partition: Partition, lookup: Mapping[str, Participant]) -> tuple[float, float]:
    """Mean (surface, deep) diversity over teams; solos are excluded."""
    if not partition.teams:
        raise ValueError("partition has no teams")
    profiles = [team_diversity_profile(team, lookup) for team in partition.teams]
    surface, deep = _mean_scores(np.array([(p.surface_score, p.deep_score) for p in profiles]))
    return float(surface), float(deep)


def _mean_scores(team_scores: np.ndarray) -> np.ndarray:
    """Partition objectives: scores[..., n_teams, 2] of (surface, deep) per team
    -> their means [..., 2].

    Adds team by team in order, so a batch of partitions gets bit for bit
    the means each partition gets on its own.
    """
    n = team_scores.shape[-2]
    total = team_scores[..., 0, :]
    for k in range(1, n):
        total = total + team_scores[..., k, :]
    return total / n


def elbow_select(archive: ParetoArchive) -> Partition:
    """Front entry farthest (perpendicular) from the chord between extremes.

    Fronts of size <= 2 or collinear fronts fall back to the max
    (surface + deep) entry; ties break by higher surface, then lowest
    partition content hash.
    """
    if not archive.entries:
        raise ValueError("empty archive")

    def _max_sum(entries: list[ArchiveEntry]) -> ArchiveEntry:
        return min(
            entries,
            key=lambda e: (-(e.surface + e.deep), -e.surface, e.partition.content_hash()),
        )

    entries = sorted(archive.entries, key=lambda e: (e.surface, e.deep))
    if len(entries) <= 2:
        return _max_sum(entries).partition
    x1, y1 = entries[0].surface, entries[0].deep
    x2, y2 = entries[-1].surface, entries[-1].deep
    chord_len = math.hypot(x2 - x1, y2 - y1)
    if chord_len == 0.0:
        return _max_sum(entries).partition
    best = None
    best_key = None
    for e in entries:
        dist = abs((y2 - y1) * e.surface - (x2 - x1) * e.deep + x2 * y1 - y2 * x1) / chord_len
        key = (-dist, -e.surface, e.partition.content_hash())
        if best_key is None or key < best_key:
            best, best_key = e, key
    if best_key[0] == 0.0:
        return _max_sum(entries).partition
    return best.partition


def _materialize(teams: Sequence[Sequence[int]], solos: Sequence[int], ids: list[str]) -> Partition:
    return Partition.build(
        ([ids[i] for i in team] for team in teams),
        [ids[i] for i in solos],
    )


def _draw_proposals(rng: np.random.Generator, steps: int, climbers: int, n_teams: int) -> np.ndarray:
    """int[steps, climbers, 4] member-swap proposals (ti, tj, mi, mj).

    (ti, tj) is uniform over ordered pairs of distinct teams, and mi, mj are
    uniform members of team ti and team tj.
    """
    draws = rng.integers(0, (n_teams, n_teams - 1, TEAM_SIZE, TEAM_SIZE), size=(steps, climbers, 4))
    draws[..., 1] = (draws[..., 0] + 1 + draws[..., 1]) % n_teams
    return draws


def ga_partition(
    population: Sequence[Participant],
    config: GaConfig = GaConfig(),
) -> tuple[ParetoArchive, Partition]:
    """Two-objective genetic partition search.

    Starts population_size climbers from random partitions. At each step
    every climber proposes a swap of two members between two teams and
    replaces its partition whenever the mutant is not dominated by it; the
    steps of all climbers are scored in one score_teams call. Every
    accepted candidate is offered to the archive, climber by climber in
    step order. Returns the final archive and the elbow-selected
    partition. Deterministic per (population, config).
    """
    if len(population) < 2 * TEAM_SIZE:
        raise ValueError("need at least two teams")
    ids = [p.id for p in population]
    population_lookup(population)  # id uniqueness check
    table = attribute_table(population)
    n = len(ids)
    n_teams = n // TEAM_SIZE
    n_climbers = config.population_size
    swap_attempts = config.swap_attempts if config.swap_attempts is not None else n

    archive = ParetoArchive()

    def offer(teams: np.ndarray, solos: np.ndarray, surface: float, deep: float) -> None:
        # Partitions are built only for admitted points, a small share of offers.
        if archive.admits(surface, deep):
            partition = _materialize(teams.tolist(), solos.tolist(), ids)
            archive.insert(ArchiveEntry(partition, surface, deep))

    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed).spawn(1)[0])
    orders = np.array([rng.permutation(n) for _ in range(n_climbers)])
    teams = orders[:, : n_teams * TEAM_SIZE].reshape(n_climbers, n_teams, TEAM_SIZE)
    solos = orders[:, n_teams * TEAM_SIZE :]
    team_scores = np.stack(score_teams(table, teams.reshape(-1, TEAM_SIZE)), axis=-1)
    team_scores = team_scores.reshape(n_climbers, n_teams, 2)
    scores = _mean_scores(team_scores)
    for c in range(n_climbers):
        offer(teams[c], solos[c], *scores[c].tolist())

    climbers = np.arange(n_climbers)
    for _ in range(config.generations):
        proposals = _draw_proposals(rng, swap_attempts, n_climbers, n_teams)
        # The archive only grows its dominated region, so a point it does not
        # admit now is refused at replay too; only the rest are kept.
        front = np.array([(e.surface, e.deep) for e in archive.entries])
        kept: list[tuple[int, int, np.ndarray, float, float]] = []
        for step, (ti, tj, mi, mj) in enumerate(proposals.transpose(0, 2, 1)):
            new_i = teams[climbers, ti]
            new_j = teams[climbers, tj]
            moved_i = new_i[climbers, mi]
            new_i[climbers, mi] = new_j[climbers, mj]
            new_j[climbers, mj] = moved_i
            scored = np.stack(score_teams(table, np.concatenate([new_i, new_j])), axis=-1)
            trial_team_scores = team_scores.copy()
            trial_team_scores[climbers, ti] = scored[:n_climbers]
            trial_team_scores[climbers, tj] = scored[n_climbers:]
            trial = _mean_scores(trial_team_scores)
            accepted = ~_dominates(scores[:, 0], scores[:, 1], trial[:, 0], trial[:, 1])
            moving = climbers[accepted]
            teams[moving, ti[accepted]] = new_i[accepted]
            teams[moving, tj[accepted]] = new_j[accepted]
            team_scores[accepted] = trial_team_scores[accepted]
            scores[accepted] = trial[accepted]
            covered = (front[None, :, :] >= trial[:, None, :]).all(axis=2).any(axis=1)
            for c in np.flatnonzero(accepted & ~covered):
                kept.append((c, step, teams[c].copy(), *scores[c].tolist()))
        kept.sort(key=lambda k: k[:2])
        for c, _, kept_teams, kept_surface, kept_deep in kept:
            offer(kept_teams, solos[c], kept_surface, kept_deep)

    archive.entries.sort(key=lambda e: (e.surface, e.deep))
    selected = elbow_select(archive)
    return archive, selected


@dataclass(frozen=True)
class BruteForceResult:
    n_partitions: int
    best_surface: float
    best_surface_partitions: tuple[Partition, ...]
    best_deep: float
    best_deep_partitions: tuple[Partition, ...]
    best_total: float
    best_total_partitions: tuple[Partition, ...]


def _team_splits(idxs: tuple[int, ...]):
    """Yield every split of idxs into unordered teams of exactly TEAM_SIZE."""
    if not idxs:
        yield ()
        return
    head = idxs[0]
    rest = idxs[1:]
    for companions in itertools.combinations(rest, TEAM_SIZE - 1):
        team = (head,) + companions
        remaining = tuple(i for i in rest if i not in companions)
        for tail in _team_splits(remaining):
            yield (team,) + tail


BRUTE_FORCE_MAX_POPULATION = 12


def brute_force_partition(population: Sequence[Participant]) -> BruteForceResult:
    """Exhaustive search over all partitions; argmax sets per objective.

    Guarded to small populations: 35 splits at n=8 and 5,775 at n=12
    teams-of-four; anything above BRUTE_FORCE_MAX_POPULATION is refused.
    """
    n = len(population)
    if n < TEAM_SIZE:
        raise ValueError("population smaller than one team")
    if n > BRUTE_FORCE_MAX_POPULATION:
        raise ValueError(f"population too large for exhaustive search (max {BRUTE_FORCE_MAX_POPULATION})")
    population_lookup(population)  # id uniqueness check
    ids = [p.id for p in population]
    # Every split draws its teams from the same C(n, TEAM_SIZE) member sets,
    # each listed in ascending order as _team_splits yields them: score
    # those once and look the scores up per split.
    teams = list(itertools.combinations(range(n), TEAM_SIZE))
    team_index = {team: i for i, team in enumerate(teams)}
    team_scores = np.stack(score_teams(attribute_table(population), np.array(teams)), axis=-1)

    splits = []
    for solos in itertools.combinations(range(n), n % TEAM_SIZE):
        team_pool = tuple(i for i in range(n) if i not in solos)
        splits.extend((split, solos) for split in _team_splits(team_pool))
    split_teams = np.array([[team_index[team] for team in split] for split, _ in splits])
    surface, deep = _mean_scores(team_scores[split_teams]).T

    def _best(values: np.ndarray) -> tuple[float, tuple[Partition, ...]]:
        best = values.max()
        return float(best), tuple(
            _materialize(*splits[i], ids) for i in np.flatnonzero(values == best)
        )

    best_surface, best_surface_partitions = _best(surface)
    best_deep, best_deep_partitions = _best(deep)
    best_total, best_total_partitions = _best(surface + deep)
    return BruteForceResult(
        n_partitions=len(splits),
        best_surface=best_surface,
        best_surface_partitions=best_surface_partitions,
        best_deep=best_deep,
        best_deep_partitions=best_deep_partitions,
        best_total=best_total,
        best_total_partitions=best_total_partitions,
    )
