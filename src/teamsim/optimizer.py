"""Partition generators for the non-agency conditions.

random_partition draws uniform teams of four. ga_partition runs a
two-objective genetic search (surface-level and deep-level diversity,
both maximized) built on member-swap mutations, keeps a non-dominated
archive, and picks one front entry with the elbow rule.
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
    DEFAULT_SCHEMA,
    TEAM_SIZE,
    AttributeSchema,
    Participant,
    Partition,
    attribute_rows,
    population_lookup,
    surface_deep_rows,
    team_diversity_profile,
)


@dataclass(frozen=True)
class GaConfig:
    """Genetic search knobs.

    generations: improvement passes over the candidate set (default 20).
    population_size: candidate partitions kept per generation.
    swap_attempts: member-swap mutations tried per candidate per
        generation; None means one per participant.
    """

    generations: int = 20
    population_size: int = 50
    swap_attempts: int | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.generations < 1 or self.population_size < 1:
            raise ValueError("generations and population_size must be >= 1")
        if self.swap_attempts is not None and self.swap_attempts < 1:
            raise ValueError("swap_attempts must be >= 1")


@dataclass(frozen=True)
class ArchiveEntry:
    partition: Partition
    surface: float
    deep: float


def _dominates(a_surface: float, a_deep: float, b_surface: float, b_deep: float) -> bool:
    """True if objective pair A dominates B (>= on both, > on at least one)."""
    return (
        a_surface >= b_surface
        and a_deep >= b_deep
        and (a_surface > b_surface or a_deep > b_deep)
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


def random_partition(
    population: Sequence[Participant],
    team_size: int = TEAM_SIZE,
    *,
    rng: np.random.Generator,
) -> Partition:
    """Uniformly random teams of team_size; the remainder become solos."""
    if not population:
        raise ValueError("empty population")
    ids = [p.id for p in population]
    order = [ids[i] for i in rng.permutation(len(ids))]
    n_teams = len(order) // team_size
    teams = [order[i * team_size : (i + 1) * team_size] for i in range(n_teams)]
    solos = order[n_teams * team_size :]
    return Partition.build(teams, solos)


def objectives(
    partition: Partition,
    lookup: Mapping[str, Participant],
    schema: AttributeSchema = DEFAULT_SCHEMA,
) -> tuple[float, float]:
    """Mean (surface, deep) diversity over teams; solos are excluded."""
    if not partition.teams:
        raise ValueError("partition has no teams")
    profiles = [team_diversity_profile(team, lookup, schema) for team in partition.teams]
    return _mean_scores([(p.surface_score, p.deep_score) for p in profiles])


def _mean_scores(scores: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Mean (surface, deep) over per-team scores: a partition's objectives."""
    n = len(scores)
    return sum(s for s, _ in scores) / n, sum(d for _, d in scores) / n


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


class _Candidate:
    """One GA individual: teams as index tuples plus cached team scores."""

    __slots__ = ("teams", "solos", "scores", "surface", "deep")

    def __init__(
        self,
        teams: list[tuple[int, ...]],
        solos: tuple[int, ...],
        rows: list[tuple],
        schema: AttributeSchema,
    ):
        self.teams = teams
        self.solos = solos
        self.scores = [surface_deep_rows(rows, t, schema) for t in teams]
        self.surface, self.deep = _mean_scores(self.scores)


def _materialize(teams: Sequence[tuple[int, ...]], solos: Sequence[int], ids: list[str]) -> Partition:
    return Partition.build(
        ([ids[i] for i in team] for team in teams),
        [ids[i] for i in solos],
    )


def ga_partition(
    population: Sequence[Participant],
    config: GaConfig = GaConfig(),
    schema: AttributeSchema = DEFAULT_SCHEMA,
    team_size: int = TEAM_SIZE,
) -> tuple[ParetoArchive, Partition]:
    """Two-objective genetic partition search.

    Starts from random partitions, proposes swaps of two members between
    two teams, replaces a parent whenever the mutant is not dominated by
    it, and archives every accepted candidate. Returns the final archive
    and the elbow-selected partition. Deterministic per (population,
    config).
    """
    if len(population) < 2 * team_size:
        raise ValueError("need at least two teams")
    ids = [p.id for p in population]
    population_lookup(population)  # id uniqueness check
    rows = attribute_rows(population)
    n = len(ids)
    n_teams = n // team_size
    swap_attempts = config.swap_attempts if config.swap_attempts is not None else n

    archive = ParetoArchive()

    def offer(cand: _Candidate) -> None:
        # Partitions are built only for admitted points, a small share of offers.
        if archive.admits(cand.surface, cand.deep):
            partition = _materialize(cand.teams, cand.solos, ids)
            archive.insert(ArchiveEntry(partition, cand.surface, cand.deep))

    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed).spawn(1)[0])
    candidates: list[_Candidate] = []
    for _ in range(config.population_size):
        order = list(rng.permutation(n))
        teams = [tuple(order[i * team_size : (i + 1) * team_size]) for i in range(n_teams)]
        solos = tuple(order[n_teams * team_size :])
        cand = _Candidate(teams, solos, rows, schema)
        candidates.append(cand)
        offer(cand)

    for _ in range(config.generations):
        for cand in candidates:
            for _ in range(swap_attempts):
                ti, tj = rng.choice(n_teams, size=2, replace=False)
                mi = int(rng.integers(team_size))
                mj = int(rng.integers(team_size))
                team_i = list(cand.teams[ti])
                team_j = list(cand.teams[tj])
                team_i[mi], team_j[mj] = team_j[mj], team_i[mi]
                new_i = tuple(team_i)
                new_j = tuple(team_j)
                score_i = surface_deep_rows(rows, new_i, schema)
                score_j = surface_deep_rows(rows, new_j, schema)
                new_scores = list(cand.scores)
                new_scores[ti] = score_i
                new_scores[tj] = score_j
                new_surface, new_deep = _mean_scores(new_scores)
                if _dominates(cand.surface, cand.deep, new_surface, new_deep):
                    continue
                cand.teams[ti] = new_i
                cand.teams[tj] = new_j
                cand.scores[ti] = score_i
                cand.scores[tj] = score_j
                cand.surface = new_surface
                cand.deep = new_deep
                offer(cand)

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


def _team_splits(idxs: tuple[int, ...], team_size: int):
    """Yield every split of idxs into unordered teams of exactly team_size."""
    if not idxs:
        yield ()
        return
    head = idxs[0]
    rest = idxs[1:]
    for companions in itertools.combinations(rest, team_size - 1):
        team = (head,) + companions
        remaining = tuple(i for i in rest if i not in companions)
        for tail in _team_splits(remaining, team_size):
            yield (team,) + tail


def brute_force_partition(
    population: Sequence[Participant],
    team_size: int = TEAM_SIZE,
    schema: AttributeSchema = DEFAULT_SCHEMA,
    max_population: int = 12,
) -> BruteForceResult:
    """Exhaustive search over all partitions; argmax sets per objective.

    Guarded to small populations: 35 splits at n=8 and 5,775 at n=12
    teams-of-four; anything larger is refused.
    """
    n = len(population)
    if n < team_size:
        raise ValueError("population smaller than one team")
    if n > max_population:
        raise ValueError(f"population too large for exhaustive search (max {max_population})")
    ids = [p.id for p in population]
    rows = attribute_rows(population)
    remainder = n % team_size

    count = 0
    best: dict[str, tuple[float, list[tuple]]] = {
        "surface": (-math.inf, []),
        "deep": (-math.inf, []),
        "total": (-math.inf, []),
    }
    all_idx = tuple(range(n))
    for solo_combo in itertools.combinations(all_idx, remainder):
        team_pool = tuple(i for i in all_idx if i not in solo_combo)
        for split in _team_splits(team_pool, team_size):
            count += 1
            surface, deep = _mean_scores([surface_deep_rows(rows, t, schema) for t in split])
            for key, value in (("surface", surface), ("deep", deep), ("total", surface + deep)):
                cur, holders = best[key]
                if value > cur:
                    best[key] = (value, [(split, solo_combo)])
                elif value == cur:
                    holders.append((split, solo_combo))

    def _parts(key: str) -> tuple[Partition, ...]:
        return tuple(
            _materialize([tuple(t) for t in split], list(solos), ids)
            for split, solos in best[key][1]
        )

    return BruteForceResult(
        n_partitions=count,
        best_surface=best["surface"][0],
        best_surface_partitions=_parts("surface"),
        best_deep=best["deep"][0],
        best_deep_partitions=_parts("deep"),
        best_total=best["total"][0],
        best_total_partitions=_parts("total"),
    )
