"""Partition generators for the non-agency conditions.

random_partition draws uniform teams of four. ga_partition runs a
two-objective genetic search (surface-level and deep-level diversity,
both maximized) built on member-swap mutations, keeps a non-dominated
archive, and picks one front entry with the elbow rule. ga_partition_many
runs several such searches with the climbers of all of them stepping
together, each step scoring only the two teams a swap changes, from exact
integer team sums. brute_force_partition enumerates every partition of a small population
and serves as the validation oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    GENDERS,
    RACES,
    TEAM_SIZE,
    Participant,
    Partition,
    _is_int,
    _score_from_stats,
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

    Only the entries' surface and deep are read, so a search may hold
    lighter entries while it runs and build ArchiveEntry values at the end.

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
    """Partition objectives: team_scores[n_teams, ...] of (surface, deep) per
    team -> their means over the teams.

    One reduction over the outer team axis, which numpy adds team by team in
    order, so a batch of partitions gets bit for bit the means each
    partition gets on its own.
    """
    return team_scores.sum(axis=0) / team_scores.shape[0]


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
    replaces its partition whenever the mutant is not dominated by it.
    Every accepted candidate is offered to the archive, climber by climber
    in step order. Returns the final archive and the elbow-selected
    partition. Deterministic per (population, config); the one-session
    case of ga_partition_many.
    """
    return ga_partition_many([population], [config])[0]


def ga_partition_many(
    populations: Sequence[Sequence[Participant]],
    configs: Sequence[GaConfig],
) -> list[tuple[ParetoArchive, Partition]]:
    """ga_partition of each (population, config) pair, the climbers of every
    session stepped together in one array.

    Each session keeps its own generator, archive and offer order, so its
    result is the one ga_partition gives it alone. The populations must
    have one size and the configs may differ only in rng_seed.

    Each team keeps exact int64 statistics: the sums S of age and the six
    skills, the sums Q of their squares, and its category counts. A swap
    moves them by the rows of the two members it exchanges, and only the
    two changed teams are scored, from their equal-code pairs, S and
    Q - S * (S / 4). With TEAM_SIZE 4 and integer attributes up to AGE_MAX
    every intermediate of the scalar definition is exact, so these scores
    equal score_teams' bit for bit.
    """
    if len(populations) != len(configs) or not populations:
        raise ValueError("need one config per population, and at least one population")
    sizes = {len(population) for population in populations}
    if len(sizes) != 1:
        raise ValueError(f"populations must have one size, got sizes {sorted(sizes)}")
    if len({dataclasses.replace(config, rng_seed=0) for config in configs}) != 1:
        raise ValueError("configs may differ only in rng_seed")
    (n,) = sizes
    if n < 2 * TEAM_SIZE:
        raise ValueError("need at least two teams")
    config = configs[0]
    n_teams = n // TEAM_SIZE
    per_session = config.population_size
    n_climbers = len(populations) * per_session
    swap_attempts = config.swap_attempts if config.swap_attempts is not None else n
    ids = []
    for population in populations:
        population_lookup(population)  # id uniqueness check
        ids.append([p.id for p in population])

    # The rows of all populations in one table; members hold rows of it.
    moments = _team_moments(np.concatenate([attribute_table(p) for p in populations]))
    session_of = np.repeat(np.arange(len(populations)), per_session)
    climbers = np.arange(n_climbers)

    rngs = [np.random.default_rng(np.random.SeedSequence(c.rng_seed).spawn(1)[0]) for c in configs]
    orders = np.array([rng.permutation(n) for rng in rngs for _ in range(per_session)])
    solos = orders[:, n_teams * TEAM_SIZE :]
    # members[team, position, climber], the team statistics
    # stats[team * climbers + climber] and team_scores[team, objective, climber].
    teamed = orders[:, : n_teams * TEAM_SIZE] + n * session_of[:, None]
    members = np.ascontiguousarray(teamed.T.reshape(n_teams, TEAM_SIZE, n_climbers))
    stats = moments[members].sum(axis=1).reshape(n_teams * n_climbers, -1)
    team_scores = np.reshape(_score_moments(stats), (2, n_teams, n_climbers)).transpose(1, 0, 2).copy()
    scores = _mean_scores(team_scores)

    archives = [ParetoArchive() for _ in populations]

    def offer(c: int, teams: np.ndarray, surface: float, deep: float) -> None:
        # The archives hold _Climb entries while the search runs; only the
        # survivors become Partitions, at the end.
        session = session_of[c]
        archives[session].insert(_Climb(surface, deep, teams - n * session, solos[c]))

    for c in range(n_climbers):
        offer(c, members[:, :, c], *scores[:, c].tolist())

    member_flat = members.reshape(-1)
    for _ in range(config.generations):
        proposals = np.concatenate(
            [_draw_proposals(rng, swap_attempts, per_session, n_teams) for rng in rngs], axis=1
        )
        ti, tj, mi, mj = proposals.transpose(2, 0, 1)  # each [steps, climbers]
        # Positions, in member_flat, of the two members a swap exchanges; of
        # the two teams, in stats; and of their surface and deep scores, in
        # team_scores.
        slot_i = (ti * TEAM_SIZE + mi) * n_climbers + climbers
        slot_j = (tj * TEAM_SIZE + mj) * n_climbers + climbers
        changed = np.concatenate([ti, tj], axis=1)
        team_rows = changed * n_climbers + np.tile(climbers, 2)
        surface_slots = changed * 2 * n_climbers + np.tile(climbers, 2)
        score_slots = np.concatenate([surface_slots, surface_slots + n_climbers], axis=1)
        # The archive only grows its dominated region, so a point it does not
        # admit now is refused at replay too; only the rest are kept.
        fronts = _Fronts(archives)
        kept: list[tuple[int, int, np.ndarray, float, float]] = []
        for step in range(len(proposals)):
            a = member_flat[slot_i[step]]
            b = member_flat[slot_j[step]]
            delta = moments.take(b, axis=0) - moments.take(a, axis=0)
            trial_stats = stats.take(team_rows[step], axis=0)
            trial_stats[:n_climbers] += delta
            trial_stats[n_climbers:] -= delta
            trial_team_scores = team_scores.copy()
            np.put(trial_team_scores, score_slots[step], np.concatenate(_score_moments(trial_stats)))
            trial = _mean_scores(trial_team_scores)
            accepted = ~_dominates(scores[0], scores[1], trial[0], trial[1])
            moving = climbers[accepted]
            if not moving.size:
                continue
            member_flat[slot_i[step]] = np.where(accepted, b, a)
            member_flat[slot_j[step]] = np.where(accepted, a, b)
            both_moving = np.concatenate([moving, moving + n_climbers])
            stats[team_rows[step, both_moving]] = trial_stats.take(both_moving, axis=0)
            team_scores = np.where(accepted, trial_team_scores, team_scores)
            scores = np.where(accepted, trial, scores)
            offered = moving[~fronts.cover(session_of[moving], *trial[:, moving])]
            for c in offered.tolist():
                kept.append((c, step, members[:, :, c].copy(), *trial[:, c].tolist()))
        kept.sort(key=lambda k: k[:2])
        for c, _, kept_teams, kept_surface, kept_deep in kept:
            offer(c, kept_teams, kept_surface, kept_deep)

    results = []
    for archive, session_ids in zip(archives, ids):
        archive.entries = [
            ArchiveEntry(_materialize(e.teams.tolist(), e.solos.tolist(), session_ids), e.surface, e.deep)
            for e in sorted(archive.entries, key=lambda e: (e.surface, e.deep))
        ]
        results.append((archive, elbow_select(archive)))
    return results


@dataclass(frozen=True)
class _Climb:
    """An archive entry during ga_partition_many: a climber's partition as
    team rows teams[team, position] and solos, of its session's population."""

    surface: float
    deep: float
    teams: np.ndarray
    solos: np.ndarray


# Each categorical column of an attribute row, by its category count k,
# adds one row to _team_moments: a member of category c adds _COUNT_BASE**c,
# so a team's sum holds its category counts as base-_COUNT_BASE digits.
_CATEGORIES = (len(GENDERS), len(RACES), 2, 2)
_COUNT_BASE = TEAM_SIZE + 1


def _squared_digit_sums(digits: int) -> np.ndarray:
    """int64[_COUNT_BASE**digits]: the sum of the squared base-_COUNT_BASE
    digits of each index."""
    sums = np.zeros(1, dtype=np.int64)
    for _ in range(digits):
        sums = (sums + np.arange(_COUNT_BASE)[:, None] ** 2).ravel()
    return sums


# _SQUARED_COUNTS[_COUNT_OFFSETS[col] + counts] is column col's sum of
# squared category counts: the ordered equal-code member pairs (self-pairs
# included) that score_teams counts.
_COUNT_OFFSETS = np.cumsum((0,) + tuple(_COUNT_BASE**k for k in _CATEGORIES[:-1]))[:, None]
_SQUARED_COUNTS = np.concatenate([_squared_digit_sums(k) for k in _CATEGORIES])


def _team_moments(table: np.ndarray) -> np.ndarray:
    """int64[rows, 18] of attribute_table rows whose sum over a team's
    members holds the team's statistics: the age and skill sums S, the sums
    Q of their squares, and the category counts of each categorical column."""
    values = table[:, 4:]
    return np.concatenate([values, values * values, _COUNT_BASE ** table[:, :4]], axis=1)


def _score_moments(stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(surface[m], deep[m]) of m teams of TEAM_SIZE from their summed
    _team_moments rows stats[m, 18]."""
    equal_pairs = _SQUARED_COUNTS[stats[:, 14:].T + _COUNT_OFFSETS]
    values = stats[:, :14].T.astype(np.float64, order="C")
    sums, squares = values[:7], values[7:]
    mean = sums / TEAM_SIZE
    return _score_from_stats(equal_pairs, mean, squares - sums * mean, TEAM_SIZE)


class _Fronts:
    """The archives' points at one moment, to test many points against at once.

    deeps[k, r] is the highest deep score among archive k's points whose
    surface is at least the r-th smallest surface of all archives' points
    (-inf if none), so archive k covers a point (some entry is >= on both)
    exactly when deeps[k, r] >= its deep, r being the count of those
    surfaces below its surface.
    """

    def __init__(self, archives: Sequence[ParetoArchive]):
        points = [(k, e.surface, e.deep) for k, archive in enumerate(archives) for e in archive.entries]
        archive_of, surfaces, deeps = np.array(points).T
        self.surfaces = np.unique(surfaces)
        self.deeps = np.full((len(archives), len(self.surfaces) + 1), -np.inf)
        self.deeps[archive_of.astype(np.intp), np.searchsorted(self.surfaces, surfaces)] = deeps
        self.deeps = np.maximum.accumulate(self.deeps[:, ::-1], axis=1)[:, ::-1].ravel()

    def cover(self, archive: np.ndarray, surface: np.ndarray, deep: np.ndarray) -> np.ndarray:
        """bool[m]: whether archive[m]'s points cover the points (surface[m], deep[m])."""
        ranks = np.searchsorted(self.surfaces, surface)
        return self.deeps.take(archive * (len(self.surfaces) + 1) + ranks) >= deep


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
    surface, deep = _mean_scores(team_scores[split_teams.T]).T

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
