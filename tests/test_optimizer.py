from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.stats import chisquare

from teamsim.core import (
    AGE_MAX,
    AGE_MIN,
    GENDERS,
    NUM_SKILLS,
    RACES,
    TEAM_SIZE,
    Participant,
    Partition,
    attribute_table,
    population_lookup,
    score_teams,
    surface_deep_rows,
)
from teamsim.optimizer import (
    ArchiveEntry,
    BruteForceResult,
    GaConfig,
    ParetoArchive,
    _draw_proposals,
    _mean_scores,
    _score_moments,
    _team_moments,
    _team_splits,
    brute_force_partition,
    elbow_select,
    ga_partition,
    ga_partition_many,
    objectives,
    random_partition,
)
from teamsim.population import synth_population

from conftest import clone_population, make_participant


def _left_to_right_mean(values) -> float:
    """The mean of values added in order, as _mean_scores adds team scores."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _entry(surface: float, deep: float, tag: str) -> ArchiveEntry:
    return ArchiveEntry(Partition.build([[f"{tag}1", f"{tag}2"]]), surface, deep)


class TestRandomPartition:
    def test_exact_division(self, small_population):
        part = random_partition(small_population, rng=np.random.default_rng(1))
        assert len(part.teams) == 2
        assert part.solos == ()
        part.validate([p.id for p in small_population])

    def test_remainder_becomes_solos(self):
        pop = synth_population(10, rng=np.random.default_rng(2))
        part = random_partition(pop, rng=np.random.default_rng(3))
        assert len(part.teams) == 2
        assert len(part.solos) == 2
        part.validate([p.id for p in pop])

    def test_deterministic_per_seed(self, mixed_population):
        a = random_partition(mixed_population, rng=np.random.default_rng(9))
        b = random_partition(mixed_population, rng=np.random.default_rng(9))
        assert a == b

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            random_partition([], rng=np.random.default_rng(0))


class TestObjectives:
    def test_single_team_equals_profile(self, small_population):
        from teamsim.core import profile_for_members

        team = small_population[:4]
        part = Partition.build([[p.id for p in team]], [p.id for p in small_population[4:]])
        lookup = population_lookup(small_population)
        surface, deep = objectives(part, lookup)
        profile = profile_for_members(sorted(team, key=lambda p: p.id))
        assert surface == pytest.approx(profile.surface_score, abs=1e-12)
        assert deep == pytest.approx(profile.deep_score, abs=1e-12)

    def test_homogeneous_teams_are_zero(self, clones):
        pop = clones(8)
        part = random_partition(pop, rng=np.random.default_rng(4))
        assert objectives(part, population_lookup(pop)) == (0.0, 0.0)

    def test_no_teams_rejected(self, clones):
        pop = clones(3)
        part = Partition.build([], [p.id for p in pop])
        with pytest.raises(ValueError, match="no teams"):
            objectives(part, population_lookup(pop))

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            pop = synth_population(12, rng=rng)
            part = random_partition(pop, rng=np.random.default_rng(seed))
            surface, deep = objectives(part, population_lookup(pop))
            assert 0.0 <= surface <= 5.0
            assert 0.0 <= deep < 1.0


class TestParetoArchive:
    def test_dominated_insert_refused(self):
        archive = ParetoArchive()
        assert archive.insert(_entry(1.0, 1.0, "a"))
        assert not archive.insert(_entry(0.5, 0.5, "b"))
        assert len(archive) == 1

    def test_dominating_insert_evicts(self):
        archive = ParetoArchive()
        archive.insert(_entry(0.5, 0.5, "a"))
        archive.insert(_entry(1.0, 1.0, "b"))
        assert len(archive) == 1
        assert archive.entries[0].surface == 1.0

    def test_incomparable_entries_coexist(self):
        archive = ParetoArchive()
        archive.insert(_entry(1.0, 0.0, "a"))
        archive.insert(_entry(0.0, 1.0, "b"))
        assert len(archive) == 2
        archive.check_invariant()

    def test_random_inserts_never_leave_dominated_entry(self):
        rng = np.random.default_rng(6)
        archive = ParetoArchive()
        for i in range(200):
            archive.insert(_entry(float(rng.random()), float(rng.random()), f"t{i}"))
        archive.check_invariant()


# Few distinct values, so that repeated and tied points are common.
_objective = st.integers(0, 5).map(lambda i: i / 5)


class TestParetoArchiveProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_objective, _objective), max_size=40))
    def test_any_insert_sequence_keeps_one_entry_per_front_point(self, points):
        archive = ParetoArchive()
        first_tag: dict[tuple[float, float], str] = {}
        for i, point in enumerate(points):
            before = [(e.surface, e.deep) for e in archive.entries]
            admitted = archive.insert(_entry(*point, f"t{i}"))
            # refused exactly when an entry dominates the point or sits on it
            assert admitted != any(s >= point[0] and d >= point[1] for s, d in before)
            first_tag.setdefault(point, f"t{i}")
        archive.check_invariant()
        front = [(e.surface, e.deep) for e in archive.entries]
        dominated = lambda p: any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in points)  # noqa: E731
        assert set(front) == {p for p in points if not dominated(p)}
        for e in archive.entries:
            assert e.partition == _entry(0.0, 0.0, first_tag[e.surface, e.deep]).partition


class TestElbowSelect:
    def test_single_entry(self):
        archive = ParetoArchive([_entry(0.3, 0.4, "a")])
        assert elbow_select(archive) == archive.entries[0].partition

    def test_knee_of_three_point_front(self):
        entries = [_entry(0.0, 1.0, "a"), _entry(0.6, 0.9, "b"), _entry(1.0, 0.0, "c")]
        archive = ParetoArchive(list(entries))
        assert elbow_select(archive) == entries[1].partition

    def test_collinear_front_falls_back_to_max_sum(self):
        entries = [_entry(0.0, 1.0, "a"), _entry(0.5, 0.5, "b"), _entry(1.0, 0.0, "c")]
        archive = ParetoArchive(list(entries))
        # all sums equal: falls to higher surface
        assert elbow_select(archive) == entries[2].partition

    def test_two_entries_max_sum(self):
        entries = [_entry(1.0, 0.2, "a"), _entry(0.4, 0.9, "b")]
        archive = ParetoArchive(list(entries))
        assert elbow_select(archive) == entries[1].partition

    def test_empty_archive_rejected(self):
        with pytest.raises(ValueError, match="empty archive"):
            elbow_select(ParetoArchive())


class TestGaConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("generations", 2.5),
            ("generations", True),
            ("generations", 0),
            ("population_size", "3"),
            ("population_size", False),
            ("swap_attempts", 1.0),
            ("swap_attempts", True),
            ("rng_seed", -1),
            ("rng_seed", 1.5),
            ("rng_seed", True),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GaConfig(**{field: value})

    def test_integer_types_accepted(self):
        config = GaConfig(generations=np.int64(2), swap_attempts=None, rng_seed=2**63)
        assert config.generations == 2


@pytest.mark.parametrize("seed", range(2, 8))
def test_duplicate_ids_rejected(seed):
    population = synth_population(8, rng=np.random.default_rng(seed))
    population[1] = dataclasses.replace(population[1], id=population[0].id)
    with pytest.raises(ValueError, match="duplicate participant id"):
        random_partition(population, rng=np.random.default_rng(seed))
    with pytest.raises(ValueError, match="duplicate participant id"):
        ga_partition(population, GaConfig(generations=1, population_size=2, rng_seed=seed))
    with pytest.raises(ValueError, match="duplicate participant id"):
        brute_force_partition(population)


def _reference_ga(population, config: GaConfig):
    """The scalar climber loop: each climber's swaps one at a time, scored by
    surface_deep_rows, on the same initial partitions and proposals as ga_partition."""
    ids = [p.id for p in population]
    rows = [p._row for p in population]
    n = len(ids)
    n_teams = n // TEAM_SIZE
    swap_attempts = config.swap_attempts if config.swap_attempts is not None else n
    archive = ParetoArchive()

    def mean(scores):
        return _left_to_right_mean([s for s, _ in scores]), _left_to_right_mean([d for _, d in scores])

    def offer(cand):
        if archive.admits(cand["surface"], cand["deep"]):
            teams = ([ids[i] for i in team] for team in cand["teams"])
            partition = Partition.build(teams, [ids[i] for i in cand["solos"]])
            archive.insert(ArchiveEntry(partition, cand["surface"], cand["deep"]))

    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed).spawn(1)[0])
    candidates = []
    for _ in range(config.population_size):
        order = rng.permutation(n).tolist()
        teams = [tuple(order[i * TEAM_SIZE : (i + 1) * TEAM_SIZE]) for i in range(n_teams)]
        scores = [surface_deep_rows(rows, team) for team in teams]
        cand = {"teams": teams, "solos": order[n_teams * TEAM_SIZE :], "scores": scores}
        cand["surface"], cand["deep"] = mean(scores)
        candidates.append(cand)
        offer(cand)
    for _ in range(config.generations):
        proposals = _draw_proposals(rng, swap_attempts, config.population_size, n_teams)
        for c, cand in enumerate(candidates):
            for ti, tj, mi, mj in proposals[:, c].tolist():
                team_i, team_j = list(cand["teams"][ti]), list(cand["teams"][tj])
                team_i[mi], team_j[mj] = team_j[mj], team_i[mi]
                scores = list(cand["scores"])
                scores[ti] = surface_deep_rows(rows, team_i)
                scores[tj] = surface_deep_rows(rows, team_j)
                surface, deep = mean(scores)
                old_surface, old_deep = cand["surface"], cand["deep"]
                if old_surface >= surface and old_deep >= deep and (old_surface > surface or old_deep > deep):
                    continue
                cand["teams"][ti], cand["teams"][tj] = tuple(team_i), tuple(team_j)
                cand.update(scores=scores, surface=surface, deep=deep)
                offer(cand)
    archive.entries.sort(key=lambda e: (e.surface, e.deep))
    return archive, elbow_select(archive)


def _front(archive: ParetoArchive) -> list:
    return [(e.surface, e.deep, e.partition) for e in archive.entries]


_GA_CASES = [
    (8, "synth"),
    (12, "synth"),
    (33, "synth"),
    (12, "clones"),
    (33, "clones"),
    (12, "two kinds"),
    (16, "two kinds"),
]


class TestGaMatchesScalarClimbers:
    @pytest.mark.parametrize("n, kind", _GA_CASES, ids=[f"{n}-{TEAM_SIZE}-{kind}" for n, kind in _GA_CASES])
    def test_identical_archive_and_selection(self, n, kind):
        if kind == "clones":
            population = clone_population(n)
        elif kind == "two kinds":
            # Many partitions share each objective point, so which one the
            # archive keeps depends on the order of the offers.
            population = [
                make_participant(pid=f"k{i:02d}", gender=("Female", "Male")[i % 2], age=20 + 10 * (i % 2))
                for i in range(n)
            ]
        else:
            population = synth_population(n, rng=np.random.default_rng(100 * n + TEAM_SIZE))
        config = GaConfig(generations=3, population_size=6, rng_seed=n + TEAM_SIZE)
        archive, selected = ga_partition(population, config)
        ref_archive, ref_selected = _reference_ga(population, config)
        assert _front(archive) == _front(ref_archive)
        assert selected == ref_selected

    def test_identical_at_default_config(self, mixed_population):
        archive, selected = ga_partition(mixed_population, GaConfig(rng_seed=3))
        ref_archive, ref_selected = _reference_ga(mixed_population, GaConfig(rng_seed=3))
        assert _front(archive) == _front(ref_archive)
        assert selected == ref_selected


def test_proposals_uniform_over_team_pairs_and_members():
    n_teams = 5
    draws = _draw_proposals(np.random.default_rng(2024), 400, 50, n_teams)
    ti, tj, mi, mj = draws.reshape(-1, 4).T
    assert draws.shape == (400, 50, 4)
    assert np.all(ti != tj)
    pair_counts = np.bincount(ti * n_teams + tj, minlength=n_teams * n_teams)
    off_diagonal = pair_counts[~np.eye(n_teams, dtype=bool).ravel()]
    assert chisquare(off_diagonal).pvalue > 1e-3
    for members in (mi, mj):
        assert chisquare(np.bincount(members, minlength=TEAM_SIZE)).pvalue > 1e-3


class TestGaPartition:
    def test_too_small_population_rejected(self, clones):
        with pytest.raises(ValueError, match="two teams"):
            ga_partition(clones(7), GaConfig(rng_seed=0))

    def test_deterministic(self, small_population):
        config = GaConfig(generations=5, population_size=10, rng_seed=42)
        archive_a, selected_a = ga_partition(small_population, config)
        archive_b, selected_b = ga_partition(small_population, config)
        assert selected_a == selected_b
        assert [(e.surface, e.deep) for e in archive_a.entries] == [
            (e.surface, e.deep) for e in archive_b.entries
        ]

    def test_selected_weakly_dominates_random_baseline(self, small_population):
        lookup = population_lookup(small_population)
        _, selected = ga_partition(small_population, GaConfig(rng_seed=1))
        base = random_partition(small_population, rng=np.random.default_rng(1))
        gs, gd = objectives(selected, lookup)
        bs, bd = objectives(base, lookup)
        assert gs >= bs and gd >= bd

    def test_clone_population_trivial_landscape(self, clones):
        pop = clones(8)
        archive, selected = ga_partition(
            pop, GaConfig(generations=2, population_size=5, rng_seed=0)
        )
        selected.validate([p.id for p in pop])
        assert all(e.surface == 0.0 and e.deep == 0.0 for e in archive.entries)

    def test_emitted_partitions_valid_and_front_clean(self, mixed_population):
        archive, selected = ga_partition(
            mixed_population, GaConfig(generations=3, population_size=8, rng_seed=5)
        )
        ids = [p.id for p in mixed_population]
        selected.validate(ids)
        for entry in archive.entries:
            entry.partition.validate(ids)
        archive.check_invariant()

    def test_archive_objectives_match_recomputation(self, small_population):
        lookup = population_lookup(small_population)
        archive, _ = ga_partition(small_population, GaConfig(generations=3, rng_seed=11))
        for entry in archive.entries:
            surface, deep = objectives(entry.partition, lookup)
            assert surface == pytest.approx(entry.surface, abs=1e-9)
            assert deep == pytest.approx(entry.deep, abs=1e-9)

    def test_solo_remainder_preserved(self):
        pop = synth_population(10, rng=np.random.default_rng(13))
        _, selected = ga_partition(pop, GaConfig(generations=2, population_size=5, rng_seed=2))
        assert len(selected.teams) == 2
        assert len(selected.solos) == 2
        selected.validate([p.id for p in pop])

    def test_near_oracle_on_ten_seeds(self, small_population):
        bf = brute_force_partition(small_population)
        lookup = population_lookup(small_population)
        hits = 0
        for seed in range(10):
            _, selected = ga_partition(small_population, GaConfig(rng_seed=seed))
            surface, deep = objectives(selected, lookup)
            if surface + deep >= 0.95 * bf.best_total:
                hits += 1
        assert hits >= 9


class TestBruteForce:
    def test_partition_count_n8(self, small_population):
        assert brute_force_partition(small_population).n_partitions == 35

    def test_partition_count_n12(self):
        pop = synth_population(12, rng=np.random.default_rng(21))
        assert brute_force_partition(pop).n_partitions == 5775

    def test_clones_tie_at_zero(self, clones):
        result = brute_force_partition(clones(8))
        assert result.best_total == 0.0
        assert len(result.best_total_partitions) == 35

    def test_guard_against_blowup(self):
        pop = synth_population(13, rng=np.random.default_rng(22))
        with pytest.raises(ValueError, match="too large"):
            brute_force_partition(pop)

    def test_optimum_bounds_any_ga_result(self, small_population):
        bf = brute_force_partition(small_population)
        lookup = population_lookup(small_population)
        for seed in (0, 5, 9):
            _, selected = ga_partition(small_population, GaConfig(rng_seed=seed))
            surface, deep = objectives(selected, lookup)
            assert surface <= bf.best_surface + 1e-12
            assert deep <= bf.best_deep + 1e-12
            assert surface + deep <= bf.best_total + 1e-12

    @pytest.mark.parametrize(
        "population",
        [
            synth_population(8, rng=np.random.default_rng(31)),
            synth_population(9, rng=np.random.default_rng(33)),
            synth_population(12, rng=np.random.default_rng(35)),
            clone_population(8),
        ],
        ids=["population0-4", "population2-4", "population4-4", "population5-4"],
    )
    def test_matches_scalar_enumeration(self, population):
        """Same count and argmax sets (ties included, in enumeration order) as
        scoring every split team by team with surface_deep_rows."""
        ids = [p.id for p in population]
        rows = [p._row for p in population]
        n = len(population)
        splits = []
        for solos in itertools.combinations(range(n), n % TEAM_SIZE):
            pool = tuple(i for i in range(n) if i not in solos)
            for split in _team_splits(pool):
                scores = [surface_deep_rows(rows, team) for team in split]
                surface = _left_to_right_mean([s for s, _ in scores])
                deep = _left_to_right_mean([d for _, d in scores])
                partition = Partition.build(([ids[i] for i in t] for t in split), [ids[i] for i in solos])
                splits.append((surface, deep, surface + deep, partition))
        result = brute_force_partition(population)
        assert result.n_partitions == len(splits)
        for k, best, partitions in (
            (0, result.best_surface, result.best_surface_partitions),
            (1, result.best_deep, result.best_deep_partitions),
            (2, result.best_total, result.best_total_partitions),
        ):
            assert best == max(split[k] for split in splits)
            assert partitions == tuple(split[3] for split in splits if split[k] == best)

    def test_result_partitions_are_valid(self, small_population):
        result = brute_force_partition(small_population)
        assert isinstance(result, BruteForceResult)
        ids = [p.id for p in small_population]
        for part in result.best_total_partitions:
            part.validate(ids)


class TestMeanScores:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40),
        st.sampled_from([(2,), (2, 1), (2, 7), (5, 2), (2, 100)]),
        st.integers(0, 2**32 - 1),
    )
    def test_adds_teams_left_to_right(self, n_teams, trailing, seed):
        # Scores spread over magnitudes, so that another order of additions
        # would round differently.
        rng = np.random.default_rng(seed)
        scores = rng.random((n_teams, *trailing)) * 10.0 ** rng.integers(-3, 4, size=(n_teams, *trailing))
        means = _mean_scores(scores)
        assert means.shape == trailing
        expected = [_left_to_right_mean(scores[(slice(None), *k)].tolist()) for k in np.ndindex(*trailing)]
        assert means.ravel().tolist() == expected


# Attribute rows that reach the extremes of the exact sums: ages AGE_MIN and
# AGE_MAX, skills 1 and 5.
_extreme_participants = st.builds(
    lambda gender, race, hispanic, international, age, skills: dict(
        gender=gender, race=race, hispanic=hispanic, international=international, age=age, skills=tuple(skills)
    ),
    st.sampled_from(GENDERS),
    st.sampled_from(RACES),
    st.booleans(),
    st.booleans(),
    st.one_of(st.sampled_from([AGE_MIN, AGE_MAX]), st.integers(AGE_MIN, AGE_MAX)),
    st.lists(st.one_of(st.sampled_from([1, 5]), st.integers(1, 5)), min_size=NUM_SKILLS, max_size=NUM_SKILLS),
)


def _people(attributes: list[dict]) -> list[Participant]:
    return [Participant(id=f"q{i:03d}", **a) for i, a in enumerate(attributes)]


class TestExactTeamSums:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_extreme_participants, min_size=1, max_size=12),
        st.lists(st.lists(st.integers(0, 11), min_size=TEAM_SIZE, max_size=TEAM_SIZE), min_size=1, max_size=20),
    )
    def test_equal_to_score_teams_at_the_extremes(self, attributes, teams):
        rows = _people(attributes + [attributes[0]] * TEAM_SIZE)  # plus a clone team
        n = len(attributes)
        idx = np.array([[i % n for i in team] for team in teams] + [list(range(n, n + TEAM_SIZE))])
        table = attribute_table(rows)
        surface, deep = _score_moments(_team_moments(table)[idx].sum(axis=1))
        expected_surface, expected_deep = score_teams(table, idx)
        assert surface.tolist() == expected_surface.tolist()
        assert deep.tolist() == expected_deep.tolist()

    @pytest.mark.parametrize(
        "ages", [(AGE_MAX,) * 4, (AGE_MIN,) * 4, (AGE_MIN, AGE_MAX) * 2, (AGE_MAX, AGE_MAX, AGE_MAX, AGE_MIN)]
    )
    @pytest.mark.parametrize("skill", [1, 5])
    def test_corner_teams(self, ages, skill):
        rows = [make_participant(pid=f"m{k}", age=age, skills=(skill, 6 - skill) * 3) for k, age in enumerate(ages)]
        table = attribute_table(rows)
        idx = np.arange(TEAM_SIZE)[None, :]
        surface, deep = _score_moments(_team_moments(table)[idx].sum(axis=1))
        expected_surface, expected_deep = score_teams(table, idx)
        assert (surface.tolist(), deep.tolist()) == (expected_surface.tolist(), expected_deep.tolist())


@st.composite
def _sessions(draw):
    """(populations, configs): k sessions of one size n, random or clones,
    with configs that differ only in rng_seed."""
    n = draw(st.integers(2 * TEAM_SIZE, 4 * TEAM_SIZE + 1))
    k = draw(st.integers(1, 4))
    populations = []
    for _ in range(k):
        if draw(st.booleans()):
            populations.append(clone_population(n))
        else:
            populations.append(_people(draw(st.lists(_extreme_participants, min_size=n, max_size=n))))
    base = GaConfig(
        generations=draw(st.integers(1, 3)),
        population_size=draw(st.integers(1, 4)),
        swap_attempts=draw(st.one_of(st.none(), st.integers(1, 6))),
    )
    seeds = draw(st.lists(st.integers(0, 2**63 - 1), min_size=k, max_size=k))
    return populations, [dataclasses.replace(base, rng_seed=seed) for seed in seeds]


class TestGaPartitionMany:
    @settings(max_examples=60, deadline=None)
    @given(_sessions())
    def test_equal_to_separate_sessions(self, sessions):
        populations, configs = sessions
        together = ga_partition_many(populations, configs)
        assert len(together) == len(populations)
        for population, config, (archive, selected) in zip(populations, configs, together):
            alone_archive, alone_selected = ga_partition(population, config)
            assert _front(archive) == _front(alone_archive)
            assert selected == alone_selected

    def test_equal_to_scalar_climbers(self, mixed_population):
        populations = [mixed_population, synth_population(32, rng=np.random.default_rng(8)), clone_population(32)]
        configs = [GaConfig(generations=2, population_size=5, rng_seed=seed) for seed in (4, 5, 6)]
        for population, config, (archive, selected) in zip(
            populations, configs, ga_partition_many(populations, configs)
        ):
            ref_archive, ref_selected = _reference_ga(population, config)
            assert _front(archive) == _front(ref_archive)
            assert selected == ref_selected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2 * TEAM_SIZE, 20), st.integers(1, 3), st.data())
    def test_mixed_population_sizes_refused(self, n, extra, data):
        sizes = [n, n + extra]
        populations = [
            synth_population(size, rng=np.random.default_rng(size)) for size in data.draw(st.permutations(sizes))
        ]
        with pytest.raises(ValueError, match="one size"):
            ga_partition_many(populations, [GaConfig(generations=1, rng_seed=s) for s in (0, 1)])

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["generations", "population_size", "swap_attempts"]),
        st.integers(1, 5),
        st.integers(0, 2**63 - 1),
    )
    def test_mixed_configs_refused(self, name, value, seed):
        population = synth_population(12, rng=np.random.default_rng(3))
        base = GaConfig(generations=6, population_size=6, swap_attempts=6, rng_seed=seed)
        other = dataclasses.replace(base, **{name: value})
        with pytest.raises(ValueError, match="only in rng_seed"):
            ga_partition_many([population, population], [base, other])

    def test_one_config_per_population(self, small_population):
        with pytest.raises(ValueError, match="one config per population"):
            ga_partition_many([small_population, small_population], [GaConfig()])
        with pytest.raises(ValueError, match="one config per population"):
            ga_partition_many([], [])
