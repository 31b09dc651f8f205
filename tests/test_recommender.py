from __future__ import annotations

import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamsim.core import GENDERS, NUM_SKILLS, RACES, TEAM_SIZE, Participant, population_lookup
from teamsim.population import synth_population
from teamsim.protocol import AssemblyError, AssemblyState, Event
from teamsim.recommender import (
    DEMOGRAPHIC_KINDS,
    MODES,
    PAGE_SIZE,
    CodedPool,
    Criterion,
    Query,
    criterion_score,
    fit_score,
    marginal_diversity,
    match_percent,
    rank_candidates,
)

from conftest import make_participant, scalar_rank_candidates, shown_page


def _query(*criteria: Criterion, searcher: str = "s") -> Query:
    return Query(searcher_id=searcher, criteria=tuple(criteria))


class TestCriterionValidation:
    def test_importance_bounds(self):
        with pytest.raises(ValueError):
            Criterion(kind="same_gender", importance=4)

    def test_skill_needs_index(self):
        with pytest.raises(ValueError):
            Criterion(kind="skill", importance=2)
        with pytest.raises(ValueError):
            Criterion(kind="skill", importance=2, skill=6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "same_gender", "importance": 2.5},
            {"kind": "same_gender", "importance": 2.0},
            {"kind": "same_gender", "importance": True},
            {"kind": "skill", "importance": 2, "skill": 1.0},
            {"kind": "skill", "importance": 2, "skill": False},
        ],
    )
    def test_numbers_must_be_integers(self, kwargs):
        # a float skill index would otherwise fail later, as an IndexError inside rank_candidates
        with pytest.raises(ValueError, match="integer"):
            Criterion(**kwargs)

    def test_non_skill_takes_no_index(self):
        with pytest.raises(ValueError):
            Criterion(kind="same_race", importance=2, skill=1)

    def test_query_needs_two_nonzero_distinct(self):
        c1 = Criterion(kind="same_gender", importance=2)
        with pytest.raises(ValueError, match="two criteria"):
            _query(c1)
        with pytest.raises(ValueError, match="nonzero"):
            Query(
                searcher_id="s",
                criteria=(c1, Criterion(kind="same_race", importance=0)),
            )
        with pytest.raises(ValueError, match="duplicate"):
            _query(c1, Criterion(kind="same_gender", importance=1))

    def test_payload_round_trip(self):
        query = _query(
            Criterion(kind="skill", importance=-2, skill=5),
            Criterion(kind="same_race", importance=3),
            searcher="p7",
        )
        # A query is the payload of its query_issued event, logged beside
        # the searcher's id.
        logged = Event(0, "query_issued", query).to_dict()["payload"]
        assert logged == {"searcher_id": "p7", "query": {"searcher_id": "p7", "criteria": [
            {"kind": "skill", "skill": 5, "importance": -2},
            {"kind": "same_race", "skill": None, "importance": 3},
        ]}}
        assert Event.from_dict({"round": 0, "kind": "query_issued", "payload": logged}).payload == query

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {"criteria": []},
            {"searcher_id": "s"},
            {"searcher_id": "s", "criteria": [1, 2]},
            {"searcher_id": "s", "criteria": [{"kind": "same_race"}] * 2},
        ],
    )
    def test_malformed_payload_refused(self, payload):
        logged = {"searcher_id": "s", "query": payload}
        with pytest.raises(AssemblyError, match="malformed query payload"):
            Event.from_dict({"round": 0, "kind": "query_issued", "payload": logged})


class TestCriterionScore:
    def test_skill_levels_map_linearly(self):
        searcher = make_participant(pid="s")
        top = make_participant(pid="c", skills=(5, 1, 1, 1, 1, 1))
        crit = Criterion(kind="skill", importance=1, skill=0)
        assert criterion_score(searcher, top, crit) == 1.0
        low = make_participant(pid="d", skills=(1, 1, 1, 1, 1, 1))
        assert criterion_score(searcher, low, crit) == 0.0
        mid = make_participant(pid="e", skills=(3, 1, 1, 1, 1, 1))
        assert criterion_score(searcher, mid, crit) == 0.5

    def test_same_gender_indicator(self):
        s = make_participant(pid="s", gender="Female")
        crit = Criterion(kind="same_gender", importance=1)
        assert criterion_score(s, make_participant(pid="f", gender="Female"), crit) == 1.0
        assert criterion_score(s, make_participant(pid="m", gender="Male"), crit) == 0.0

    def test_similar_age_identity_and_clamp(self):
        s = make_participant(pid="s", age=30)
        crit = Criterion(kind="similar_age", importance=1)
        assert criterion_score(s, make_participant(pid="a", age=30), crit) == 1.0
        far = make_participant(pid="b", age=30 + 62)
        assert criterion_score(s, far, crit) == 0.0
        mid = make_participant(pid="c", age=61)
        assert criterion_score(s, mid, crit) == pytest.approx(1 - 31 / 62)


class TestFitScore:
    def test_weighted_sum_example(self):
        # alpha = (+2, +1) with per-criterion scores (0.5, 1.0) -> 2.0
        searcher = make_participant(pid="s", gender="Female")
        candidate = make_participant(pid="c", gender="Female", skills=(3, 3, 3, 3, 3, 3))
        query = _query(
            Criterion(kind="skill", importance=2, skill=0),
            Criterion(kind="same_gender", importance=1),
        )
        assert fit_score(searcher, candidate, query) == pytest.approx(2.0, abs=1e-15)

    def test_negative_weight_penalizes_match(self):
        searcher = make_participant(pid="s", gender="Female")
        same = make_participant(pid="c", gender="Female")
        query = _query(
            Criterion(kind="same_gender", importance=-3),
            Criterion(kind="skill", importance=1, skill=0),
        )
        # same gender contributes -3, skill 3 contributes 0.5
        assert fit_score(searcher, same, query) == pytest.approx(-3 + 0.5)

    def test_match_percent_extremes(self):
        searcher = make_participant(pid="s", gender="Female", age=30)
        best = make_participant(pid="c", gender="Female", age=30, skills=(5,) * 6)
        query = _query(
            Criterion(kind="skill", importance=3, skill=1),
            Criterion(kind="same_gender", importance=3),
            Criterion(kind="similar_age", importance=3),
        )
        s = fit_score(searcher, best, query)
        assert match_percent(query, s) == pytest.approx(100.0)
        # age 92 puts the age gap beyond the 62-year range, zeroing that score
        worst = make_participant(pid="d", gender="Male", age=92, skills=(1,) * 6)
        assert match_percent(query, fit_score(searcher, worst, query)) == pytest.approx(0.0)

    def test_match_percent_invariant_to_positive_rescale(self):
        searcher = make_participant(pid="s", gender="Female")
        candidate = make_participant(pid="c", gender="Female", skills=(4,) * 6)
        q1 = _query(
            Criterion(kind="skill", importance=1, skill=0),
            Criterion(kind="same_gender", importance=1),
        )
        q3 = _query(
            Criterion(kind="skill", importance=3, skill=0),
            Criterion(kind="same_gender", importance=3),
        )
        assert match_percent(q1, fit_score(searcher, candidate, q1)) == pytest.approx(
            match_percent(q3, fit_score(searcher, candidate, q3))
        )

    def test_linear_in_importance(self):
        searcher = make_participant(pid="s", gender="Female", age=40)
        candidate = make_participant(pid="c", gender="Male", age=28, skills=(2, 4, 1, 5, 3, 2))
        q1 = _query(
            Criterion(kind="skill", importance=1, skill=3),
            Criterion(kind="similar_age", importance=1),
        )
        q3 = _query(
            Criterion(kind="skill", importance=3, skill=3),
            Criterion(kind="similar_age", importance=3),
        )
        assert fit_score(searcher, candidate, q3) == pytest.approx(
            3 * fit_score(searcher, candidate, q1), abs=1e-12
        )


def _oracle_marginal_diversity(team, candidate) -> float:
    """Metric-by-metric recomputation with stdlib tooling."""

    def oblau(cats, k):
        n = len(cats)
        raw = 1 - sum((c / n) ** 2 for c in Counter(cats).values())
        return raw / (1 - 1 / k)

    def ocv(vals):
        return statistics.pstdev(vals) / statistics.mean(vals)

    members = list(team) + [candidate]
    comps = [
        oblau([m.gender for m in members], 3),
        oblau([m.race for m in members], 6),
        oblau([m.hispanic for m in members], 2),
        oblau([m.international for m in members], 2),
    ]
    age_cv = ocv([m.age for m in members])
    comps.append(age_cv / (1 + age_cv))
    for k in range(6):
        cv = ocv([m.skills[k] for m in members])
        comps.append(cv / (1 + cv))
    return max(0.01, sum(comps) / 11)


class TestMarginalDiversity:
    def test_identical_candidate_hits_floor(self):
        team = [make_participant(pid=f"t{i}") for i in range(3)]
        candidate = make_participant(pid="c")
        assert marginal_diversity(team, candidate) == 0.01

    def test_different_candidate_beats_identical(self):
        solo = [make_participant(pid="s", gender="Female", age=20)]
        same = make_participant(pid="a", gender="Female", age=20)
        different = make_participant(pid="b", gender="Male", age=40)
        assert marginal_diversity(solo, different) > marginal_diversity(solo, same)

    def test_candidate_already_in_team_rejected(self):
        team = [make_participant(pid="x")]
        with pytest.raises(ValueError, match="already in team"):
            marginal_diversity(team, make_participant(pid="x", age=50))

    def test_member_listed_twice_rejected(self):
        member = make_participant(pid="a")
        with pytest.raises(ValueError, match="duplicate ids in team_members"):
            marginal_diversity([member, member], make_participant(pid="b", age=50))

    def test_full_team_rejected(self):
        team = [make_participant(pid=f"t{i}") for i in range(4)]
        with pytest.raises(ValueError, match="exceed team size"):
            marginal_diversity(team, make_participant(pid="c"))

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(31)
        team = synth_population(3, rng=rng, id_prefix="team")
        candidates = synth_population(20, rng=rng, id_prefix="cand")
        for candidate in candidates:
            assert marginal_diversity(team, candidate) == pytest.approx(
                _oracle_marginal_diversity(team, candidate), abs=1e-12
            )


class TestRankCandidates:
    def _pool(self, n: int = 24, seed: int = 17):
        pop = synth_population(n, rng=np.random.default_rng(seed))
        return pop, population_lookup(pop)

    def test_fairness_prefers_diverse_at_equal_fit(self):
        searcher = make_participant(pid="s", gender="Female", age=30)
        # both candidates women of the same age: equal fit on this query
        similar = make_participant(pid="a", gender="Female", age=30)
        diverse = make_participant(pid="b", gender="Female", age=30, race="Asian", international=True)
        lookup = {p.id: p for p in (searcher, similar, diverse)}
        query = _query(
            Criterion(kind="same_gender", importance=2),
            Criterion(kind="similar_age", importance=1),
        )
        recs = rank_candidates(query, ["a", "b"], lookup=lookup, mode="fairness")
        assert [r.candidate_id for r in recs] == ["b", "a"]
        fit_only = rank_candidates(query, ["a", "b"], lookup=lookup, mode="fit_only")
        # equal combined scores tie-break by id in fit mode
        assert [r.candidate_id for r in fit_only] == ["a", "b"]

    def test_fit_only_ignores_diversity(self):
        pop, lookup = self._pool()
        query = _query(
            Criterion(kind="skill", importance=3, skill=2),
            Criterion(kind="skill", importance=1, skill=4),
            searcher=pop[0].id,
        )
        recs = rank_candidates(query, [p.id for p in pop], lookup=lookup, mode="fit_only")
        fits = [(r.fit_score, r.candidate_id) for r in recs]
        assert fits == sorted(fits, key=lambda t: (-t[0], t[1]))
        assert all(r.combined_score == r.fit_score for r in recs)

    def test_ranks_contiguous_and_pages_slice(self):
        pop, lookup = self._pool()
        query = _query(
            Criterion(kind="same_gender", importance=2),
            Criterion(kind="similar_age", importance=2),
            searcher=pop[0].id,
        )
        full = rank_candidates(query, [p.id for p in pop], lookup=lookup, mode="fairness")
        assert [r.rank for r in full] == list(range(1, len(full) + 1))
        page2 = rank_candidates(query, [p.id for p in pop], lookup=lookup, mode="fairness", page=2)
        assert [r.rank for r in page2] == [r.rank for r in full[PAGE_SIZE : 2 * PAGE_SIZE]]

    def test_never_recommends_overfull_merge(self):
        pop, lookup = self._pool(12)
        ids = [p.id for p in pop]
        state = AssemblyState(ids)
        for group in (ids[0:2], ids[2:6], ids[6:9]):  # pair, full team, trio
            for member in group[1:]:
                inv_id = state.send_invitation(group[0], member)
                for recipient in state.invitations[inv_id].recipient_group:
                    state.respond(inv_id, recipient, "accepted")
        query = _query(
            Criterion(kind="same_gender", importance=1),
            Criterion(kind="similar_age", importance=1),
            searcher=ids[0],
        )
        recs = rank_candidates(
            query,
            state.candidates(ids[0]),
            lookup=lookup,
            mode="fit_only",
            searcher_team=state.group_of(ids[0]),
        )
        recommended = {r.candidate_id for r in recs}
        assert recommended == set(ids[9:])  # only singletons fit with a pair

    def test_empty_pool_is_empty_page(self):
        searcher = make_participant(pid="s")
        query = _query(
            Criterion(kind="same_gender", importance=1),
            Criterion(kind="similar_age", importance=1),
        )
        assert rank_candidates(query, [], lookup={"s": searcher}, mode="fit_only") == []

    def test_scaling_importances_preserves_order(self):
        pop, lookup = self._pool(20, seed=77)
        base = [
            Criterion(kind="skill", importance=1, skill=0),
            Criterion(kind="same_race", importance=1),
        ]
        scaled = [
            Criterion(kind="skill", importance=3, skill=0),
            Criterion(kind="same_race", importance=3),
        ]
        for mode in ("fit_only", "fairness"):
            r1 = rank_candidates(
                _query(*base, searcher=pop[0].id), [p.id for p in pop], lookup=lookup, mode=mode
            )
            r3 = rank_candidates(
                _query(*scaled, searcher=pop[0].id), [p.id for p in pop], lookup=lookup, mode=mode
            )
            assert [r.candidate_id for r in r1] == [r.candidate_id for r in r3]

    def test_combined_score_increasing_in_diversity_for_fixed_fit(self):
        # positive fit score: higher D must rank first under fairness
        pop, lookup = self._pool(30, seed=5)
        query = _query(
            Criterion(kind="skill", importance=2, skill=1),
            Criterion(kind="skill", importance=1, skill=2),
            searcher=pop[0].id,
        )
        recs = rank_candidates(query, [p.id for p in pop], lookup=lookup, mode="fairness")
        by_fit: dict[float, list] = {}
        for r in recs:
            by_fit.setdefault(round(r.fit_score, 12), []).append(r)
        for group in by_fit.values():
            if len(group) > 1 and group[0].fit_score > 0:
                divs = [r.diversity_score for r in sorted(group, key=lambda r: r.rank)]
                assert divs == sorted(divs, reverse=True)

    def test_top5_diversity_fairness_beats_fit_only(self):
        rng = np.random.default_rng(91)
        wins = 0
        for trial in range(20):
            pop = synth_population(24, rng=rng, id_prefix=f"x{trial}_")
            lookup = population_lookup(pop)
            query = _query(
                Criterion(kind="skill", importance=2, skill=int(rng.integers(6))),
                Criterion(kind="same_gender", importance=1),
                searcher=pop[0].id,
            )
            pool = [p.id for p in pop]
            fair = rank_candidates(query, pool, lookup=lookup, mode="fairness")[:5]
            fit = rank_candidates(query, pool, lookup=lookup, mode="fit_only")[:5]
            if np.mean([r.diversity_score for r in fair]) >= np.mean(
                [r.diversity_score for r in fit]
            ):
                wins += 1
        assert wins >= 18

    def test_unknown_mode_rejected(self):
        searcher = make_participant(pid="s")
        query = _query(
            Criterion(kind="same_gender", importance=1),
            Criterion(kind="similar_age", importance=1),
        )
        with pytest.raises(ValueError, match="unknown mode"):
            rank_candidates(query, [], lookup={"s": searcher}, mode="both")

    @pytest.mark.parametrize(
        "misuse, message",
        [
            ({"pool": ["p0002", "p0003"] * 2}, "duplicate ids in pool"),
            ({"searcher_team": ["p0001"] * 4}, "duplicate ids in searcher_team"),
            ({"pool": ["p0002", "zz9"]}, "unknown member id 'zz9'"),
            ({"searcher_team": ["p0001", "zz9"]}, "unknown member id 'zz9'"),
        ],
    )
    def test_misuse_rejected(self, misuse, message):
        pop, lookup = self._pool(8)
        query = _query(
            Criterion(kind="same_gender", importance=1),
            Criterion(kind="similar_age", importance=1),
            searcher="p0001",
        )
        kwargs = {"pool": [p.id for p in pop], "lookup": lookup, "mode": "fairness", **misuse}
        with pytest.raises(ValueError, match=message):
            rank_candidates(query, **kwargs)


_attributes = st.tuples(
    st.sampled_from(GENDERS),
    st.sampled_from(RACES),
    st.booleans(),
    st.booleans(),
    st.one_of(st.sampled_from((18, 80)), st.integers(18, 100)),
    st.tuples(*[st.integers(1, 5)] * NUM_SKILLS),
)
_criteria = st.lists(
    st.builds(
        lambda kind, importance: Criterion(kind=kind[0], importance=importance, skill=kind[1]),
        st.one_of(
            st.tuples(st.just("skill"), st.integers(0, NUM_SKILLS - 1)),
            st.tuples(st.sampled_from(DEMOGRAPHIC_KINDS), st.none()),
        ),
        st.integers(-3, 3).filter(bool),
    ),
    min_size=2,
    max_size=5,
    unique_by=lambda c: c.key,
)


@st.composite
def _ranking_cases(draw):
    """(query, pool, keyword arguments) of one rank_candidates call.

    The searcher's team has 1-TEAM_SIZE members in drawn order, and the pool
    is every participant. Clone pools tie every score, so the id tiebreak
    decides the order.
    """
    n = draw(st.integers(2, 14))
    attributes = draw(st.lists(_attributes, min_size=n, max_size=n))
    if draw(st.booleans()):
        attributes = [attributes[0]] * n
    ids = draw(st.permutations([f"p{i:02d}" for i in range(n)]))
    population = [Participant(pid, *attrs) for pid, attrs in zip(ids, attributes)]
    team = list(ids[: draw(st.integers(1, min(TEAM_SIZE, n - 1)))])
    query = Query(searcher_id=draw(st.sampled_from(team)), criteria=tuple(draw(_criteria)))
    kwargs = {
        "lookup": population_lookup(population),
        "mode": draw(st.sampled_from(MODES)),
        "searcher_team": team,
        "page": draw(st.sampled_from([None, 1, 2])),
    }
    return query, draw(st.permutations(ids)), kwargs


# Members whose diversity score changes in the last bit when the candidate
# is scored ahead of the team rather than behind it.
_ORDER_SENSITIVE = [
    Participant("a", "Female", "AfricanAmerican", True, False, 72, (2, 4, 5, 4, 5, 1)),
    Participant("b", "Female", "Asian", True, False, 21, (3, 1, 1, 4, 2, 3)),
    Participant("c", "Female", "Asian", True, True, 68, (5, 4, 1, 5, 1, 2)),
]


# Four candidates whose fit scores change in the last bit when the criteria
# are summed by a vectorised dot product instead of one after another.
_SUM_ORDER_SENSITIVE = [make_participant(pid="s", age=30)] + [
    make_participant(pid=f"c{i}", age=43) for i in range(4)
]


class TestRankCandidatesExact:
    @settings(max_examples=400, deadline=None)
    @given(_ranking_cases())
    @example(
        case=(
            _query(
                Criterion(kind="similar_age", importance=3),
                Criterion(kind="same_gender", importance=-2),
            ),
            ["c0", "c1", "c2", "c3"],
            {"lookup": population_lookup(_SUM_ORDER_SENSITIVE), "mode": "fit_only"},
        )
    )
    @example(
        case=(
            _query(
                Criterion(kind="similar_age", importance=3),
                Criterion(kind="skill", importance=1, skill=0),
                searcher="a",
            ),
            ["c"],
            {
                "lookup": population_lookup(_ORDER_SENSITIVE),
                "mode": "fairness",
                "searcher_team": ["a", "b"],
            },
        )
    )
    def test_matches_scalar_reference(self, case):
        query, pool, kwargs = case
        assert rank_candidates(query, pool, **kwargs) == scalar_rank_candidates(
            query, pool, **kwargs
        )


@st.composite
def _coded_cases(draw):
    """(participants, query, team rows, eligible rows, mode) of one
    CodedPool.rank call: a team of 1-3 rows and a drawn pool of the other
    rows, in drawn order. Ids are coded in drawn order, so row order is not
    id order."""
    n = draw(st.integers(2, 30))
    attributes = draw(st.lists(_attributes, min_size=n, max_size=n))
    if draw(st.booleans()):
        attributes = [attributes[i % 2] for i in range(n)]
    ids = draw(st.permutations([f"p{i:02d}" for i in range(n)]))
    population = [Participant(pid, *attrs) for pid, attrs in zip(ids, attributes)]
    rows = draw(st.permutations(range(n)))
    team = rows[: draw(st.integers(1, min(TEAM_SIZE - 1, n - 1)))]
    others = rows[len(team) :]
    eligible = draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others)))
    query = Query(searcher_id=ids[draw(st.sampled_from(team))], criteria=tuple(draw(_criteria)))
    return population, query, team, eligible, draw(st.sampled_from(MODES))


class TestCodedPool:
    @settings(max_examples=300, deadline=None)
    @given(_coded_cases())
    def test_rank_matches_scalar_reference(self, case):
        # The drawn mode ranks first and fills the team's diversity cache;
        # every later call, the other mode's included, is served from it.
        population, query, team, eligible, mode = case
        pool, lookup = CodedPool(population), population_lookup(population)
        searcher = pool.row[query.searcher_id]
        eligible_ids = [pool.ids[r] for r in eligible]
        team_ids = [pool.ids[r] for r in team]
        for mode in (mode, *(m for m in MODES if m != mode)):
            for page in (1, 2, None, 1):
                expected = scalar_rank_candidates(
                    query, eligible_ids, lookup=lookup, mode=mode, searcher_team=team_ids, page=page
                )
                shown = pool.rank(query, team, searcher, np.array(eligible, dtype=np.intp), mode, page)
                assert shown == shown_page(query.searcher_id, expected)

    def test_rows_follow_participant_order_and_ids_rank_in_id_order(self):
        pop = [make_participant(pid=pid) for pid in ("b", "c", "a")]
        pool = CodedPool(pop)
        assert pool.ids == ("b", "c", "a")
        assert pool.row == {"b": 0, "c": 1, "a": 2}
        assert pool.id_rank.tolist() == [1, 2, 0]

    def test_duplicate_ids_refused(self):
        with pytest.raises(ValueError, match="duplicate"):
            CodedPool([make_participant(pid="a"), make_participant(pid="a")])
