from __future__ import annotations

import ast
import dataclasses
import itertools
import json
import math
import statistics
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamsim.core import (
    AGE_MAX,
    AGE_SPAN,
    BLAU_MAX,
    TEAM_SIZE,
    Participant,
    Partition,
    Team,
    blau,
    coefficient_of_variation,
    normalize_cv,
    normalized_blau,
    population_lookup,
    profile_for_members,
    read_json_lines,
    read_table,
    score_teams,
    surface_deep_rows,
    attribute_table,
    team_diversity_profile,
    team_profiles,
    write_csv,
    write_json_lines,
)
import teamsim.core
from teamsim.population import synth_population

from conftest import make_participant, profile_for_rows, scalar_surface_deep


class TestBlau:
    def test_homogeneous_group_is_zero(self):
        assert blau(["F", "F", "F", "F"]) == 0.0

    def test_even_two_way_split(self):
        assert blau(["F", "F", "M", "M"]) == 0.5

    def test_three_category_group(self):
        # 1 - (0.5^2 + 0.25^2 + 0.25^2)
        assert blau(["F", "M", "NB", "F"]) == pytest.approx(0.625, abs=1e-15)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty group"):
            blau([])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        cats = list("AABBCCDD")
        base = blau(cats)
        for _ in range(20):
            rng.shuffle(cats)
            assert blau(cats) == pytest.approx(base, abs=1e-15)

    def test_bounded_by_observed_category_count(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cats = [int(c) for c in rng.integers(0, 5, size=rng.integers(1, 12))]
            k = len(set(cats))
            bound = 1 - 1 / k if k > 1 else 0.0
            assert blau(cats) <= bound + 1e-12


class TestNormalizedBlau:
    def test_maximal_even_spread(self):
        assert normalized_blau(["F", "M"], 2) == 1.0

    def test_homogeneous(self):
        assert normalized_blau(["F", "F", "F", "F"], 3) == 0.0

    def test_four_members_six_categories(self):
        # (1 - 0.375) / (5/6)
        assert normalized_blau(["W", "W", "A", "B"], 6) == pytest.approx(0.75, abs=1e-12)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            normalized_blau(["F", "M"], 1)

    def test_k_below_distinct_categories_rejected(self):
        # Three categories over k=2 would score 1.333.
        with pytest.raises(ValueError, match="distinct categories"):
            normalized_blau(["a", "b", "c"], 2)
        assert normalized_blau(["a", "b", "c"], 3) == pytest.approx(1.0, abs=1e-12)


class TestCoefficientOfVariation:
    def test_identical_values(self):
        assert coefficient_of_variation([3, 3, 3, 3]) == 0.0

    def test_two_values(self):
        assert coefficient_of_variation([2, 4]) == pytest.approx(1 / 3, abs=1e-12)

    def test_spread_ages(self):
        # population sd / mean evaluated directly
        expected = math.sqrt(sum((x - 35) ** 2 for x in (20, 30, 40, 50)) / 4) / 35
        assert coefficient_of_variation([20, 30, 40, 50]) == pytest.approx(expected, abs=1e-15)
        assert coefficient_of_variation([20, 30, 40, 50]) == pytest.approx(0.3194, abs=5e-5)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="undefined CV"):
            coefficient_of_variation([-1, 1])
        # zero when added left to right, 1.0 when summed exactly
        with pytest.raises(ValueError, match="undefined CV"):
            coefficient_of_variation([1e16, 1.0, -1e16])

    def test_sums_left_to_right(self):
        # math.fsum rounds once, and sum() compensates float rounding since
        # Python 3.12; the definition adds left to right on every version
        values = [0.1, 0.2, 0.3]
        assert (0.1 + 0.2) + 0.3 != math.fsum(values)
        mean = ((0.1 + 0.2) + 0.3) / 3
        squares = ((0.1 - mean) ** 2 + (0.2 - mean) ** 2) + (0.3 - mean) ** 2
        expected = math.sqrt(squares / 3) / mean
        assert expected == 0.4082482904638629
        assert coefficient_of_variation(values) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([])

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            values = list(rng.integers(18, 66, size=4))
            c = float(rng.uniform(0.1, 10))
            assert coefficient_of_variation([c * v for v in values]) == pytest.approx(
                coefficient_of_variation(values), rel=1e-10
            )


class TestParticipantValidation:
    def test_age_floor(self):
        with pytest.raises(ValueError, match="age"):
            make_participant(age=17)

    def test_age_ceiling(self):
        assert make_participant(age=AGE_MAX).age == AGE_MAX
        with pytest.raises(ValueError, match="age"):
            make_participant(age=AGE_MAX + 1)
        # An age that would wrap a team's int64 sum of squares.
        with pytest.raises(ValueError, match="age"):
            Participant.from_dict({**make_participant().to_dict(), "age": 2 * 10**9})

    def test_skill_bounds(self):
        with pytest.raises(ValueError, match="skill"):
            make_participant(skills=(0, 3, 3, 3, 3, 3))
        with pytest.raises(ValueError, match="skill"):
            make_participant(skills=(3, 3, 3))

    def test_non_integer_age_and_skill_rejected(self):
        with pytest.raises(ValueError, match="age"):
            make_participant(age=30.7)
        with pytest.raises(ValueError, match="skill"):
            make_participant(skills=(2.5, 3, 3, 3, 3, 3))
        assert make_participant(age=np.int64(30)).age == 30
        data = make_participant().to_dict()
        with pytest.raises(ValueError, match="age"):
            Participant.from_dict({**data, "age": 30.7})

    def test_unknown_categories(self):
        with pytest.raises(ValueError):
            make_participant(gender="Other")
        with pytest.raises(ValueError):
            make_participant(race="Unknown")

    def test_round_trip(self):
        p = make_participant(pid="x9", hispanic=True, age=44, skills=(1, 2, 3, 4, 5, 1))
        assert Participant.from_dict(p.to_dict()) == p

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            population_lookup([make_participant(pid="a"), make_participant(pid="a")])

    def test_attribute_row_follows_replace(self):
        p = make_participant(gender="Male", race="Asian", international=True, age=30)
        assert p._row == (0, 1, 0, 1, 30, 3, 3, 3, 3, 3, 3)
        q = dataclasses.replace(p, gender="NonBinary", hispanic=True, age=41, skills=(1, 2, 3, 4, 5, 5))
        assert q._row == (2, 1, 1, 1, 41, 1, 2, 3, 4, 5, 5)


class TestTeamAndPartition:
    def test_team_size_bounds(self):
        with pytest.raises(ValueError):
            Team.of([])
        with pytest.raises(ValueError):
            Team.of(["a", "b", "c", "d", "e"])
        with pytest.raises(ValueError):
            Team.of(["a", "a"])

    def test_partition_cover_validation(self):
        part = Partition.build([["a", "b", "c", "d"]], ["e"])
        part.validate(["a", "b", "c", "d", "e"])
        with pytest.raises(ValueError, match="cover"):
            part.validate(["a", "b", "c", "d"])
        with pytest.raises(ValueError):
            Partition.build([["a", "b"], ["b", "c"]]).validate(["a", "b", "c"])

    def test_dict_round_trip(self):
        part = Partition.build([["d", "c", "b", "a"], ["h", "e", "g", "f"]], ["j", "i"])
        data = part.to_dict()
        assert data == {"teams": [["a", "b", "c", "d"], ["e", "f", "g", "h"]], "solos": ["i", "j"]}
        assert Partition.from_dict(data) == part
        assert Partition.from_dict(json.loads(json.dumps(data))) == part

    def test_content_hash_is_canonical(self):
        p1 = Partition.build([["a", "b"], ["c", "d"]])
        p2 = Partition.build([["d", "c"], ["b", "a"]])
        assert p1.content_hash() == p2.content_hash()


class TestSchema:
    def test_default_age_range(self):
        assert AGE_SPAN == 62
        assert BLAU_MAX == (1 - 1 / 3, 1 - 1 / 6, 0.5, 0.5)


def _oracle_profile_components(members) -> list[float]:
    """Independent metric-by-metric evaluation using stdlib tooling."""

    def oracle_blau(cats):
        n = len(cats)
        return 1 - sum((c / n) ** 2 for c in Counter(cats).values())

    def oracle_cv(vals):
        return statistics.pstdev(vals) / statistics.mean(vals)

    comps = [
        oracle_blau([m.gender for m in members]) / (1 - 1 / 3),
        oracle_blau([m.race for m in members]) / (1 - 1 / 6),
        oracle_blau([m.hispanic for m in members]) / (1 - 1 / 2),
        oracle_blau([m.international for m in members]) / (1 - 1 / 2),
    ]
    age_cv = oracle_cv([m.age for m in members])
    comps.append(age_cv / (age_cv + 1))
    for k in range(6):
        cv = oracle_cv([m.skills[k] for m in members])
        comps.append(cv / (cv + 1))
    return comps


class TestDiversityProfile:
    def test_identical_members_all_zero(self):
        members = [make_participant(pid=f"p{i}") for i in range(4)]
        profile = profile_for_members(members)
        assert profile.total_score == 0.0
        assert profile.surface_score == 0.0
        assert profile.deep_score == 0.0
        assert profile.age_cv == 0.0

    def test_single_member_all_zero(self):
        profile = profile_for_members([make_participant()])
        assert profile.total_score == 0.0
        assert all(cv == 0.0 for cv in profile.skill_cvs)

    def test_two_member_mixed_pair(self):
        # hand-derived: gender 0.5/(2/3), race 0.5/(5/6), ethnicity 0,
        # international 0.5/0.5, age cv 1/3 normalized to 0.25
        a = make_participant(pid="a", gender="Female", race="White", age=20)
        b = make_participant(pid="b", gender="Male", race="Asian", international=True, age=40)
        profile = profile_for_members([a, b])
        assert profile.gender_blau == pytest.approx(0.75, abs=1e-12)
        assert profile.race_blau == pytest.approx(0.6, abs=1e-12)
        assert profile.ethnicity_blau == 0.0
        assert profile.international_blau == pytest.approx(1.0, abs=1e-12)
        assert profile.age_cv == pytest.approx(1 / 3, abs=1e-12)
        assert profile.deep_score == 0.0
        assert profile.surface_score == pytest.approx(0.75 + 0.6 + 0.0 + 1.0 + 0.25, abs=1e-12)

    def test_total_is_exact_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            members = synth_population(4, rng=rng, id_prefix="t")
            profile = profile_for_members(members)
            assert profile.total_score == profile.surface_score + profile.deep_score

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            members = synth_population(int(rng.integers(2, 5)), rng=rng, id_prefix="o")
            profile = profile_for_members(members)
            comps = _oracle_profile_components(members)
            assert profile.surface_score == pytest.approx(sum(comps[:5]), abs=1e-12)
            assert profile.deep_score == pytest.approx(
                sum(comps[5:]) / 6, abs=1e-12
            )
            assert profile.component_mean == pytest.approx(sum(comps) / 11, abs=1e-12)

    def test_fast_path_agrees_with_profile(self):
        rng = np.random.default_rng(8)
        members = synth_population(4, rng=rng)
        rows = [p._row for p in members]
        surface, deep = surface_deep_rows(rows, range(4))
        profile = profile_for_members(members)
        assert surface == pytest.approx(profile.surface_score, abs=1e-12)
        assert deep == pytest.approx(profile.deep_score, abs=1e-12)

    @pytest.mark.parametrize("n", [0, TEAM_SIZE + 1])
    def test_team_size_out_of_range_rejected(self, n):
        members = synth_population(8, rng=np.random.default_rng(9))[:n]
        with pytest.raises(ValueError, match=f"team size must be 1..{TEAM_SIZE}, got {n}"):
            profile_for_members(members)

    def test_unknown_member_rejected(self):
        team = Team.of(["a", "zz"])
        lookup = {"a": make_participant(pid="a")}
        with pytest.raises(ValueError, match="unknown member"):
            team_diversity_profile(team, lookup)

    def test_duplicating_a_member_keeps_single_category_blau_zero(self):
        members = [make_participant(pid=f"m{i}", gender="Female") for i in range(3)]
        grown = members + [make_participant(pid="m3", gender="Female")]
        assert profile_for_members(grown).gender_blau == 0.0

    def test_normalize_cv_range(self):
        assert normalize_cv(0.0) == 0.0
        assert 0 < normalize_cv(3.0) < 1


# One attribute row: codes in the ranges Participant._row holds, ages that
# reach the bounds 18 and 80 of the similar_age span.
_attribute_rows = st.tuples(
    st.integers(0, 2),
    st.integers(0, 5),
    st.integers(0, 1),
    st.integers(0, 1),
    st.one_of(st.sampled_from([18, 80]), st.integers(18, 80)),
    *[st.integers(1, 5)] * 6,
)


@st.composite
def _scored_teams(draw):
    """(rows, idx[m, t]): random rows, plus clone teams of one repeated row."""
    t = draw(st.integers(1, TEAM_SIZE))
    rows = draw(st.lists(_attribute_rows, min_size=1, max_size=12))
    n = len(rows)
    rows = rows + [rows[0]] * t  # t identical rows: a clone team
    teams = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=t, max_size=t), min_size=1, max_size=20))
    teams.append(list(range(n, n + t)))
    teams.append([draw(st.integers(0, n - 1))] * t)  # one row t times
    return rows, np.array(teams)


class TestScoreTeams:
    @settings(max_examples=300, deadline=None)
    @given(_scored_teams())
    # A team whose surface score changes in the last bit when its squared
    # age deviations are added in another member order.
    @example(
        case=(
            [
                (1, 2, 1, 0, 72, 2, 4, 5, 4, 5, 1),
                (1, 1, 1, 0, 21, 3, 1, 1, 4, 2, 3),
                (1, 1, 1, 1, 68, 5, 4, 1, 5, 1, 2),
            ],
            np.array([[0, 1, 2]]),
        ),
    )
    def test_bit_identical_to_scalar(self, case):
        """Every component and score of every team, kernel against the scalar oracle."""
        rows, idx = case
        table = np.array(rows, dtype=np.int64)
        surface, deep = score_teams(table, idx)
        expected = [profile_for_rows([rows[i] for i in team]) for team in idx.tolist()]
        assert surface.tolist() == [p.surface_score for p in expected]
        assert deep.tolist() == [p.deep_score for p in expected]
        # DiversityProfile equality compares all 11 components and the three scores.
        assert team_profiles(table, idx.tolist()) == expected
        for profile in expected:
            blaus = (profile.gender_blau, profile.race_blau, profile.ethnicity_blau, profile.international_blau)
            assert all(0.0 <= b <= 1.0 for b in blaus)

    def test_profiles_of_mixed_sizes_keep_their_order(self, mixed_population):
        table = attribute_table(mixed_population)
        rows = table.tolist()
        teams = [[5, 2, 9], [0], [1, 3, 4, 6], [8, 7], [11, 10, 12], [13, 14]]
        assert team_profiles(table, teams) == [profile_for_rows([rows[i] for i in team]) for team in teams]

    @pytest.mark.parametrize("t", range(1, TEAM_SIZE + 1))
    def test_every_category_pattern_is_exact(self, t):
        """Every code sequence of a t-member team, in every categorical column.

        The ages and skills the codes pick include teams whose squared
        deviations sum to different floats in different member orders.
        """
        ages, skills = (18, 29, 40, 80), (1, 4, 2, 5)
        for codes in itertools.product(range(t), repeat=t):
            rows = [(c, c, c, c, ages[c], *[skills[c]] * 6) for c in codes]
            surface, deep = score_teams(np.array(rows), np.arange(t)[None, :])
            assert (surface[0], deep[0]) == scalar_surface_deep(rows, range(t))

    def test_table_matches_rows(self, mixed_population):
        table = attribute_table(mixed_population)
        assert table.dtype == np.int64
        assert table.tolist() == [list(p._row) for p in mixed_population]

    @pytest.mark.parametrize("t", [0, TEAM_SIZE + 1])
    def test_team_size_out_of_range_rejected(self, mixed_population, t):
        table = attribute_table(mixed_population)
        with pytest.raises(ValueError, match="team size"):
            score_teams(table, np.zeros((3, t), dtype=np.int64))


def test_profiles_are_built_only_from_the_kernel():
    """DiversityProfile is built in one function of the package,
    core.team_profiles, from score_teams' statistics; the scalar scoring path
    is defined only in the tests, as their oracle."""
    builders, defined = [], set()
    for path in sorted(Path(teamsim.core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        functions = [node for node in nodes if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        defined.update(node.name for node in functions)
        defined.update(node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
        for node in nodes:
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("DiversityProfile"):
                enclosing = [f.name for f in functions if node in ast.walk(f)]
                builders.append((path.name, enclosing))
    assert builders == [("core.py", ["team_profiles"])], builders
    assert not defined & {"_row_components", "profile_for_rows"}


# Text that UTF-8 encodes and csv.reader reads: any character but a lone
# surrogate. NUL is included: csv.reader reads it since Python 3.11.
_text = st.text(st.characters(blacklist_categories=("Cs",)))
_json_records = st.recursive(
    _text | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_text, children, max_size=4),
    max_leaves=12,
)


@st.composite
def _tables(draw):
    """(columns, rows): distinct column names and rows of text fields keyed by them."""
    columns = draw(st.lists(_text, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({c: _text for c in columns}), max_size=5))
    return columns, rows


class TestFileFormats:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_json_records, max_size=5))
    def test_json_lines_round_trip(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.jsonl"
            write_json_lines(path, records)
            assert read_json_lines(path, lambda record: record) == records

    @settings(max_examples=200, deadline=None)
    @given(_tables())
    # A field holding a carriage return: csv.writer quotes it only when \r is
    # in its line terminator.
    @example(table=(["a", "b"], [{"a": "x\ry", "b": ""}]))
    @example(table=([""], [{"": ""}]))  # a one-column row with an empty field
    @example(table=(["a\x00"], [{"a\x00": "x\x00y"}]))  # NUL in a name and a field
    def test_csv_round_trip(self, table):
        columns, rows = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            write_csv(path, rows, columns)
            assert read_table(path, columns) == rows

    def test_plain_table_is_written_unquoted(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, [{"a": 1, "b": 0.5}, {"a": "x y", "b": ""}], ("a", "b"))
        assert path.read_bytes() == b"a,b\n1,0.5\nx y,\n"

    def test_none_is_written_as_an_empty_field(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, [{"a": None, "b": 2}], ("a", "b"))
        assert path.read_bytes() == b"a,b\n,2\n"

    def test_table_with_a_field_to_quote_is_quoted_with_lf_line_ends(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, [{"a": 1, "b": "c,d"}, {"a": 'say "hi"', "b": "two\r\nlines"}], ("a", "b"))
        assert path.read_bytes() == b'a,b\n1,"c,d"\n"say ""hi""","two\r\nlines"\n'
