"""Domain types and team diversity metrics.

Categorical heterogeneity is measured with the Blau index (1 - sum of
squared category shares) and numeric spread with the coefficient of
variation (population standard deviation over mean). Per-attribute scores
are normalized to [0, 1] and aggregated into surface-level (demographics)
and deep-level (skills) scores.

The attribute categories are fixed: each Blau index is divided by its
maximum 1 - 1/k, where k is the size of the attribute's category set
(GENDERS, RACES, and two each for Hispanic and international), so the
normalization does not depend on the population or on any setting. CV
scores are mapped through cv / (cv + 1).

The CSV and JSON-lines writers and readers of every teamsim file live
here too.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

GENDERS = ("Male", "Female", "NonBinary")
RACES = ("White", "Asian", "AfricanAmerican", "AmericanIndian", "MultipleRaces", "Other")
SKILL_NAMES = (
    "managing_campaigns",
    "coordinating_people",
    "visual_design",
    "recruiting_volunteers",
    "writing",
    "presenting",
)
NUM_SKILLS = len(SKILL_NAMES)
TEAM_SIZE = 4

_GENDER_INDEX = {g: i for i, g in enumerate(GENDERS)}
_RACE_INDEX = {r: i for i, r in enumerate(RACES)}

# Maximum Blau index 1 - 1/k of gender, race, Hispanic and international,
# k being each attribute's category count.
BLAU_MAX = tuple(1.0 - 1.0 / k for k in (len(GENDERS), len(RACES), 2, 2))
_BLAU_MAX = np.array(BLAU_MAX)[:, None]
AGE_MIN = 18
# The oldest age accepted. It bounds a team's integer age sums, so that the
# GA's exact team statistics neither wrap in int64 nor round in float64.
AGE_MAX = 120
# The age span 18..80 over which the similar_age criterion scales age gaps.
AGE_SPAN = 80 - AGE_MIN


def _is_int(value) -> bool:
    # The exact-type test spares the slow ABC check on the common case: every
    # query's criteria pass through here.
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _is_real(value) -> bool:
    """A finite int, float or numpy real; bools and strings are refused."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class Participant:
    """One person: categorical demographics, age, and six skill levels (1-5)."""

    id: str
    gender: str
    race: str
    hispanic: bool
    international: bool
    age: int
    skills: tuple[int, ...]
    # Integer attribute codes for team scoring, computed once: participants
    # are immutable and the recommender codes every candidate on every search.
    _row: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("participant id must be non-empty")
        if self.gender not in _GENDER_INDEX:
            raise ValueError(f"unknown gender {self.gender!r}")
        if self.race not in _RACE_INDEX:
            raise ValueError(f"unknown race {self.race!r}")
        if not _is_int(self.age) or not AGE_MIN <= self.age <= AGE_MAX:
            raise ValueError(f"age must be an integer in {AGE_MIN}..{AGE_MAX}, got {self.age!r}")
        if len(self.skills) != NUM_SKILLS:
            raise ValueError(f"expected {NUM_SKILLS} skills, got {len(self.skills)}")
        if any(not _is_int(s) or not 1 <= s <= 5 for s in self.skills):
            raise ValueError(f"skill levels must be integers in 1..5, got {self.skills}")
        row = (
            _GENDER_INDEX[self.gender],
            _RACE_INDEX[self.race],
            int(self.hispanic),
            int(self.international),
            self.age,
        ) + tuple(self.skills)
        object.__setattr__(self, "_row", row)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "gender": self.gender,
            "race": self.race,
            "hispanic": self.hispanic,
            "international": self.international,
            "age": self.age,
            "skills": list(self.skills),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Participant":
        return cls(
            id=str(d["id"]),
            gender=d["gender"],
            race=d["race"],
            hispanic=bool(d["hispanic"]),
            international=bool(d["international"]),
            age=d["age"],
            skills=tuple(d["skills"]),
        )


@dataclass(frozen=True)
class Team:
    """A group of 1..4 participant ids."""

    member_ids: frozenset[str]

    def __post_init__(self) -> None:
        if not 1 <= len(self.member_ids) <= TEAM_SIZE:
            raise ValueError(f"team size must be 1..{TEAM_SIZE}, got {len(self.member_ids)}")

    @classmethod
    def of(cls, ids: Iterable[str]) -> "Team":
        ids = list(ids)
        fs = frozenset(ids)
        if len(fs) != len(ids):
            raise ValueError("duplicate member ids in team")
        return cls(fs)

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.member_ids))

    def __len__(self) -> int:
        return len(self.member_ids)


@dataclass(frozen=True)
class Partition:
    """Disjoint split of a population into teams plus solo participants."""

    teams: tuple[Team, ...]
    solos: tuple[str, ...]

    @classmethod
    def build(cls, teams: Iterable[Iterable[str]], solos: Iterable[str] = ()) -> "Partition":
        built = tuple(sorted((Team.of(t) for t in teams), key=Team.sorted_ids))
        return cls(teams=built, solos=tuple(sorted(solos)))

    def validate(self, population_ids: Iterable[str]) -> None:
        """Check disjointness and exact cover of the population."""
        seen: set[str] = set()
        total = 0
        for t in self.teams:
            seen |= t.member_ids
            total += len(t)
        seen.update(self.solos)
        total += len(self.solos)
        if total != len(seen):
            raise ValueError("partition contains duplicate members")
        expected = set(population_ids)
        if seen != expected:
            missing = expected - seen
            extra = seen - expected
            raise ValueError(f"partition does not cover population (missing={sorted(missing)}, extra={sorted(extra)})")

    def to_dict(self) -> dict:
        """{"teams": member id lists, "solos": id list}, each sorted: the
        partition file format."""
        return {"teams": [list(t.sorted_ids()) for t in self.teams], "solos": list(self.solos)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "Partition":
        return cls.build(d["teams"], d["solos"])

    def canonical(self) -> tuple:
        return (tuple(t.sorted_ids() for t in self.teams), self.solos)

    def content_hash(self) -> str:
        """Stable hash of the partition content (independent of process hash seed)."""
        return hashlib.sha1(repr(self.canonical()).encode("utf-8")).hexdigest()


# Count of normalized metric components in a profile: 4 categorical Blau
# scores + 1 age CV + 6 skill CVs.
METRIC_COUNT = 11


@dataclass(frozen=True)
class DiversityProfile:
    """Per-attribute diversity of one team plus surface/deep/total aggregates.

    Blau fields are already normalized to [0, 1] by the maxima BLAU_MAX,
    which come from the category tuples; age_cv and skill_cvs are raw
    coefficients of variation. surface_score sums the five normalized
    surface components, deep_score averages the six normalized skill
    components, total_score is their sum.
    """

    gender_blau: float
    race_blau: float
    ethnicity_blau: float
    international_blau: float
    age_cv: float
    skill_cvs: tuple[float, ...]
    surface_score: float
    deep_score: float
    total_score: float

    @property
    def component_mean(self) -> float:
        """Mean of all normalized components (the recommender's diversity level)."""
        return (self.surface_score + NUM_SKILLS * self.deep_score) / METRIC_COUNT


def blau(categories: Sequence) -> float:
    """Blau index 1 - sum(p_i^2); 0 iff every member shares one category."""
    n = len(categories)
    if n == 0:
        raise ValueError("empty group")
    return _blau_from_codes(categories, n)


def normalized_blau(categories: Sequence, k: int) -> float:
    """Blau index divided by its theoretical maximum 1 - 1/k.

    A k below 2 or below the number of distinct categories is refused: the
    result would leave [0, 1].
    """
    if k < max(2, len(set(categories))):
        raise ValueError(f"category count k must be >= 2 and >= the distinct categories, got {k}")
    return blau(categories) / (1.0 - 1.0 / k)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Population standard deviation (divisor n) over the mean."""
    n = len(values)
    if n == 0:
        raise ValueError("empty group")
    return _cv_from_values(values, n)


def normalize_cv(cv: float) -> float:
    """Map a CV in [0, inf) into [0, 1) via cv / (cv + 1)."""
    return cv / (cv + 1.0)


def _blau_from_codes(codes: Sequence[int], n: int) -> float:
    counts: dict = {}
    for c in codes:
        counts[c] = counts.get(c, 0) + 1
    squares = 0.0
    for c in counts.values():
        squares += (c / n) ** 2
    return 1.0 - squares


# Float sums in the scalar definitions are explicit left-to-right loops:
# sum() compensates float rounding since Python 3.12, which would change
# their last bits, and score_teams adds in this order.
def _cv_from_values(values: Sequence[float], n: int) -> float:
    total = 0
    for x in values:
        total += x
    mean = total / n
    if mean == 0:
        raise ValueError("undefined CV: mean is zero")
    squares = 0.0
    for x in values:
        squares += (x - mean) ** 2
    return math.sqrt(squares / n) / mean


def _row_components(rows: Sequence[tuple]) -> tuple:
    """(gender_b, race_b, eth_b, intl_b, age_cv, skill_cvs, surface, deep) for coded rows."""
    n = len(rows)
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
    return gender_b, race_b, eth_b, intl_b, age_cv, skill_cvs, surface, deep


def profile_for_rows(rows: Sequence[tuple]) -> DiversityProfile:
    if not rows:
        raise ValueError("empty group")
    gender_b, race_b, eth_b, intl_b, age_cv, skill_cvs, surface, deep = _row_components(rows)
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


def profile_for_members(members: Sequence[Participant]) -> DiversityProfile:
    return profile_for_rows([p._row for p in members])


def surface_deep_rows(rows: Sequence[tuple], idxs: Sequence[int]) -> tuple[float, float]:
    """(surface_score, deep_score) for the row subset, without building a profile.

    rows is the precomputed population attribute table and idxs selects one
    team. The scalar definition that score_teams reproduces in batches.
    """
    return _row_components([rows[i] for i in idxs])[6:]


def attribute_table(participants: Sequence[Participant]) -> np.ndarray:
    """int64[n, METRIC_COUNT] table of Participant._row codes, one row per participant.

    Columns follow Participant._row: gender, race, hispanic, international,
    age, then the six skills; each column yields one metric component.
    """
    return np.array([p._row for p in participants], dtype=np.int64).reshape(len(participants), METRIC_COUNT)


# (first, second) member positions of the t(t-1)/2 unordered member pairs.
_MEMBER_PAIRS = {t: np.triu_indices(t, 1) for t in range(1, TEAM_SIZE + 1)}


def score_teams(table: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(surface[m], deep[m]) of m teams given as rows of idx[m, t] into an attribute_table.

    Bit-identical to surface_deep_rows on each row of idx. A Blau index is
    1 - E / t^2, where E, the sum of squared category counts, is the number
    of ordered member pairs (self-pairs included) with equal codes; for
    t <= 4 this rounds exactly as the scalar sum of squared shares does.
    Each CV adds the squared deviations member by member in the order of
    idx's columns, as the scalar code does.
    """
    idx = np.asarray(idx)
    t = idx.shape[1]
    if not 1 <= t <= TEAM_SIZE:
        raise ValueError(f"team size must be 1..{TEAM_SIZE}, got {t}")
    members = table[idx.T]  # [t, m, METRIC_COUNT]: member k of every team is members[k]
    codes = members[:, :, :4]
    first, second = _MEMBER_PAIRS[t]
    equal_pairs = t + 2 * (codes[first] == codes[second]).sum(axis=0)
    values = members[:, :, 4:]  # age and skills, [t, m, 7]
    mean = values.sum(axis=0) / t
    squares = (values - mean) ** 2
    sum_squares = squares[0]
    for k in range(1, t):
        sum_squares = sum_squares + squares[k]
    return _score_from_stats(equal_pairs.T, mean.T, sum_squares.T, t)


def _score_from_stats(
    equal_pairs: np.ndarray, mean: np.ndarray, sum_squares: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """(surface[m], deep[m]) of m teams of t members from their statistics,
    one row per attribute column: the equal-code member pairs equal_pairs[4, m]
    that score_teams counts, and the mean mean[7, m] and the sum of squared
    deviations from it sum_squares[7, m] of age and each skill.

    The float tail of score_teams; the GA scores its exact integer team sums
    through it too, so both take the same rounding steps.
    """
    blaus = (1.0 - equal_pairs / (t * t)) / _BLAU_MAX
    cvs = np.sqrt(sum_squares / t) / mean
    normalized = cvs / (cvs + 1.0)  # normalize_cv
    surface = blaus[0] + blaus[1] + blaus[2] + blaus[3] + normalized[0]
    deep = normalized[1]
    for k in range(2, 1 + NUM_SKILLS):
        deep = deep + normalized[k]
    return surface, deep / NUM_SKILLS


def team_diversity_profile(team: Team, lookup: Mapping[str, Participant]) -> DiversityProfile:
    """DiversityProfile of a team, resolving members through lookup."""
    members = []
    for mid in team.sorted_ids():
        if mid not in lookup:
            raise ValueError(f"unknown member id {mid!r}")
        members.append(lookup[mid])
    return profile_for_members(members)


def population_lookup(participants: Sequence[Participant]) -> dict[str, Participant]:
    """Id -> participant map; rejects duplicate ids."""
    lookup: dict[str, Participant] = {}
    for p in participants:
        if p.id in lookup:
            raise ValueError(f"duplicate participant id {p.id!r}")
        lookup[p.id] = p
    return lookup


def write_csv(path, rows: Sequence[dict], columns: Sequence[str]) -> None:
    """Write rows, dicts keyed by columns, as a CSV file with LF line ends,
    each field as str gives it, except None, which is written as an empty
    field; csv.writer quotes a field that holds a comma, a quote or a line
    break, so that read_table reads every field back."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # csv.writer quotes a field holding \r only if \r is in its line
        # terminator: each row is written with its default \r\n, cut to \n.
        writer = csv.writer(SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n")))
        writer.writerow(columns)
        # csv.writer turns each field into text itself, in C.
        fields = itemgetter(*columns) if len(columns) > 1 else lambda row: (row[columns[0]],)
        writer.writerows(map(fields, rows))


def read_table(
    path,
    columns: Sequence[str],
    parse: Mapping[str, Callable[[str], object]] | None = None,
    build: Callable[[dict], object] | None = None,
) -> list:
    """The rows of the CSV file at path as dicts keyed by its header: text,
    except the columns that parse maps to a converter; with build, build of
    each such dict. Refuses a header without one of columns, a row whose
    field count is not the header's, a value its converter refuses and a row
    that build refuses with a ValueError, naming the file and the line (and
    the column of a refused value)."""
    converters = (parse or {}).items()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}, line 1: missing column {', '.join(map(repr, missing))}")
        rows = []
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(fields)} fields, the header has {len(header)}")
            row = dict(zip(header, fields))
            for name, convert in converters:
                try:
                    row[name] = convert(row[name])
                except ValueError as exc:
                    raise ValueError(f"{path}, line {reader.line_num}, column {name!r}: {exc}") from None
            if build is not None:
                try:
                    row = build(row)
                except ValueError as exc:
                    raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            rows.append(row)
    return rows


def write_json_lines(path, records: Iterable) -> None:
    """Write each record as one line of JSON with sorted keys: the line
    format of every JSON-lines file."""
    # Every record is a fresh tree, so no cycle check is needed.
    encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode(record) + "\n" for record in records)


def read_json_lines(path, parse: Callable[[object], object]) -> list:
    """parse of each line of the JSON-lines file at path; blank lines are
    skipped. A line that is not JSON, or that parse refuses with a KeyError
    (a missing field), TypeError or ValueError, is refused with the file and
    the line: as a ValueError, or as the refusal's own ValueError subclass."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(parse(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {number}: not JSON: {exc.msg} at column {exc.colno}") from None
            except KeyError as exc:
                raise ValueError(f"{path}, line {number}: missing field {exc}") from None
            except (TypeError, ValueError) as exc:
                # A ValueError subclass, such as a rule refusal, keeps its class.
                refusal = type(exc) if isinstance(exc, ValueError) else ValueError
                raise refusal(f"{path}, line {number}: {exc}") from None
    return records
