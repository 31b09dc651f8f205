"""Synthetic population generation and population file I/O.

Default demographic weights reproduce the reference population profile
this simulator targets: 124/252/10 male/female/non-binary, six race
categories led by White (194) and Asian (123), 35 Hispanic and 72
international out of 386. Ages default to uniform 18-65 and the six
skills to independent uniform 1-5.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    AGE_MAX,
    AGE_MIN,
    GENDERS,
    NUM_SKILLS,
    RACES,
    SKILL_NAMES,
    Participant,
    _is_int,
    read_json_lines,
    read_table,
    write_csv,
    write_json_lines,
)

# The columns of a .csv population file, in file order.
POPULATION_COLUMNS = ("id", "gender", "race", "hispanic", "international", "age", *SKILL_NAMES)


@dataclass(frozen=True)
class DemographicSpec:
    gender_weights: tuple[float, ...] = (124, 252, 10)
    race_weights: tuple[float, ...] = (194, 123, 41, 1, 20, 7)
    hispanic_rate: float = 35 / 386
    international_rate: float = 72 / 386
    age_min: int = 18
    age_max: int = 65
    skill_min: int = 1
    skill_max: int = 5

    def __post_init__(self) -> None:
        if len(self.gender_weights) != len(GENDERS):
            raise ValueError(f"need {len(GENDERS)} gender weights")
        if len(self.race_weights) != len(RACES):
            raise ValueError(f"need {len(RACES)} race weights")
        for weights in (self.gender_weights, self.race_weights):
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                raise ValueError("category weights must be non-negative with positive sum")
        for rate in (self.hispanic_rate, self.international_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must be in [0, 1]")
        if not (_is_int(self.age_min) and _is_int(self.age_max) and AGE_MIN <= self.age_min <= self.age_max <= AGE_MAX):
            raise ValueError(f"invalid age range: need integers {AGE_MIN} <= age_min <= age_max <= {AGE_MAX}")
        if not (_is_int(self.skill_min) and _is_int(self.skill_max) and 1 <= self.skill_min <= self.skill_max <= 5):
            raise ValueError("invalid skill range: need integers 1 <= skill_min <= skill_max <= 5")

    def gender_probs(self) -> np.ndarray:
        w = np.asarray(self.gender_weights, dtype=float)
        return w / w.sum()

    def race_probs(self) -> np.ndarray:
        w = np.asarray(self.race_weights, dtype=float)
        return w / w.sum()


DEFAULT_DEMOGRAPHICS = DemographicSpec()


def synth_population(
    n: int,
    spec: DemographicSpec = DEFAULT_DEMOGRAPHICS,
    *,
    rng: np.random.Generator,
    id_prefix: str = "p",
) -> list[Participant]:
    """Draw n participants with independent attributes; deterministic per rng."""
    if n < 1:
        raise ValueError("n must be >= 1")
    width = max(4, len(str(n)))
    genders = rng.choice(len(GENDERS), size=n, p=spec.gender_probs())
    races = rng.choice(len(RACES), size=n, p=spec.race_probs())
    hispanic = rng.random(n) < spec.hispanic_rate
    international = rng.random(n) < spec.international_rate
    ages = rng.integers(spec.age_min, spec.age_max + 1, size=n)
    skills = rng.integers(spec.skill_min, spec.skill_max + 1, size=(n, NUM_SKILLS))
    return [
        Participant(
            id=f"{id_prefix}{i + 1:0{width}d}",
            gender=GENDERS[genders[i]],
            race=RACES[races[i]],
            hispanic=bool(hispanic[i]),
            international=bool(international[i]),
            age=int(ages[i]),
            skills=tuple(int(s) for s in skills[i]),
        )
        for i in range(n)
    ]


def save_population(path, participants: Sequence[Participant]) -> None:
    """Write a population file; .jsonl/.ndjson for line-delimited JSON,
    .csv for the columnar format."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        write_json_lines(path, (p.to_dict() for p in participants))
    elif suffix == ".csv":
        rows = [
            {
                **p.to_dict(),
                "hispanic": str(p.hispanic).lower(),
                "international": str(p.international).lower(),
                **dict(zip(SKILL_NAMES, p.skills)),
            }
            for p in participants
        ]
        write_csv(path, rows, POPULATION_COLUMNS)
    else:
        raise ValueError(f"unsupported population format {suffix!r} (use .jsonl or .csv)")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"cannot parse boolean {text!r}")


def _participant_from_row(row: dict) -> Participant:
    return Participant.from_dict({**row, "skills": [row[name] for name in SKILL_NAMES]})


def load_population(path) -> list[Participant]:
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        participants = read_json_lines(path, Participant.from_dict)
    elif suffix == ".csv":
        parse = {"hispanic": _parse_bool, "international": _parse_bool, "age": int, **dict.fromkeys(SKILL_NAMES, int)}
        participants = read_table(path, POPULATION_COLUMNS, parse, _participant_from_row)
    else:
        raise ValueError(f"unsupported population format {suffix!r} (use .jsonl or .csv)")
    ids = [p.id for p in participants]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate participant ids in {path}")
    return participants
