from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from teamsim.core import AGE_MAX, GENDERS, RACES
from teamsim.population import (
    DEFAULT_DEMOGRAPHICS,
    DemographicSpec,
    load_population,
    save_population,
    synth_population,
)


class TestSpecValidation:
    def test_default_weights_match_sample_counts(self):
        spec = DEFAULT_DEMOGRAPHICS
        assert sum(spec.gender_weights) == 386
        assert sum(spec.race_weights) == 386
        assert spec.gender_probs().sum() == pytest.approx(1.0, abs=1e-12)
        assert spec.race_probs().sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            DemographicSpec(gender_weights=(1, 2))
        with pytest.raises(ValueError):
            DemographicSpec(race_weights=(0, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            DemographicSpec(hispanic_rate=1.5)
        with pytest.raises(ValueError):
            DemographicSpec(age_min=17)

    def test_age_max_bounded(self):
        assert DemographicSpec(age_max=AGE_MAX).age_max == AGE_MAX
        with pytest.raises(ValueError, match="age"):
            DemographicSpec(age_max=AGE_MAX + 1)


def _write_with_first_age(path, age) -> None:
    """Save a population file whose first participant has the given age."""
    save_population(path, synth_population(8, rng=np.random.default_rng(4)))
    lines = path.read_text().splitlines()
    if path.suffix == ".jsonl":
        lines[0] = json.dumps({**json.loads(lines[0]), "age": age})
    else:
        header, first = lines[0].split(","), lines[1].split(",")
        first[header.index("age")] = str(age)
        lines[1] = ",".join(first)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_population_file_age_above_max_refused(tmp_path, suffix):
    path = tmp_path / f"pop{suffix}"
    _write_with_first_age(path, AGE_MAX)
    assert load_population(path)[0].age == AGE_MAX
    _write_with_first_age(path, AGE_MAX + 1)
    with pytest.raises(ValueError, match="age"):
        load_population(path)


class TestSynthPopulation:
    def test_female_share_at_scale(self):
        pop = synth_population(10000, rng=np.random.default_rng(123))
        share = sum(1 for p in pop if p.gender == "Female") / len(pop)
        assert share == pytest.approx(252 / 386, abs=0.01)

    def test_single_category_spec_is_homogeneous(self):
        spec = DemographicSpec(
            gender_weights=(0, 1, 0),
            race_weights=(0, 1, 0, 0, 0, 0),
            hispanic_rate=0.0,
            international_rate=0.0,
            age_min=30,
            age_max=30,
            skill_min=2,
            skill_max=2,
        )
        pop = synth_population(20, spec, rng=np.random.default_rng(1))
        assert all(p.gender == "Female" and p.race == "Asian" for p in pop)
        assert all(p.age == 30 and p.skills == (2,) * 6 for p in pop)

    def test_deterministic_per_seed(self):
        a = synth_population(50, rng=np.random.default_rng(5))
        b = synth_population(50, rng=np.random.default_rng(5))
        assert a == b

    def test_ids_unique_and_attributes_valid(self):
        pop = synth_population(200, rng=np.random.default_rng(6))
        assert len({p.id for p in pop}) == 200
        assert all(p.gender in GENDERS and p.race in RACES for p in pop)
        assert all(18 <= p.age <= 65 for p in pop)

    def test_n_floor(self):
        with pytest.raises(ValueError):
            synth_population(0, rng=np.random.default_rng(0))


class TestPopulationFiles:
    def test_jsonl_round_trip_byte_identical(self, tmp_path):
        pop = synth_population(30, rng=np.random.default_rng(9))
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_population(p1, pop)
        save_population(p2, synth_population(30, rng=np.random.default_rng(9)))
        assert p1.read_bytes() == p2.read_bytes()
        assert load_population(p1) == pop

    def test_csv_round_trip(self, tmp_path):
        pop = synth_population(15, rng=np.random.default_rng(10))
        path = tmp_path / "pop.csv"
        save_population(path, pop)
        assert load_population(path) == pop
        assert b"\r" not in path.read_bytes()  # LF line ends

    def test_csv_round_trip_of_ids_that_need_quoting(self, tmp_path):
        ids = ["a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "plain"]
        pop = [
            dataclasses.replace(p, id=new_id)
            for p, new_id in zip(synth_population(len(ids), rng=np.random.default_rng(13)), ids)
        ]
        path = tmp_path / "pop.csv"
        save_population(path, pop)
        assert load_population(path) == pop
        assert path.read_bytes().count(b'"') == 2 + 6 + 2 + 2

    def test_unsupported_format_rejected(self, tmp_path):
        pop = synth_population(8, rng=np.random.default_rng(11))
        with pytest.raises(ValueError, match="unsupported"):
            save_population(tmp_path / "pop.xlsx", pop)

    def test_duplicate_ids_rejected_on_load(self, tmp_path):
        pop = synth_population(8, rng=np.random.default_rng(12))
        path = tmp_path / "pop.jsonl"
        save_population(path, pop + [pop[0]])
        with pytest.raises(ValueError, match="duplicate"):
            load_population(path)
