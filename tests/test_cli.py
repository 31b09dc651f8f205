from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from teamsim.cli import build_parser, main
from teamsim.core import AGE_MAX, read_table, write_json_lines
from teamsim.experiment import REPORT_METRICS, TABLE_COLUMNS
from teamsim.protocol import LOG_SCHEMA

from test_protocol import _query, _row


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def pop_file(tmp_path):
    path = tmp_path / "pop.jsonl"
    assert main(["synth", "--n", "16", "--seed", "3", "--out", str(path)]) == 0
    return path


class TestSynth:
    def test_writes_population(self, tmp_path, capsys):
        out = tmp_path / "people.csv"
        code, stdout, _ = _run(capsys, "synth", "--n", "12", "--seed", "1", "--out", str(out))
        assert code == 0
        assert "12 participants" in stdout
        assert out.exists()

    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _run(capsys, "synth", "--n", "20", "--seed", "7", "--out", str(a))
        _run(capsys, "synth", "--n", "20", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestAssign:
    def test_random_mode(self, pop_file, capsys):
        code, stdout, _ = _run(
            capsys, "assign", "--population", str(pop_file), "--mode", "random", "--seed", "5"
        )
        assert code == 0
        payload = json.loads(stdout.splitlines()[-1])
        assert len(payload["teams"]) == 4
        assert payload["solos"] == []
        assert 0 <= payload["surface_objective"] <= 5

    def test_ga_mode(self, pop_file, capsys):
        code, stdout, _ = _run(
            capsys,
            "assign", "--population", str(pop_file), "--mode", "ga", "--seed", "2",
            "--generations", "4", "--ga-population", "8",
        )
        assert code == 0
        payload = json.loads(stdout.splitlines()[-1])
        assert len(payload["teams"]) == 4

    def test_oracle_mode_small(self, tmp_path, capsys):
        pop = tmp_path / "small.jsonl"
        main(["synth", "--n", "8", "--seed", "4", "--out", str(pop)])
        capsys.readouterr()
        code, stdout, _ = _run(capsys, "assign", "--population", str(pop), "--mode", "oracle")
        assert code == 0
        first, second = stdout.splitlines()
        assert json.loads(first)["partitions_enumerated"] == 35
        assert len(json.loads(second)["teams"]) == 2

    @pytest.mark.parametrize("mode", ["random", "ga", "oracle"])
    def test_duplicate_ids_are_input_error(self, tmp_path, capsys, mode):
        pop = tmp_path / "dup.jsonl"
        main(["synth", "--n", "8", "--seed", "4", "--out", str(pop)])
        capsys.readouterr()
        lines = pop.read_text().splitlines()
        lines[1] = lines[1].replace('"p0002"', '"p0001"')
        pop.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = _run(capsys, "assign", "--population", str(pop), "--mode", mode)
        assert code == 3
        assert stdout == ""
        (line,) = stderr.splitlines()
        assert json.loads(line)["error"] == "input"

    def test_age_above_max_is_input_error(self, tmp_path, capsys):
        pop = tmp_path / "old.jsonl"
        main(["synth", "--n", "8", "--seed", "4", "--out", str(pop)])
        capsys.readouterr()
        lines = pop.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "age": AGE_MAX + 1})
        pop.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = _run(capsys, "assign", "--population", str(pop), "--mode", "ga")
        assert code == 3
        assert stdout == ""
        (line,) = stderr.splitlines()
        error = json.loads(line)
        assert error["error"] == "input"
        assert "age" in error["message"]

    def test_missing_population_file(self, tmp_path, capsys):
        code, _, stderr = _run(
            capsys, "assign", "--population", str(tmp_path / "nope.jsonl"), "--mode", "random"
        )
        assert code == 3
        assert json.loads(stderr)["error"] == "io"


class TestRecommend:
    def test_ranked_output(self, pop_file, capsys):
        code, stdout, _ = _run(
            capsys,
            "recommend", "--population", str(pop_file), "--searcher", "p0001",
            "--criterion", "same_gender=2", "--criterion", "skill:visual_design=3",
            "--mode", "fairness",
        )
        assert code == 0
        lines = [json.loads(line) for line in stdout.splitlines()]
        assert lines
        assert [r["rank"] for r in lines] == list(range(1, len(lines) + 1))
        assert all(set(r) >= {"candidate", "fit", "diversity", "combined"} for r in lines)

    def test_invalid_criterion_is_input_error(self, pop_file, capsys):
        code, _, stderr = _run(
            capsys,
            "recommend", "--population", str(pop_file), "--searcher", "p0001",
            "--criterion", "same_gender",
        )
        assert code == 3
        assert json.loads(stderr)["error"] == "input"

    def test_duplicate_team_ids_are_input_error(self, pop_file, capsys):
        code, stdout, stderr = _run(
            capsys,
            "recommend", "--population", str(pop_file), "--searcher", "p0001",
            "--team", "p0002,p0002", "--criterion", "same_gender=2", "--criterion", "same_race=1",
        )
        assert code == 3
        assert stdout == ""
        (line,) = stderr.splitlines()
        assert "duplicate" in json.loads(line)["message"]

    @pytest.mark.parametrize("people", [("--searcher", "p0001", "--team", "zz9"), ("--searcher", "zz9")])
    def test_unknown_member_is_named(self, pop_file, capsys, people):
        code, stdout, stderr = _run(
            capsys,
            "recommend", "--population", str(pop_file), *people,
            "--criterion", "same_gender=2", "--criterion", "same_race=1",
        )
        assert code == 3
        assert stdout == ""
        assert json.loads(stderr) == {"error": "input", "message": "unknown member id 'zz9'"}

    def test_single_criterion_query_rejected(self, pop_file, capsys):
        code, _, stderr = _run(
            capsys,
            "recommend", "--population", str(pop_file), "--searcher", "p0001",
            "--criterion", "same_gender=2",
        )
        assert code == 3
        assert "two criteria" in json.loads(stderr)["message"]


@pytest.mark.parametrize(
    "ga, field", [({"generations": 2.5}, "generations"), ({"population_size": 0}, "population_size")]
)
def test_run_config_with_invalid_ga_value_is_input_error(tmp_path, capsys, ga, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ga": ga, "conditions": ["algorithmic_diverse"]}))
    code, stdout, stderr = _run(capsys, "run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert code == 3
    assert stdout == ""
    (line,) = stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "input"
    assert field in error["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, value",
    [("workers", 0), ("seed", -3), ("rounds", -1), ("sessions_per_condition", 1.5),
     ("agents_per_session", 8.0)],
)
def test_run_config_with_invalid_size_is_input_error(tmp_path, capsys, key, value):
    # a random-only run of one small session, so a missing check finishes quickly
    config = tmp_path / "config.json"
    sizes = {"sessions_per_condition": 1, "agents_per_session": 8, key: value}
    config.write_text(json.dumps({"conditions": ["random"], **sizes}))
    code, stdout, stderr = _run(capsys, "run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert code == 3
    assert stdout == ""
    (line,) = stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "input"
    assert key in error["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "policy, field",
    [
        ({"criteria_counts": [2.5]}, "criteria_counts"),
        ({"importance_choices": [1.5, 2]}, "importance_choices"),
        # Counts no query can fill, and no importance to draw: such runs used
        # to hang or fail at the first query.
        ({"criteria_counts": [5], "skill_criterion_prob": 0.0}, "criteria_counts"),
        ({"criteria_counts": [7], "skill_criterion_prob": 1.0}, "criteria_counts"),
        ({"criteria_counts": [2, 11]}, "criteria_counts"),
        ({"importance_choices": []}, "importance_choices"),
    ],
)
def test_run_config_with_non_integer_policy_is_input_error(tmp_path, capsys, policy, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"policy": policy, "conditions": ["self_assembled"]}))
    code, stdout, stderr = _run(capsys, "run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert (code, stdout) == (3, "")
    (line,) = stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "input"
    assert field in error["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [("assign", "--population", "pop.jsonl", "--team-size", "4"),
     ("recommend", "--population", "pop.jsonl", "--searcher", "p0001", "--criterion", "same_gender=2",
      "--criterion", "similar_age=1", "--page-size", "10")],
    ids=["team_size", "page_size"],
)
def test_removed_size_flags_are_usage_errors(argv):
    # Teams are always four and pages ten: the flags are gone.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(
        [
            "run",
            "--out", str(out),
            "--seed", "11",
            "--sessions", "2",
            "--agents", "16",
            "--conditions", "random,fairness_aware",
        ]
    )
    assert code == 0
    return out


def test_run_config_with_unknown_key_is_input_error(tmp_path, capsys):
    # a schema section, a team or page size, or a GA seed, as in configs copied
    # from older manifests, is an unknown key
    for data, key in (
        ({"ga": {"restartz": 2}}, "ga.restartz"),
        ({"schema": {"gender_k": 3}}, "schema"),
        ({"team_size": 4}, "team_size"),
        ({"page_size": 10}, "page_size"),
        ({"ga": {"rng_seed": 0}}, "ga.rng_seed"),
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        code, stdout, stderr = _run(capsys, "run", "--config", str(config), "--out", str(tmp_path / "o"))
        assert code == 3
        assert stdout == ""
        (line,) = stderr.splitlines()
        error = json.loads(line)
        assert error["error"] == "input"
        assert key in error["message"]
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"conditions": 5}',
        "[1, 2]",
        '{"policy": {"criteria_counts": 3}}',
        '{"policy": {"accept_probability": "0.5"}}',
        '{"demographics": {"hispanic_rate": "0.1"}}',
        '{"demographics": {"gender_weights": [1, "a", 2]}}',
        '{"demographics": {"age_min": 18.5}}',
        '{"demographics": {"skill_min": 2.5}}',
        '{"choice_params": {"intercept": "x"}}',
        '{"choice_params": {"random_intercept_variance": NaN}}',
        '{"policy": {"accept_probability": false}}',
        '{"demographics": {"gender_weights": [1, Infinity, 2]}}',
    ],
)
def test_run_config_with_malformed_value_is_input_error(tmp_path, capsys, text):
    # each used to exit 1 with a traceback, or to run with the bad value
    config = tmp_path / "config.json"
    config.write_text(text)
    code, stdout, stderr = _run(capsys, "run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert (code, stdout) == (3, "")
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"] == "input"
    assert not (tmp_path / "o").exists()


def test_run_config_with_non_mapping_section_is_input_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ga": 5, "conditions": ["algorithmic_diverse"]}))
    code, stdout, stderr = _run(capsys, "run", "--config", str(config), "--out", str(tmp_path / "o"))
    assert code == 3
    assert stdout == ""
    (line,) = stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "input"
    assert "'ga'" in error["message"]
    assert not (tmp_path / "o").exists()


class TestRunAnalyzeAuditReplay:
    def test_run_outputs(self, run_dir):
        for name in ("team_metrics.csv", "condition_summary.csv", "manifest.jsonl", "report.txt"):
            assert (run_dir / name).exists()
        assert list((run_dir / "events").glob("fairness_aware_*.jsonl"))

    def test_analyze(self, run_dir, capsys, tmp_path):
        code, stdout, _ = _run(
            capsys,
            "analyze", "--teams", str(run_dir / "team_metrics.csv"),
            "--out", str(tmp_path / "tables"),
        )
        assert code == 0
        assert "surface_score" in stdout
        assert "random vs" in stdout or "fairness_aware vs" in stdout
        assert (tmp_path / "tables" / "anova.csv").exists()
        assert (tmp_path / "tables" / "pairwise.csv").exists()

    def test_analyze_reproduces_run_tables(self, run_dir, capsys, tmp_path):
        code, _, _ = _run(
            capsys,
            "analyze", "--teams", str(run_dir / "team_metrics.csv"),
            "--seed", "11", "--out", str(tmp_path / "tables"),
        )
        assert code == 0
        for name in ("anova.csv", "pairwise.csv"):
            assert (tmp_path / "tables" / name).read_bytes() == (run_dir / name).read_bytes()

    def test_analyze_writes_condition_labels_that_need_quoting(self, run_dir, capsys, tmp_path):
        def relabel(lines):
            first = lines[1].split(",")[0]
            for i, line in enumerate(lines[1:], 1):
                condition, rest = line.split(",", 1)
                lines[i] = ('"a,b"' if condition == first else "c") + "," + rest

        teams = _edited_copy(run_dir / "team_metrics.csv", tmp_path / "teams.csv", relabel)
        code, _, _ = _run(capsys, "analyze", "--teams", str(teams), "--out", str(tmp_path / "out"))
        assert code == 0
        pairwise = read_table(tmp_path / "out" / "pairwise.csv", TABLE_COLUMNS["pairwise.csv"])
        assert {(row["group_a"], row["group_b"]) for row in pairwise} == {("a,b", "c")}
        assert len(pairwise) == len(REPORT_METRICS)

    def test_analyze_refuses_one_condition(self, tmp_path, capsys):
        run = tmp_path / "r"
        assert main(["run", "--conditions", "random", "--sessions", "1", "--agents", "8", "--out", str(run)]) == 0
        capsys.readouterr()
        code, stdout, stderr = _run(
            capsys, "analyze", "--teams", str(run / "team_metrics.csv"), "--out", str(tmp_path / "t")
        )
        assert (code, stdout) == (3, "")
        assert "at least two conditions" in _one_error_line(stderr)["message"]
        assert not (tmp_path / "t").exists()

    def test_analyze_refuses_one_team_per_condition(self, run_dir, capsys, tmp_path):
        lines = (run_dir / "team_metrics.csv").read_text(encoding="utf-8").splitlines()
        header, rows = lines[0], lines[1:]
        condition = header.split(",").index("condition")
        firsts = {row.split(",")[condition]: row for row in reversed(rows)}
        assert len(firsts) == 2
        teams = tmp_path / "teams.csv"
        teams.write_text("\n".join([header, *firsts.values()]) + "\n", encoding="utf-8")
        code, stdout, stderr = _run(capsys, "analyze", "--teams", str(teams))
        assert (code, stdout) == (3, "")
        assert "within-group degrees of freedom" in _one_error_line(stderr)["message"]

    @pytest.mark.parametrize("rank", [True, 1.0])  # both == 1, so equality alone let them replay
    def test_replay_refuses_edited_rank(self, run_dir, tmp_path, capsys, rank):
        log = sorted((run_dir / "events").glob("fairness_aware_*.jsonl"))[0]
        lines = log.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if '"recommendations_shown"' in line)
        event = json.loads(lines[index])
        assert event["payload"]["shown"][0]["rank"] == 1
        event["payload"]["shown"][0]["rank"] = rank
        lines[index] = json.dumps(event)
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, stderr = _run(capsys, "replay", "--events", str(edited))
        assert (code, stdout) == (3, "")
        assert f"shown ranks must run 1..k in order, got {rank!r} at 1" in _one_error_line(stderr)["message"]

    def test_audit(self, run_dir, capsys):
        code, stdout, _ = _run(capsys, "audit", "--exposures", str(run_dir))
        # small runs may refuse for thin data; accept either on tiny fixture
        if code == 0:
            assert "interaction" in stdout or "dropped" in stdout
        else:
            assert code == 3

    def test_audit_compares_against_the_runs_own_coefficients(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "conditions": ["self_assembled", "fairness_aware"],
            "sessions_per_condition": 1,
            "agents_per_session": 16,
            "choice_params": {"rank": -0.5, "interaction": 0.0},
        }))
        out = tmp_path / "run"
        assert main(["run", "--config", str(config), "--out", str(out), "--seed", "3"]) == 0
        for exposures in (out, out / "exposures.csv"):
            code, stdout, _ = _run(capsys, "audit", "--exposures", str(exposures))
            assert code == 0
            generating = dict(re.findall(r"^  (\w+) +generating=(\S+)", stdout, re.M))
            assert generating == {
                "intercept": "-3.170", "rank": "-0.500", "same_gender": "+0.260",
                "diversity": "-0.110", "treatment": "-0.330", "interaction": "+0.000",
            }

    def test_replay(self, run_dir, capsys):
        log = sorted((run_dir / "events").glob("*.jsonl"))[0]
        code, stdout, _ = _run(capsys, "replay", "--events", str(log))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["invariants"] == "ok"
        assert payload["members"] == 16

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


def _edited_copy(source, target, edit):
    """target holding source's lines, edited in place by edit(lines)."""
    lines = source.read_text(encoding="utf-8").splitlines()
    edit(lines)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


def _drop_column(name):
    def edit(lines):
        at = lines[0].split(",").index(name)
        lines[:] = [",".join(f for i, f in enumerate(line.split(",")) if i != at) for line in lines]

    return edit


def _set_field(line_index, name, value):
    def edit(lines):
        fields = lines[line_index].split(",")
        fields[lines[0].split(",").index(name)] = value
        lines[line_index] = ",".join(fields)

    return edit


def _set_line(line_index, text):
    def edit(lines):
        lines[line_index] = text

    return edit


class TestRefusalsNameFileAndLine:
    """Each malformed file exits 3 with a message naming the file and the line."""

    @staticmethod
    def _refusal(capsys, *argv):
        code, stdout, stderr = _run(capsys, *argv)
        assert (code, stdout) == (3, "")
        return _one_error_line(stderr)["message"]

    def test_analyze_table_without_a_metric(self, run_dir, tmp_path, capsys):
        teams = _edited_copy(run_dir / "team_metrics.csv", tmp_path / "teams.csv", _drop_column("total_score"))
        message = self._refusal(capsys, "analyze", "--teams", str(teams))
        assert "teams.csv, line 1: missing column 'total_score'" in message

    def test_analyze_metric_that_is_not_a_number(self, run_dir, tmp_path, capsys):
        teams = _edited_copy(run_dir / "team_metrics.csv", tmp_path / "teams.csv", _set_field(3, "deep_score", "abc"))
        message = self._refusal(capsys, "analyze", "--teams", str(teams))
        assert "teams.csv, line 4, column 'deep_score': could not convert string to float: 'abc'" in message

    def test_analyze_row_with_an_extra_field(self, run_dir, tmp_path, capsys):
        def edit(lines):
            lines[2] += ",x"

        teams = _edited_copy(run_dir / "team_metrics.csv", tmp_path / "teams.csv", edit)
        message = self._refusal(capsys, "analyze", "--teams", str(teams))
        assert "teams.csv, line 3: 13 fields, the header has 12" in message

    def test_audit_exposures_without_rank_z(self, run_dir, tmp_path, capsys):
        exposures = _edited_copy(run_dir / "exposures.csv", tmp_path / "exposures.csv", _drop_column("rank_z"))
        message = self._refusal(capsys, "audit", "--exposures", str(exposures))
        assert "exposures.csv, line 1: missing column 'rank_z'" in message

    def test_audit_input_that_is_not_a_number(self, run_dir, tmp_path, capsys):
        exposures = _edited_copy(run_dir / "exposures.csv", tmp_path / "exposures.csv", _set_field(5, "selected", "yes"))
        message = self._refusal(capsys, "audit", "--exposures", str(exposures))
        assert "exposures.csv, line 6, column 'selected'" in message

    @pytest.mark.parametrize(
        "line, expected",
        [('{"kind": "config"}', "line 2: missing field 'config'"), ("{kind: config", "line 2: not JSON")],
        ids=["config_record_without_config", "not_json"],
    )
    def test_audit_manifest(self, run_dir, tmp_path, capsys, line, expected):
        (tmp_path / "exposures.csv").write_bytes((run_dir / "exposures.csv").read_bytes())
        _edited_copy(run_dir / "manifest.jsonl", tmp_path / "manifest.jsonl", _set_line(1, line))
        message = self._refusal(capsys, "audit", "--exposures", str(tmp_path))
        assert f"manifest.jsonl, {expected}" in message

    def test_replay_log_line_that_is_not_json(self, run_dir, tmp_path, capsys):
        source = sorted((run_dir / "events").glob("fairness_aware_*.jsonl"))[0]
        log = _edited_copy(source, tmp_path / "log.jsonl", _set_line(3, '{"round": 1,'))
        message = self._refusal(capsys, "replay", "--events", str(log))
        assert "log.jsonl, line 4: not JSON" in message

    def test_population_record_without_gender(self, pop_file, tmp_path, capsys):
        def edit(lines):
            record = json.loads(lines[2])
            del record["gender"]
            lines[2] = json.dumps(record)

        pop = _edited_copy(pop_file, tmp_path / "people.jsonl", edit)
        message = self._refusal(capsys, "assign", "--population", str(pop))
        assert "people.jsonl, line 3: missing field 'gender'" in message

    def test_population_csv_age_that_is_not_an_integer(self, tmp_path, capsys):
        source = tmp_path / "source.csv"
        assert main(["synth", "--n", "8", "--seed", "4", "--out", str(source)]) == 0
        capsys.readouterr()
        pop = _edited_copy(source, tmp_path / "people.csv", _set_field(2, "age", "30.5"))
        message = self._refusal(capsys, "assign", "--population", str(pop))
        assert "people.csv, line 3, column 'age'" in message

    def test_population_csv_row_that_participant_refuses(self, tmp_path, capsys):
        source = tmp_path / "source.csv"
        assert main(["synth", "--n", "8", "--seed", "4", "--out", str(source)]) == 0
        capsys.readouterr()
        pop = _edited_copy(source, tmp_path / "bad.csv", _set_field(2, "gender", "Mal"))
        message = self._refusal(capsys, "assign", "--population", str(pop))
        assert "bad.csv, line 3: unknown gender 'Mal'" in message

    def test_config_that_is_not_json(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"seed": 1,\n}', encoding="utf-8")
        message = self._refusal(capsys, "run", "--config", str(config), "--out", str(tmp_path / "o"))
        assert message.startswith(f"{config}: Expecting property name")
        assert not (tmp_path / "o").exists()


def _sent(n, sender, target, sender_group, recipient_group):
    return ("invitation_sent", {
        "invitation_id": f"inv-{n:05d}", "sender_id": sender, "target_id": target,
        "sender_group": sender_group, "recipient_group": recipient_group,
    })


def _accepted(n, member):
    return ("response_recorded", {
        "invitation_id": f"inv-{n:05d}", "member_id": member, "response": "accepted",
    })


def _merged(n, members):
    return ("groups_merged", {"invitation_id": f"inv-{n:05d}", "members": members})


def _pair(n, a, b):
    return [_sent(n, a, b, [a], [b]), _accepted(n, b), _merged(n, [a, b])]


def _shown(searcher, *rows):
    return ("recommendations_shown", {"searcher_id": searcher, "shown": list(rows)})


def _queried(searcher, query_searcher, criteria):
    return ("query_issued", {"searcher_id": searcher,
                             "query": {"searcher_id": query_searcher, "criteria": criteria}})


_CRITERIA = _query()["criteria"]


_QUAD = [  # a01..a04 become one full team through three valid merges
    *_pair(1, "a01", "a02"),
    *_pair(2, "a03", "a04"),
    _sent(3, "a01", "a03", ["a01", "a02"], ["a03", "a04"]),
    _accepted(3, "a03"),
    _accepted(3, "a04"),
    _merged(3, ["a01", "a02", "a03", "a04"]),
]

# Each log breaks one assembly rule at its last valid-looking step.
_BAD_LOGS = {
    "oversized_merge": (
        [
            *_pair(1, "a00", "a01"),
            _sent(2, "a00", "a02", ["a00", "a01"], ["a02"]),
            _accepted(2, "a02"),
            _merged(2, ["a00", "a01", "a02"]),
            *_pair(3, "a03", "a04"),
            _sent(4, "a00", "a03", ["a00", "a01", "a02"], ["a03", "a04"]),
            _accepted(4, "a03"),
            _accepted(4, "a04"),
            _merged(4, ["a00", "a01", "a02", "a03", "a04"]),
        ],
        "exceed team size",
    ),
    "merge_without_acceptance": (
        [_sent(1, "a00", "a01", ["a00"], ["a01"]), _merged(1, ["a00", "a01"])],
        "without full acceptance",
    ),
    "merge_not_its_groups": (
        [
            _sent(1, "a00", "a01", ["a00"], ["a01"]),
            _accepted(1, "a01"),
            _merged(1, ["a00", "a01", "a02"]),
        ],
        "join its two groups",
    ),
    "stale_snapshot": (
        [*_pair(1, "a00", "a01"), _sent(2, "a00", "a02", ["a00"], ["a02"])],
        "not the live groups",
    ),
    "solo_leaves": (
        [("member_left", {"member_id": "a00", "old_group": ["a00"]})],
        "cannot leave",
    ),
    "leave_with_stale_group": (
        [*_pair(1, "a00", "a01"),
         ("member_left", {"member_id": "a00", "old_group": ["a00", "a01", "a02"]})],
        "is not live",
    ),
    "fill_oversized_team": (
        [("deadline_fill", {"teams": [["a00", "a01", "a02", "a03", "a04"]], "solos": ["a05"]})],
        "exceeds team size",
    ),
    "fill_empty_team": (
        [("deadline_fill", {"teams": [[], ["a00", "a01", "a02", "a03"]], "solos": ["a04", "a05"]})],
        "empty",
    ),
    "fill_drops_members": (
        [("deadline_fill", {"teams": [["a00", "a01", "a02", "a03"]], "solos": ["a04"]})],
        "each member once",
    ),
    "event_after_fill": (  # the fill leaves a04 and a05 solo; they merge afterwards
        [
            ("deadline_fill", {"teams": [["a00", "a01", "a02", "a03"]], "solos": ["a04", "a05"]}),
            *_pair(1, "a04", "a05"),
        ],
        "after the deadline fill",
    ),
    "shows_teammate": (
        [*_pair(1, "a00", "a01"), _shown("a00", _row("a02", 1), _row("a01", 2))],
        "cannot join: already teammates",
    ),
    "shows_non_member": (
        [_shown("a00", _row("zz9", 1))],
        "unknown member",
    ),
    "shows_string_fit": (
        [_shown("a00", _row("a01", 1), _row("a02", 2, fit="x"))],
        "fit of 'a02' is not a finite number",
    ),
    "shows_bool_diversity": (
        [_shown("a00", _row("a01", 1, diversity=False))],
        "diversity of 'a01' is not a finite number",
    ),
    "shows_int_too_large_for_a_float": (
        [_shown("a00", _row("a01", 1, fit=10**400))],
        "fit of 'a01' is not a finite number",
    ),
    "shows_nan_combined": (
        [_shown("a00", _row("a01", 1, combined=float("nan")))],
        "combined of 'a01' is not a finite number",
    ),
    "query_without_criteria": (
        [_queried("a00", "a00", []), _shown("a00", _row("a01", 1))],
        "two criteria",
    ),
    "query_of_another_searcher": (
        [_queried("a00", "a03", _CRITERIA)],
        "not the searcher's",
    ),
    "query_with_string_weight": (
        [_queried("a00", "a00", [{**c, "importance": "2"} for c in _CRITERIA])],
        "importance",
    ),
    "reanchor": (  # a solo joins a full team, then one member leaves again
        [
            *_QUAD,
            _sent(4, "a00", "a01", ["a00"], ["a01", "a02", "a03", "a04"]),
            *(_accepted(4, m) for m in ("a01", "a02", "a03", "a04")),
            _merged(4, ["a00", "a01", "a02", "a03", "a04"]),
            ("member_left", {"member_id": "a04", "old_group": ["a00", "a01", "a02", "a03", "a04"]}),
        ],
        "exceed team size",
    ),
}


def _write_events(path, events, round=1):
    """A log of the events as written, rule-breaking and malformed ones too."""
    header = {"schema": LOG_SCHEMA, "members": [f"a{i:02d}" for i in range(6)]}
    write_json_lines(path, [header, *({"round": round, "kind": kind, "payload": p} for kind, p in events)])
    return path


def _one_error_line(stderr):
    lines = stderr.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestReplayRefusesBadLogs:
    def test_valid_prefix_replays(self, tmp_path, capsys):
        log = _write_events(tmp_path / "ok.jsonl", _QUAD)
        code, stdout, _ = _run(capsys, "replay", "--events", str(log))
        assert code == 0
        assert json.loads(stdout)["groups"][1] == ["a01", "a02", "a03", "a04"]

    def test_valid_query_and_page_replay(self, tmp_path, capsys):
        events = [*_QUAD, _queried("a00", "a00", _CRITERIA), _shown("a00", _row("a05", 1, fit=-3))]
        log = _write_events(tmp_path / "ok.jsonl", events)
        code, stdout, _ = _run(capsys, "replay", "--events", str(log))
        assert code == 0
        assert json.loads(stdout)["events"] == len(events)

    @pytest.mark.parametrize("name", sorted(_BAD_LOGS))
    def test_rule_breaking_log_exits_3(self, tmp_path, capsys, name):
        events, message = _BAD_LOGS[name]
        log = _write_events(tmp_path / f"{name}.jsonl", events)
        code, stdout, stderr = _run(capsys, "replay", "--events", str(log))
        assert code == 3
        assert stdout == ""
        error = _one_error_line(stderr)
        assert error["error"] == "protocol"
        assert message in error["message"]

    @pytest.mark.parametrize(
        "event, round, category",
        [
            (("invitation_sent", {**_sent(1, "a00", "a01", ["a00"], ["a01"])[1],
                                  "invitation_id": "x"}), 1, "protocol"),
            (("member_left", {"member_id": ["a00"], "old_group": ["a00"]}), 1, "protocol"),
            (("query_issued", ["a00"]), 1, "input"),
            (_sent(1, "a00", "a01", ["a00"], ["a01"]), 1.7, "input"),
            (_sent(1, "a00", "a01", ["a00"], ["a01"]), True, "input"),
            (_sent(1, "a00", "a01", ["a00"], ["a01"]), "1", "input"),
        ],
        ids=["invitation_id", "unhashable_member", "list_payload", "float_round", "bool_round", "string_round"],
    )
    def test_malformed_event_exits_3(self, tmp_path, capsys, event, round, category):
        log = _write_events(tmp_path / "bad.jsonl", [event], round=round)
        code, stdout, stderr = _run(capsys, "replay", "--events", str(log))
        assert (code, stdout) == (3, "")
        assert _one_error_line(stderr)["error"] == category


def _readme_commands() -> list[str]:
    """The teamsim commands of the README's CLI block, continuations joined
    and comments stripped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line]


def test_readme_cli_block_parses():
    commands = _readme_commands()
    assert len(commands) >= 8 and all(c.startswith("teamsim ") for c in commands)
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])  # a stale flag exits 2
