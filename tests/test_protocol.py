from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from teamsim.agents import AgentPolicy, ChoiceModelParams
from teamsim.core import TEAM_SIZE
from teamsim.population import synth_population
from teamsim.protocol import (
    AssemblyError,
    AssemblyState,
    Event,
    join_refusal,
    read_log,
    replay,
    write_log,
)
from teamsim.recommender import Criterion, Query, ShownPage
from teamsim.session import run_assembly


def _ids(n: int) -> list[str]:
    return [f"a{i:02d}" for i in range(n)]


def _accept_all(state: AssemblyState, inv_id: str) -> None:
    inv = state.invitations[inv_id]
    for member in list(inv.recipient_group):
        state.respond(inv_id, member, "accepted")
        if state.invitations[inv_id].status != "open":
            break


def _merge(state: AssemblyState, a: str, b: str) -> None:
    _accept_all(state, state.send_invitation(a, b))


class TestCandidates:
    def test_members_the_searchers_group_may_join_in_member_order(self):
        members = ["a05", "a00", "a03", "a01", "a02", "a04", "a06"]
        state = AssemblyState(members)
        assert state.candidates("a00") == ["a05", "a03", "a01", "a02", "a04", "a06"]
        _merge(state, "a00", "a01")  # pair
        _merge(state, "a02", "a03")
        _merge(state, "a02", "a04")  # trio: a pair cannot join it
        assert state.candidates("a00") == ["a05", "a06"]
        assert state.candidates("a03") == ["a05", "a06"]
        assert state.candidates("a05") == ["a00", "a03", "a01", "a02", "a04", "a06"]

    def test_full_group_has_none(self):
        state = AssemblyState(_ids(6))
        _merge(state, "a00", "a01")
        _merge(state, "a02", "a03")
        _merge(state, "a00", "a02")
        assert state.candidates("a03") == []
        assert state.candidates("a04") == ["a05"]

    def test_unknown_searcher_refused(self):
        with pytest.raises(AssemblyError, match="unknown member"):
            AssemblyState(_ids(3)).candidates("zz9")

    def test_eligible_rows_are_the_candidates_positions(self):
        members = ["a05", "a00", "a03", "a01", "a02", "a04", "a06"]
        state = AssemblyState(members)
        _merge(state, "a00", "a01")
        _merge(state, "a02", "a03")
        _merge(state, "a02", "a04")
        assert state.eligible_rows("a00").tolist() == [0, 6]
        assert state.eligible_rows("a05").tolist() == [1, 2, 3, 4, 5, 6]
        assert [members[i] for i in state.eligible_rows("a00")] == state.candidates("a00")

    def test_open_invitations_out_of_sync_fail_invariants(self):
        state = AssemblyState(_ids(4))
        inv_id = state.send_invitation("a00", "a01")
        state.check_invariants()
        state.invitations[inv_id].status = "voided"
        with pytest.raises(AssertionError, match="open invitations"):
            state.check_invariants()

    @pytest.mark.parametrize("array", ["_group_id", "_group_size"])
    def test_group_arrays_out_of_sync_fail_invariants(self, array):
        state = AssemblyState(_ids(4))
        _merge(state, "a00", "a01")
        state.check_invariants()
        getattr(state, array)[2] = 1 - getattr(state, array)[2]
        with pytest.raises(AssertionError, match="group arrays"):
            state.check_invariants()


class TestSendInvitation:
    def test_solo_to_solo_opens(self):
        state = AssemblyState(_ids(4))
        inv_id = state.send_invitation("a00", "a01")
        inv = state.invitations[inv_id]
        assert inv.status == "open"
        assert inv.sender_group == ("a00",)
        assert inv.recipient_group == ("a01",)
        assert inv.responses == {"a01": "pending"}

    def test_overfull_merge_rejected(self):
        state = AssemblyState(_ids(6))
        _merge(state, "a00", "a01")
        _merge(state, "a00", "a02")  # trio
        _merge(state, "a03", "a04")  # pair
        with pytest.raises(AssemblyError, match="exceed team size"):
            state.send_invitation("a00", "a03")

    def test_same_group_rejected(self):
        state = AssemblyState(_ids(3))
        _merge(state, "a00", "a01")
        with pytest.raises(AssemblyError, match="already teammates"):
            state.send_invitation("a00", "a01")

    def test_duplicate_open_invitation_is_idempotent(self):
        state = AssemblyState(_ids(4))
        first = state.send_invitation("a00", "a01")
        again = state.send_invitation("a00", "a01")
        assert first == again
        # reversed direction between the same two groups is also the same pair
        reverse = state.send_invitation("a01", "a00")
        assert reverse == first
        assert len(state.invitations) == 1


class TestRespond:
    def test_single_recipient_accept_merges(self):
        state = AssemblyState(_ids(4))
        inv_id = state.send_invitation("a00", "a01")
        state.respond(inv_id, "a01", "accepted")
        assert state.invitations[inv_id].status == "merged"
        assert state.group_of("a00") == ("a00", "a01")

    def test_one_decline_rejects(self):
        state = AssemblyState(_ids(6))
        _merge(state, "a01", "a02")
        inv_id = state.send_invitation("a00", "a01")
        state.respond(inv_id, "a01", "accepted")
        state.respond(inv_id, "a02", "declined")
        assert state.invitations[inv_id].status == "rejected"
        assert state.group_of("a00") == ("a00",)

    def test_ignore_leaves_invitation_open(self):
        state = AssemblyState(_ids(6))
        _merge(state, "a01", "a02")
        inv_id = state.send_invitation("a00", "a01")
        state.respond(inv_id, "a01", "ignored")
        state.respond(inv_id, "a02", "accepted")
        assert state.invitations[inv_id].status == "open"
        # an ignored member cannot respond twice
        with pytest.raises(AssemblyError, match="pending"):
            state.respond(inv_id, "a01", "accepted")

    def test_non_recipient_rejected(self):
        state = AssemblyState(_ids(4))
        inv_id = state.send_invitation("a00", "a01")
        with pytest.raises(AssemblyError, match="pending"):
            state.respond(inv_id, "a02", "accepted")

    def test_closed_invitation_rejected(self):
        state = AssemblyState(_ids(4))
        inv_id = state.send_invitation("a00", "a01")
        state.respond(inv_id, "a01", "declined")
        with pytest.raises(AssemblyError, match="not open"):
            state.respond(inv_id, "a01", "accepted")

    def test_merge_voids_stale_invitations(self):
        state = AssemblyState(_ids(8))
        _merge(state, "a00", "a01")
        _merge(state, "a00", "a02")  # trio a00-02
        _merge(state, "a04", "a05")  # pair
        pending = state.send_invitation("a04", "a06")  # pair invites solo
        # trio merges with a06's other suitor a03 first? no: merge trio+solo a03
        inv = state.send_invitation("a03", "a00")
        _accept_all(state, inv)  # a03 joins trio -> full team
        # invitation from the pair to a06 is unaffected
        assert state.invitations[pending].status == "open"
        # but invitations touching the changed groups died
        third = state.send_invitation("a06", "a07")
        _accept_all(state, third)
        assert state.invitations[pending].status == "voided"

    def test_merge_to_full_team_voids_its_other_invitations(self):
        state = AssemblyState(_ids(8))
        _merge(state, "a00", "a01")
        _merge(state, "a00", "a02")  # trio
        spare = state.send_invitation("a00", "a04")
        accepted = state.send_invitation("a00", "a03")
        _accept_all(state, accepted)
        assert len(state.group_of("a00")) == 4
        assert state.invitations[spare].status == "voided"
        state.check_invariants()


class TestLeaveGroup:
    def test_leave_splits_group(self):
        state = AssemblyState(_ids(5))
        _merge(state, "a00", "a01")
        _merge(state, "a00", "a02")
        _merge(state, "a00", "a03")
        state.leave_group("a02")
        assert state.group_of("a02") == ("a02",)
        assert state.group_of("a00") == ("a00", "a01", "a03")

    def test_singleton_leave_is_noop(self):
        state = AssemblyState(_ids(2))
        events_before = len(state.event_log)
        state.leave_group("a00")
        assert len(state.event_log) == events_before

    def test_leave_then_reinvite(self):
        state = AssemblyState(_ids(3))
        _merge(state, "a00", "a01")
        state.leave_group("a01")
        inv_id = state.send_invitation("a01", "a00")
        state.respond(inv_id, "a00", "accepted")
        assert state.group_of("a01") == ("a00", "a01")

    def test_leave_voids_open_invitations_of_old_group(self):
        state = AssemblyState(_ids(5))
        _merge(state, "a00", "a01")
        inv_id = state.send_invitation("a00", "a02")
        state.leave_group("a01")
        assert state.invitations[inv_id].status == "voided"
        state.check_invariants()


class TestFinalize:
    def test_identity_when_all_full(self):
        state = AssemblyState(_ids(8))
        for base in (0, 4):
            for off in (1, 2, 3):
                _merge(state, f"a{base:02d}", f"a{base + off:02d}")
        partition = state.finalize(np.random.default_rng(0))
        assert len(partition.teams) == 2
        assert partition.solos == ()
        assert {t.sorted_ids() for t in partition.teams} == {
            ("a00", "a01", "a02", "a03"),
            ("a04", "a05", "a06", "a07"),
        }

    def test_three_plus_one_pack(self):
        state = AssemblyState(_ids(8))
        for off in (1, 2, 3):
            _merge(state, "a00", f"a0{off}")
        for off in (5, 6):
            _merge(state, "a04", f"a0{off}")
        partition = state.finalize(np.random.default_rng(1))
        assert len(partition.teams) == 2
        assert partition.solos == ()
        assert {t.sorted_ids() for t in partition.teams} == {
            ("a00", "a01", "a02", "a03"),
            ("a04", "a05", "a06", "a07"),
        }

    def test_remainder_becomes_solos(self):
        state = AssemblyState(_ids(6))
        partition = state.finalize(np.random.default_rng(2))
        assert len(partition.teams) == 1
        assert len(partition.solos) == 2
        partition.validate(_ids(6))

    def test_expires_open_invitations(self):
        state = AssemblyState(_ids(4))
        inv_id = state.send_invitation("a00", "a01")
        state.finalize(np.random.default_rng(3))
        assert state.invitations[inv_id].status == "expired"
        state.check_invariants()

    def test_never_splits_full_groups(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            state = AssemblyState(_ids(11))
            _merge(state, "a00", "a01")
            _merge(state, "a00", "a02")
            _merge(state, "a00", "a03")
            partition = state.finalize(rng)
            assert ("a00", "a01", "a02", "a03") in {t.sorted_ids() for t in partition.teams}
            partition.validate(_ids(11))


def _row(candidate: str, rank: int, **scores) -> dict:
    """One shown recommendation as agent_step logs it."""
    return {"candidate_id": candidate, "rank": rank, "fit": 2.0, "diversity": 0.5,
            "combined": 1.0, "match_percent": 40.0, **scores}


def _shown(*candidates: str) -> list[dict]:
    return [_row(c, r) for r, c in enumerate(candidates, 1)]


def _page(searcher: str, *candidates: str) -> ShownPage:
    """The page _shown logs: one candidate per rank, every score as _row."""
    k = len(candidates)
    return ShownPage(searcher, candidates, (2.0,) * k, (0.5,) * k, (1.0,) * k, (40.0,) * k)


def _query(searcher: str = "a00") -> dict:
    """A valid query as a query_issued event logs it."""
    return {"searcher_id": searcher, "criteria": [
        {"kind": "same_gender", "skill": None, "importance": 2},
        {"kind": "skill", "skill": 3, "importance": -1},
    ]}


def _typed_query(searcher: str = "a00") -> Query:
    """The Query that _query logs."""
    return Query(searcher, (Criterion("same_gender", 2), Criterion("skill", -1, 3)))


def _parsed(kind: str, payload) -> Event:
    """The event a log line of that kind and payload parses to."""
    return Event.from_dict({"round": 0, "kind": kind, "payload": payload})


class TestDeadlineFillIsLast:
    def test_commands_after_fill_refused(self):
        state = AssemblyState(_ids(6))
        partition = state.finalize(np.random.default_rng(0))
        solos = list(partition.solos)
        before = state.snapshot()
        with pytest.raises(AssemblyError, match="after the deadline fill"):
            state.send_invitation(*solos)
        for command, args in (
            (state.record_query, (_typed_query(),)),
            (state.record_recommendations, (_page(solos[0], solos[1]),)),
            (state.finalize, (np.random.default_rng(1),)),
        ):
            with pytest.raises(AssemblyError, match="after the deadline fill"):
                command(*args)
        assert state.snapshot() == before
        assert state.partition() == partition

    def test_replay_refuses_events_after_fill(self):
        fill = Event(1, "deadline_fill", {"teams": [["a00", "a01", "a02", "a03"]], "solos": ["a04", "a05"]})
        # the two solos would merge if the invitation were accepted
        sent = Event(1, "invitation_sent", {
            "invitation_id": "inv-00001", "sender_id": "a04", "target_id": "a05",
            "sender_group": ["a04"], "recipient_group": ["a05"],
        })
        assert replay(_ids(6), [fill]).partition().solos == ("a04", "a05")
        with pytest.raises(AssemblyError, match="invitation_sent event after the deadline fill"):
            replay(_ids(6), [fill, sent])


class TestRecommendationsShown:
    def _state(self) -> AssemblyState:
        state = AssemblyState(_ids(8))
        _merge(state, "a00", "a01")
        _merge(state, "a02", "a03")
        _merge(state, "a02", "a04")  # a02-a04 is a trio
        return state

    def test_eligible_page_recorded(self):
        state = self._state()
        state.record_recommendations(_page("a00", "a05", "a06", "a07"))
        state.record_recommendations(_page("a05", "a02", "a00"))
        state.record_recommendations(_page("a00"))
        assert [e.kind for e in state.event_log[-3:]] == ["recommendations_shown"] * 3
        assert state.event_log[-3].to_dict()["payload"] == {"searcher_id": "a00", "shown": _shown("a05", "a06", "a07")}

    @pytest.mark.parametrize(
        "searcher, shown, message",
        [
            ("a00", _shown("a05", "a01"), "cannot join: already teammates"),
            ("a00", _shown("zz9"), "unknown member"),
            ("a00", _shown("a02"), "cannot join: merge would exceed team size"),
            ("a00", _shown("a05", "a05"), "repeats"),
            ("a00", [_row("a05", 2)], "1..k"),
            ("a00", [_row("a05", 1), _row("a06", 1)], "1..k"),
            ("zz9", _shown("a05"), "unknown member"),
            ("a00", [_row("a05", 1), _row("a06", 2, fit="x")], "fit of 'a06'"),
            ("a00", [_row("a05", 1, diversity=True)], "diversity of 'a05'"),
            ("a00", [_row("a05", 1, combined=float("nan"))], "combined of 'a05'"),
            ("a00", [_row("a05", 1, match_percent=float("inf"))], "match_percent of 'a05'"),
            ("a00", [_row("a05", 1, fit=None)], "fit of 'a05'"),
        ],
        ids=["teammate", "non_member", "no_room", "repeat", "rank_gap", "rank_tie", "searcher",
             "fit_string", "diversity_bool", "combined_nan", "match_inf", "fit_none"],
    )
    def test_ineligible_page_refused(self, searcher, shown, message):
        # A page that breaks its own rules is refused as it is parsed; one that
        # names candidates the searcher's group may not join, as it is applied.
        state = self._state()
        before = state.snapshot()
        with pytest.raises(AssemblyError, match=message):
            event = _parsed("recommendations_shown", {"searcher_id": searcher, "shown": shown})
            state.record_recommendations(event.payload)
        assert state.snapshot() == before

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"fit": ()}, "each score of each candidate"),
            ({"ids": ("a05", 5, "a07")}, "must be strings"),
            ({"ids": ("a05", "a06", "a05")}, "'a05' repeats"),
            ({"diversity": (0.5, float("nan"), 0.5)}, "diversity of 'a06'"),
            ({"combined": (1.0, 1.0, True)}, "combined of 'a07'"),
            ({"fit": (2, 10**400, 2)}, "fit of 'a06'"),
        ],
        ids=["short_column", "int_id", "repeat", "nan", "bool", "int_too_large_for_a_float"],
    )
    def test_page_checks_itself(self, columns, message):
        page = _page("a00", "a05", "a06", "a07")
        with pytest.raises(ValueError, match=message):
            ShownPage(**{**vars(page), **columns})

    def test_page_of_int_scores_is_accepted(self):
        page = ShownPage("a00", ("a05", "a06"), (2, -3), (1, 0.5), (2, -1.5), (40, 0))
        assert Event.from_dict(Event(0, "recommendations_shown", page).to_dict()).payload == page


class TestQueryIssued:
    def test_valid_query_recorded(self):
        state = AssemblyState(_ids(4))
        state.record_query(_typed_query("a01"))
        assert state.event_log[-1].payload == _typed_query("a01")
        assert state.event_log[-1].to_dict()["payload"] == {"searcher_id": "a01", "query": _query("a01")}

    def test_query_of_unknown_searcher_refused(self):
        state = AssemblyState(_ids(4))
        with pytest.raises(AssemblyError, match="unknown member"):
            state.record_query(_typed_query("zz9"))
        with pytest.raises(AssemblyError, match="unknown member"):
            replay(_ids(4), [Event(0, "query_issued", _typed_query("zz9"))])

    @pytest.mark.parametrize(
        "query, message",
        [
            ({"criteria": []}, "invalid query"),
            ({"searcher_id": "a00", "criteria": []}, "two criteria"),
            ({**_query(), "criteria": _query()["criteria"][:1] * 2}, "duplicate"),
            ({**_query(), "criteria": [{"kind": "psychic", "skill": None, "importance": 1}] * 2},
             "unknown criterion kind"),
            ({**_query(), "criteria": [{**c, "importance": "2"} for c in _query()["criteria"]]},
             "importance"),
            ({**_query(), "criteria": [{**c, "importance": True} for c in _query()["criteria"]]},
             "importance"),
            ([1, 2], "invalid query"),
            (_query("a01"), "not the searcher's"),
        ],
        ids=["no_searcher", "no_criteria", "duplicate", "unknown_kind", "string_weight",
             "bool_weight", "list", "other_searcher"],
    )
    def test_invalid_query_refused(self, query, message):
        # A logged query is a Query of the event's searcher, or it is refused
        # as it is parsed.
        with pytest.raises(AssemblyError, match=message):
            _parsed("query_issued", {"searcher_id": "a00", "query": query})


class TestRoundsAndLog:
    def test_rounds_monotone_in_log(self):
        state = AssemblyState(_ids(4))
        state.advance_round()
        state.send_invitation("a00", "a01")
        state.advance_round()
        state.send_invitation("a02", "a03")
        rounds = [e.round for e in state.event_log]
        assert rounds == sorted(rounds)
        state.check_invariants()

    def test_merged_count_matches_log(self):
        state = AssemblyState(_ids(6))
        _merge(state, "a00", "a01")
        _merge(state, "a02", "a03")
        assert state.merged_count() == 2
        assert sum(1 for e in state.event_log if e.kind == "groups_merged") == 2

    def test_log_round_trip(self, tmp_path):
        state = AssemblyState(_ids(6))
        state.advance_round()
        _merge(state, "a00", "a01")
        state.record_query(_typed_query("a02"))
        state.record_recommendations(_page("a02", "a03", "a04"))
        state.finalize(np.random.default_rng(5))
        path = tmp_path / "events.jsonl"
        write_log(path, list(state.members), state.event_log)
        members, events = read_log(path)
        assert members == sorted(state.members)
        assert events == state.event_log

    @pytest.mark.parametrize("mode", ["fit_only", "fairness"])
    def test_live_log_reads_back_as_its_events(self, tmp_path, mode):
        # A live session's typed events are what read_log parses from the log
        # written of them, and both replay to the live state.
        pop = synth_population(24, rng=np.random.default_rng(8))
        state, *_ = run_assembly(
            pop, mode, np.random.default_rng(9), policy=AgentPolicy(), params=ChoiceModelParams()
        )
        kinds = {e.kind for e in state.event_log}
        assert {"query_issued", "recommendations_shown", "groups_merged"} <= kinds
        path = tmp_path / "events.jsonl"
        write_log(path, state.members, state.event_log)
        members, events = read_log(path)
        assert events == state.event_log
        in_memory, parsed = replay(state.members, state.event_log), replay(members, events)
        assert in_memory.snapshot() == parsed.snapshot() == state.snapshot()
        assert in_memory.partition() == parsed.partition() == state.partition()

    @pytest.mark.parametrize(
        "event",
        [
            Event(3, "query_issued", _typed_query("a02")),
            Event(3, "recommendations_shown", _page("a02", "a00", "a01")),
            Event(3, "member_left", {"member_id": "a00", "old_group": ["a00", "a01"]}),
        ],
        ids=["query", "page", "dict"],
    )
    def test_event_round_trips_through_its_dict(self, event):
        assert Event.from_dict(json.loads(json.dumps(event.to_dict()))) == event

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("query_issued", {"searcher_id": "a00", "query": _query()}),
            ("recommendations_shown", {"searcher_id": "a00", "shown": _shown("a01")}),
            ("member_left", _typed_query()),
        ],
        ids=["query_as_dict", "page_as_dict", "dict_as_query"],
    )
    def test_event_payload_has_its_kinds_type(self, kind, payload):
        with pytest.raises(TypeError, match=f"a {kind} event holds"):
            Event(0, kind, payload)

    def test_replay_reproduces_state(self):
        state = AssemblyState(_ids(8))
        state.advance_round()
        _merge(state, "a00", "a01")
        inv = state.send_invitation("a02", "a03")
        state.respond(inv, "a03", "ignored")
        state.advance_round()
        _merge(state, "a04", "a05")
        state.leave_group("a01")
        state.finalize(np.random.default_rng(6))
        replayed = replay(list(state.members), state.event_log)
        assert replayed.snapshot() == state.snapshot()

    def test_replay_rejects_non_monotone_rounds(self):
        e1 = Event(round=2, kind="query_issued", payload=_typed_query())
        e2 = Event(round=1, kind="query_issued", payload=_typed_query())
        with pytest.raises(AssemblyError, match="non-decreasing"):
            replay(_ids(2), [e1, e2])


def _random_walk(state: AssemblyState, rng: np.random.Generator, steps: int) -> None:
    """Random send/respond/leave traffic with invariant checks per step."""
    members = list(state.members)
    for step in range(steps):
        if step % 37 == 0:
            state.advance_round()
        action = rng.integers(3)
        try:
            if action == 0:
                a, b = rng.choice(len(members), size=2, replace=False)
                state.send_invitation(members[a], members[b])
            elif action == 1:
                open_invs = state.open_invitations()
                if open_invs:
                    inv = open_invs[int(rng.integers(len(open_invs)))]
                    pending = [m for m, r in inv.responses.items() if r == "pending"]
                    if pending:
                        member = pending[int(rng.integers(len(pending)))]
                        response = ("accepted", "declined", "ignored")[int(rng.integers(3))]
                        state.respond(inv.id, member, response)
            else:
                member = members[int(rng.integers(len(members)))]
                state.leave_group(member)
        except AssemblyError:
            pass
        state.check_invariants()


class TestFuzz:
    def test_random_traffic_keeps_invariants(self):
        rng = np.random.default_rng(99)
        state = AssemblyState(_ids(13))
        _random_walk(state, rng, steps=2000)
        partition = state.finalize(rng)
        partition.validate(_ids(13))
        state.check_invariants()
        replayed = replay(list(state.members), state.event_log)
        assert replayed.snapshot() == state.snapshot()


_MACHINE_MEMBERS = _ids(9)


class AssemblyMachine(RuleBasedStateMachine):
    """Random command traffic: every step keeps the invariants, a refused
    command changes nothing, and the finished log replays to the same state."""

    @initialize()
    def start(self):
        self.state = AssemblyState(_MACHINE_MEMBERS)

    def _refused(self, command, *args):
        before = self.state.snapshot()
        try:
            command(*args)
        except AssemblyError:
            assert self.state.snapshot() == before
            return True
        return False

    @rule(a=st.sampled_from(_MACHINE_MEMBERS), b=st.sampled_from(_MACHINE_MEMBERS))
    def invite(self, a, b):
        ga, gb = self.state.group_of(a), self.state.group_of(b)
        refused = self._refused(self.state.send_invitation, a, b)
        assert refused == (ga == gb or len(ga) + len(gb) > TEAM_SIZE)

    @rule(pick=st.integers(0, 2**16), response=st.sampled_from(("accepted", "declined", "ignored")))
    def respond(self, pick, response):
        invs = list(self.state.invitations.values())
        if invs:
            inv = invs[pick % len(invs)]
            member = inv.recipient_group[pick % len(inv.recipient_group)]
            closed = inv.status != "open" or inv.responses[member] != "pending"
            assert self._refused(self.state.respond, inv.id, member, response) == closed

    @rule(
        searcher=st.sampled_from(_MACHINE_MEMBERS),
        candidates=st.lists(st.sampled_from(_MACHINE_MEMBERS + ["zz9"]), max_size=4),
    )
    def show(self, searcher, candidates):
        joinable = self.state.candidates(searcher)
        eligible = len(set(candidates)) == len(candidates) and all(c in joinable for c in candidates)
        try:
            page = _page(searcher, *candidates)
        except ValueError:  # a page that repeats a candidate is refused as it is built
            refused = True
        else:
            refused = self._refused(self.state.record_recommendations, page)
        assert refused != eligible

    @rule(searcher=st.sampled_from(_MACHINE_MEMBERS))
    def candidates_are_what_pages_and_invitations_may_name(self, searcher):
        # Pages and invitations change no group, so each try sees the same groups.
        candidates = self.state.candidates(searcher)
        everyone = _MACHINE_MEMBERS + ["zz9"]
        shown = [m for m in everyone if not self._refused(self.state.record_recommendations, _page(searcher, m))]
        invited = [m for m in everyone if not self._refused(self.state.send_invitation, searcher, m)]
        assert candidates == shown == invited

    @rule(member=st.sampled_from(_MACHINE_MEMBERS))
    def leave(self, member):
        self.state.leave_group(member)

    @rule()
    def advance_round(self):
        self.state.advance_round()

    def _check(self):
        # The group arrays agree with the group map, and the candidates
        # mask is the join rule applied to every member.
        self.state.check_invariants()
        group_of = self.state.group_of
        for searcher in _MACHINE_MEMBERS:
            joinable = [m for m in _MACHINE_MEMBERS if join_refusal(group_of(searcher), group_of(m)) is None]
            assert self.state.candidates(searcher) == joinable

    @invariant()
    def invariants_hold(self):
        self._check()

    def teardown(self):
        self.state.finalize(np.random.default_rng(len(self.state.event_log)))
        self._check()
        self.state.partition().validate(_MACHINE_MEMBERS)
        replayed = replay(_MACHINE_MEMBERS, self.state.event_log)
        assert replayed.snapshot() == self.state.snapshot()


TestAssemblyMachine = AssemblyMachine.TestCase
TestAssemblyMachine.settings = settings(max_examples=60, stateful_step_count=60, deadline=None)


def _real_log() -> tuple[list[str], list[Event]]:
    members = _ids(9)
    state = AssemblyState(members)
    rng = np.random.default_rng(7)
    _random_walk(state, rng, steps=400)
    state.finalize(rng)
    return members, state.event_log


def _agent_log() -> tuple[list[str], list[Event]]:
    """A live session's log: queries, pages, invitations and the fill."""
    pop = synth_population(12, rng=np.random.default_rng(2))
    state, *_ = run_assembly(
        pop, "fairness", np.random.default_rng(3), policy=AgentPolicy(), params=ChoiceModelParams(), rounds=3
    )
    return list(state.members), state.event_log


_MEMBERS_IN_LOG, _LOG = _real_log()
_MEMBERS_IN_AGENT_LOG, _AGENT_LOG = _agent_log()
_MEMBER_ID = re.compile(r'"[ap]\d+"')


def _mutate(events: list[Event], how: str, i: int, j: int, new_member: str) -> list[Event]:
    events = list(events)
    i %= len(events)
    if how == "drop":
        del events[i]
    elif how == "duplicate":
        events.insert(i, events[i])
    elif how == "swap":
        same_round = [k for k, e in enumerate(events) if e.round == events[i].round]
        k = same_round[j % len(same_round)]
        events[i], events[k] = events[k], events[i]
    else:
        # A member id edited in the event's log line, which is then parsed.
        text = json.dumps(events[i].to_dict())
        hits = list(_MEMBER_ID.finditer(text))
        if hits:
            hit = hits[j % len(hits)]
            events[i] = Event.from_dict(json.loads(text[: hit.start()] + json.dumps(new_member) + text[hit.end() :]))
    return events


def _replays_or_is_refused(members: list[str], log: list[Event], how: str, i: int, j: int, new_member: str) -> None:
    try:
        state = replay(members, _mutate(log, how, i, j, new_member))
    except (AssemblyError, ValueError, KeyError):
        return
    state.check_invariants()
    state.partition().validate(members)


class TestMutatedLogs:
    def test_real_log_replays(self):
        assert replay(_MEMBERS_IN_LOG, _LOG).snapshot()["events"] == [e.to_dict() for e in _LOG]

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(("drop", "duplicate", "swap", "member")),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
        st.sampled_from(_MEMBERS_IN_LOG + ["zz9"]),
    )
    def test_replay_refuses_or_accepts_cleanly(self, how, i, j, new_member):
        _replays_or_is_refused(_MEMBERS_IN_LOG, _LOG, how, i, j, new_member)

    def test_agent_log_replays(self):
        kinds = {e.kind for e in _AGENT_LOG}
        assert {"query_issued", "recommendations_shown", "groups_merged"} <= kinds
        replay(_MEMBERS_IN_AGENT_LOG, _AGENT_LOG).check_invariants()

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(("drop", "duplicate", "swap", "member")),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
        st.sampled_from(_MEMBERS_IN_AGENT_LOG + ["zz9"]),
    )
    def test_agent_log_replay_refuses_or_accepts_cleanly(self, how, i, j, new_member):
        _replays_or_is_refused(_MEMBERS_IN_AGENT_LOG, _AGENT_LOG, how, i, j, new_member)
