"""Team-assembly state machine for the agency conditions.

Participants start as singleton groups and grow by invitation: an
invitation goes to one target and snapshots both groups; the merge
happens only when every recipient-group member accepts. join_refusal,
the join rule of invitations and shown pages, lets two distinct groups
merge only if the merged team fits TEAM_SIZE. Membership changes void any
open invitation whose snapshots went stale.

Beside the member -> group map, the state keeps an int group id and an
int group size per member position, set in _set_group with the map. A
search's candidates are then one mask over those arrays, the join rule
for all members at once: AssemblyState.eligible_rows.

All mutations are event-sourced: commands emit events and apply them
through one dispatcher, _apply, which checks each event against every
assembly rule before it changes anything. Replay goes through the same
dispatcher, so it refuses a log at its first rule-breaking event and
reproduces the final state of a valid one exactly. The deadline fill is
the last event of a session: nothing is accepted after it. A query or a
shown page is a typed payload (Query, ShownPage) that checks itself when
it is built, live or parsed from a log, so _apply checks what depends on
the state: the searcher, and who may be shown.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .core import TEAM_SIZE, Partition, _is_int, read_json_lines, write_json_lines
from .recommender import SCORE_COLUMNS, Criterion, Query, ShownPage

RESPONSES = ("accepted", "declined", "ignored")
LOG_SCHEMA = "teamsim.assembly-log.v1"


class AssemblyError(ValueError):
    """A command or logged event that violates the assembly rules."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise AssemblyError(message)


def join_refusal(group: tuple[str, ...], other: tuple[str, ...]) -> str | None:
    """Why group may not join other, or None when it may: the join rule."""
    if group == other:
        return "already teammates"
    if len(group) + len(other) > TEAM_SIZE:
        return "merge would exceed team size"
    return None


# The in-memory payload type of each event kind that has one; every other
# kind carries the JSON object it is logged as.
PAYLOAD_TYPES = {"query_issued": Query, "recommendations_shown": ShownPage}


@dataclass(frozen=True, slots=True)
class Event:
    """One logged step of a session. A query_issued event holds the Query,
    a recommendations_shown event the ShownPage; to_dict and from_dict are
    their one serializer and their one parser. Slotted: a session keeps
    every event it logs."""

    round: int
    kind: str
    payload: dict | Query | ShownPage

    def __post_init__(self) -> None:
        expected = PAYLOAD_TYPES.get(self.kind, dict)
        if not isinstance(self.payload, expected):
            raise TypeError(f"a {self.kind} event holds a {expected.__name__}, got {self.payload!r}")

    def to_dict(self) -> dict:
        # Keys in sorted order: the log writer sorts them, and finds them sorted.
        p = self.payload
        if self.kind == "query_issued":
            criteria = [{"importance": c.importance, "kind": c.kind, "skill": c.skill} for c in p.criteria]
            p = {"query": {"criteria": criteria, "searcher_id": p.searcher_id}, "searcher_id": p.searcher_id}
        elif self.kind == "recommendations_shown":
            rows = zip(p.ids, p.combined, p.diversity, p.fit, p.match_percent)
            p = {
                "searcher_id": p.searcher_id,
                "shown": [
                    {"candidate_id": cid, "combined": c, "diversity": d, "fit": f, "match_percent": m, "rank": rank}
                    for rank, (cid, c, d, f, m) in enumerate(rows, 1)
                ],
            }
        return {"kind": self.kind, "payload": p, "round": self.round}

    @classmethod
    def from_dict(cls, d: dict) -> "Event":
        """The event a to_dict dict describes. A query or a page that breaks
        the rules it carries itself is refused with AssemblyError."""
        if not isinstance(d, dict) or not isinstance(d.get("payload"), dict):
            raise ValueError(f"an event must be a JSON object with an object payload: {d!r}")
        if not _is_int(d.get("round")):
            raise ValueError(f"an event round must be an integer: {d!r}")
        kind, payload = d["kind"], d["payload"]
        if kind == "query_issued":
            payload = _parse_query(payload)
        elif kind == "recommendations_shown":
            payload = _parse_page(payload)
        return cls(round=d["round"], kind=kind, payload=payload)


def _parse_query(p: dict) -> Query:
    """The Query of a logged query_issued payload; the payload names the
    searcher beside the query, and the two must agree."""
    try:
        q = p["query"]
        criteria = tuple(Criterion(c["kind"], c["importance"], c["skill"]) for c in q["criteria"])
        query = Query(searcher_id=q["searcher_id"], criteria=criteria)
    except (TypeError, KeyError) as exc:
        raise AssemblyError(f"invalid query: malformed query payload: {exc!r}") from None
    except ValueError as exc:
        raise AssemblyError(f"invalid query: {exc}") from None
    _require(query.searcher_id == p["searcher_id"], "query is not the searcher's")
    return query


def _parse_page(p: dict) -> ShownPage:
    """The ShownPage of a logged recommendations_shown payload, whose rows
    carry their ranks: the integers 1..k in order."""
    try:
        rows = p["shown"]
        for rank, row in enumerate(rows, 1):
            if not _is_int(row["rank"]) or row["rank"] != rank:
                raise AssemblyError(f"shown ranks must run 1..k in order, got {row['rank']!r} at {rank}")
        return ShownPage(
            p["searcher_id"],
            tuple(row["candidate_id"] for row in rows),
            *(tuple(row[name] for row in rows) for name in SCORE_COLUMNS),
        )
    except AssemblyError:
        raise
    except TypeError as exc:
        raise AssemblyError(f"malformed recommendations_shown event: {exc}") from None
    except ValueError as exc:
        raise AssemblyError(str(exc)) from None


@dataclass
class Invitation:
    id: str
    sender_id: str
    sender_group: tuple[str, ...]
    recipient_group: tuple[str, ...]
    responses: dict[str, str]
    status: str = "open"


class AssemblyState:
    """Single-writer assembly session state; groups hold at most TEAM_SIZE."""

    def __init__(self, member_ids: Iterable[str]):
        # tuple() keeps a tuple as given, so a CodedPool of the same ids is
        # recognised by identity.
        members = tuple(member_ids)
        if len(set(members)) != len(members):
            raise ValueError("duplicate member ids")
        if not members:
            raise ValueError("empty session")
        self.members: tuple[str, ...] = members
        self._position: dict[str, int] = {m: i for i, m in enumerate(members)}
        # Each member's group: a sorted tuple shared by all its members. By
        # member position, the group's id (the position of its first member)
        # and its size.
        self._group: dict[str, tuple[str, ...]] = {m: (m,) for m in members}
        self._group_id = np.arange(len(members))
        self._group_size = np.ones(len(members), dtype=np.intp)
        self.invitations: dict[str, Invitation] = {}
        # The open invitations among them, in the order they were sent.
        self._open: dict[str, Invitation] = {}
        self.round: int = 0
        self.event_log: list[Event] = []
        self._inv_seq: int = 0
        self._merges: int = 0
        self._filled: bool = False

    # -- read side ---------------------------------------------------------

    def group_of(self, member_id: str) -> tuple[str, ...]:
        if member_id not in self._group:  # not _require: called for every shown candidate
            raise AssemblyError(f"unknown member {member_id!r}")
        return self._group[member_id]

    def groups(self) -> list[tuple[str, ...]]:
        return sorted(set(self._group.values()))

    def eligible_rows(self, searcher_id: str) -> np.ndarray:
        """Positions, in member order, of the members whose groups the
        searcher's group may join: join_refusal as one mask."""
        self.group_of(searcher_id)
        s = self._position[searcher_id]
        gid, size = self._group_id, self._group_size
        return np.flatnonzero((gid != gid[s]) & (size <= TEAM_SIZE - size[s]))

    def candidates(self, searcher_id: str) -> list[str]:
        """Members, in member order, whose groups the searcher's group may join."""
        return [self.members[i] for i in self.eligible_rows(searcher_id).tolist()]

    def open_invitations(self) -> list[Invitation]:
        return list(self._open.values())

    def merged_count(self) -> int:
        return self._merges

    # -- commands ----------------------------------------------------------

    def advance_round(self) -> int:
        self.round += 1
        return self.round

    def record_query(self, query: Query) -> None:
        self._emit("query_issued", query)

    def record_recommendations(self, page: ShownPage) -> None:
        self._emit("recommendations_shown", page)

    def send_invitation(self, sender_id: str, target_id: str) -> str:
        """Invite the target's group to merge with the sender's. An open
        invitation between the same two groups is returned instead."""
        sender_group = self.group_of(sender_id)
        recipient_group = self.group_of(target_id)
        pair = frozenset((sender_group, recipient_group))
        for inv in self._open.values():
            if frozenset((inv.sender_group, inv.recipient_group)) == pair:
                return inv.id
        inv_id = f"inv-{self._inv_seq + 1:05d}"
        self._emit(
            "invitation_sent",
            {
                "invitation_id": inv_id,
                "sender_id": sender_id,
                "target_id": target_id,
                "sender_group": list(sender_group),
                "recipient_group": list(recipient_group),
            },
        )
        return inv_id

    def respond(self, invitation_id: str, member_id: str, response: str) -> None:
        """Record one recipient's answer; the last acceptance merges the groups."""
        self._emit(
            "response_recorded",
            {"invitation_id": invitation_id, "member_id": member_id, "response": response},
        )
        inv = self.invitations[invitation_id]
        if inv.status == "open" and all(r == "accepted" for r in inv.responses.values()):
            merged = sorted(inv.sender_group + inv.recipient_group)
            self._emit("groups_merged", {"invitation_id": invitation_id, "members": merged})

    def leave_group(self, member_id: str) -> None:
        group = self.group_of(member_id)
        if len(group) == 1:
            return
        self._emit("member_left", {"member_id": member_id, "old_group": list(group)})

    def finalize(self, rng: np.random.Generator) -> Partition:
        """Expire open invitations, keep full groups, randomly pack the rest.

        Members of groups below TEAM_SIZE are pooled and shuffled into fresh
        teams of TEAM_SIZE; the leftover become solos. The packing is
        recorded in the deadline_fill event, so replay needs no rng.
        """
        full = [list(g) for g in self.groups() if len(g) == TEAM_SIZE]
        pool = sorted(m for g in self.groups() if len(g) < TEAM_SIZE for m in g)
        shuffled = [pool[i] for i in rng.permutation(len(pool))] if pool else []
        cut = len(shuffled) // TEAM_SIZE * TEAM_SIZE
        packed = [shuffled[i : i + TEAM_SIZE] for i in range(0, cut, TEAM_SIZE)]
        self._emit("deadline_fill", {"teams": full + packed, "solos": sorted(shuffled[cut:])})
        return self.partition()

    def partition(self) -> Partition:
        """Current groups as a Partition: multi-member groups are teams,
        singletons are solos. After finalize this is the final assignment."""
        teams = [g for g in self.groups() if len(g) > 1]
        solos = [g[0] for g in self.groups() if len(g) == 1]
        return Partition.build(teams, solos)

    # -- event machinery ----------------------------------------------------

    def _emit(self, kind: str, payload: dict) -> None:
        event = Event(round=self.round, kind=kind, payload=payload)
        self._apply(event)
        self.event_log.append(event)

    def _apply(self, event: Event) -> None:
        """Check one event against the assembly rules, then apply it.

        This is the only place the rules that depend on the state live, so
        commands and replay enforce the same set. A refused event raises
        AssemblyError (or ValueError for an unknown kind or response) before
        any change.
        """
        kind, p = event.kind, event.payload
        if self._filled:
            raise AssemblyError(f"{kind} event after the deadline fill")
        if kind == "query_issued":
            self.group_of(p.searcher_id)
        elif kind == "recommendations_shown":
            group = self.group_of(p.searcher_id)
            # Not _require: its messages would be formatted for every candidate.
            for cid in p.ids:
                refusal = join_refusal(group, self.group_of(cid))
                if refusal is not None:
                    raise AssemblyError(f"shown candidate {cid!r} cannot join: {refusal}")
        elif kind == "invitation_sent":
            inv_id = f"inv-{self._inv_seq + 1:05d}"
            _require(p["invitation_id"] == inv_id, f"invitation id is not the next, {inv_id!r}")
            sender_group = self.group_of(p["sender_id"])
            recipient_group = self.group_of(p["target_id"])
            refusal = join_refusal(sender_group, recipient_group)
            _require(refusal is None, f"{inv_id!r} refused: {refusal}")
            _require(
                tuple(p["sender_group"]) == sender_group
                and tuple(p["recipient_group"]) == recipient_group,
                f"snapshots of {inv_id!r} are not the live groups",
            )
            self.invitations[inv_id] = self._open[inv_id] = Invitation(
                id=inv_id,
                sender_id=p["sender_id"],
                sender_group=sender_group,
                recipient_group=recipient_group,
                responses=dict.fromkeys(recipient_group, "pending"),
            )
            self._inv_seq += 1
        elif kind == "response_recorded":
            if p["response"] not in RESPONSES:
                raise ValueError(f"unknown response {p['response']!r}")
            inv = self._open_invitation(p["invitation_id"])
            member = p["member_id"]
            _require(
                inv.responses.get(member) == "pending",
                f"{member!r} has no pending response on {inv.id!r}",
            )
            inv.responses[member] = p["response"]
            if p["response"] == "declined":
                self._close(inv, "rejected")
        elif kind == "groups_merged":
            inv = self._open_invitation(p["invitation_id"])
            _require(
                all(r == "accepted" for r in inv.responses.values()),
                f"{inv.id!r} merged without full acceptance",
            )
            members = sorted(inv.sender_group + inv.recipient_group)
            _require(list(p["members"]) == members, f"merge of {inv.id!r} must join its two groups")
            self._close(inv, "merged")
            self._set_group(tuple(members))
            self._merges += 1
            self._void_stale()
        elif kind == "member_left":
            member = p["member_id"]
            group = self.group_of(member)
            _require(len(group) > 1, f"{member!r} is solo and cannot leave")
            _require(tuple(p["old_group"]) == group, f"old_group of {member!r} is not live")
            self._set_group(tuple(m for m in group if m != member))
            self._set_group((member,))
            self._void_stale()
        elif kind == "deadline_fill":
            groups = [tuple(sorted(t)) for t in p["teams"]] + [(s,) for s in p["solos"]]
            placed = sorted(m for g in groups for m in g)
            _require(placed == sorted(self.members), "deadline fill must place each member once")
            _require(
                all(1 <= len(g) <= TEAM_SIZE for g in groups),
                "deadline fill team is empty or exceeds team size",
            )
            for inv in self.open_invitations():
                self._close(inv, "expired")
            self._group = {}
            for g in groups:
                self._set_group(g)
            self._filled = True
        else:
            raise ValueError(f"unknown event kind {kind!r}")

    def _open_invitation(self, invitation_id: str) -> Invitation:
        inv = self.invitations.get(invitation_id)
        _require(inv is not None, f"unknown invitation {invitation_id!r}")
        _require(inv.status == "open", f"invitation {invitation_id!r} is {inv.status}, not open")
        return inv

    def _set_group(self, group: tuple[str, ...]) -> None:
        """Make a sorted, non-empty group the group of each of its members."""
        positions = [self._position[m] for m in group]
        self._group_id[positions] = self._position[group[0]]
        self._group_size[positions] = len(group)
        for m in group:
            self._group[m] = group

    def _close(self, inv: Invitation, status: str) -> None:
        inv.status = status
        del self._open[inv.id]

    def _void_stale(self) -> None:
        """Void open invitations whose group snapshots no longer exist: a
        snapshot exists while it is the group of its first member."""
        group = self._group
        for inv in self.open_invitations():
            if group[inv.sender_group[0]] != inv.sender_group or group[inv.recipient_group[0]] != inv.recipient_group:
                self._close(inv, "voided")

    # -- validation and replay ----------------------------------------------

    def check_invariants(self) -> None:
        """Check that the group map partitions the members into sorted groups
        of 1..TEAM_SIZE, that the group id and size arrays agree with it, and
        that the open invitations are those whose status is open. The event
        rules in _apply keep everything else true."""
        if self._group.keys() != set(self.members):
            raise AssertionError("groups do not partition the members")
        for member, group in self._group.items():
            if not 1 <= len(group) <= TEAM_SIZE:
                raise AssertionError(f"group size out of bounds: {group}")
            if member not in group or list(group) != sorted(set(group)) or any(
                self._group.get(m) != group for m in group
            ):
                raise AssertionError(f"member map out of sync for group {group}")
            i = self._position[member]
            if self._group_id[i] != self._position[group[0]] or self._group_size[i] != len(group):
                raise AssertionError(f"group arrays out of sync for member {member!r}")
        if list(self._open) != [i for i, inv in self.invitations.items() if inv.status == "open"]:
            raise AssertionError("open invitations out of sync with their statuses")

    def snapshot(self) -> dict:
        """Comparable view of the full state (used by replay tests)."""
        return {
            "groups": self.groups(),
            "round": self.round,
            "invitations": {
                iid: (inv.sender_id, inv.sender_group, inv.recipient_group,
                      tuple(sorted(inv.responses.items())), inv.status)
                for iid, inv in self.invitations.items()
            },
            "events": [e.to_dict() for e in self.event_log],
        }


def replay(member_ids: Iterable[str], events: Sequence[Event]) -> AssemblyState:
    """Fold an event log over a fresh state, checking each event with the
    rules the commands obey; rounds must not decrease. A malformed payload
    is refused as a rule violation."""
    state = AssemblyState(member_ids)
    for event in events:
        _require(event.round >= state.round, "event rounds must be non-decreasing")
        state.round = event.round
        try:
            state._apply(event)
        except TypeError as exc:
            raise AssemblyError(f"malformed {event.kind} event: {exc}") from exc
        state.event_log.append(event)
    return state


def write_log(path, member_ids: Sequence[str], events: Sequence[Event]) -> None:
    """Persist a session log: one header line, then one event per line."""
    header = {"schema": LOG_SCHEMA, "members": sorted(member_ids)}
    write_json_lines(path, chain([header], (event.to_dict() for event in events)))


def _log_line(record) -> list[str] | Event:
    """A log line: the header's member ids, or an event."""
    if isinstance(record, dict) and "schema" in record:
        if record["schema"] != LOG_SCHEMA:
            raise ValueError(f"unexpected log schema {record['schema']!r}")
        return list(record["members"])
    return Event.from_dict(record)


def read_log(path) -> tuple[list[str], list[Event]]:
    lines = read_json_lines(path, _log_line)
    if not lines or not isinstance(lines[0], list) or not all(isinstance(event, Event) for event in lines[1:]):
        raise ValueError(f"{path}: a log is its header line, then one line per event")
    return lines[0], lines[1:]
