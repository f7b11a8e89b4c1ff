"""Reading the public classical discussion between the two parties.

Everything spoken over the authenticated classical channel is published as
the report's list of entry dicts, ``{"sender", "kind", "payload"}``.  The
sessions build that list straight from their index arrays
(:attr:`qkdsim.session.Session.transcript` and
:func:`qkdsim.bb84.parity_certify`).  The list is exactly what a passive
eavesdropper gets to see.  :class:`Transcript` reads it back into views,
holding each entry's sender and payload keys to one table per kind, and
checks the two hygiene rules, which the tests run on every emitted
transcript:

* wire order -- filter announcement, then keep/discard announcement, then
  parity traffic in alternating query/response pairs;
* no leakage -- measurement outcomes and key bits never appear, with the
  single exception of the parity bits exchanged during certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional, Sequence

from .photons import Polarization


class Party(Enum):
    ALICE = "alice"
    BOB = "bob"


class EntryKind(Enum):
    FILTER_ANNOUNCEMENT = "filter_announcement"
    CONFIRMATION_ANNOUNCEMENT = "confirmation_announcement"
    PARITY_QUERY = "parity_query"
    PARITY_RESPONSE = "parity_response"


# Wire order: the discussion proceeds in these phases, never backwards.
_PHASE = {
    EntryKind.FILTER_ANNOUNCEMENT: 0,
    EntryKind.CONFIRMATION_ANNOUNCEMENT: 1,
    EntryKind.PARITY_QUERY: 2,
    EntryKind.PARITY_RESPONSE: 2,
}

_ENTRY_KEYS = {"sender", "kind", "payload"}
# Who speaks each kind of entry, and what each key of its payload holds.
_INTS = ("a list of ints", lambda v: isinstance(v, list) and set(map(type, v)) <= {int})
_ROUND = ("an int >= 1", lambda v: type(v) is int and v >= 1)
_BIT = ("0 or 1", lambda v: type(v) is int and v in (0, 1))
_SCHEMA = {
    EntryKind.FILTER_ANNOUNCEMENT: (Party.BOB, {"filters": _INTS}),
    EntryKind.CONFIRMATION_ANNOUNCEMENT: (Party.ALICE, {"kept": _INTS}),
    EntryKind.PARITY_QUERY: (Party.ALICE, {"round": _ROUND, "positions": _INTS}),
    EntryKind.PARITY_RESPONSE: (Party.BOB, {"round": _ROUND, "parity": _BIT}),
}


class TranscriptOrderError(Exception):
    """The discussion violated the protocol's wire order."""


@dataclass(frozen=True)
class TranscriptEntry:
    sender: Party
    kind: EntryKind
    payload: dict[str, Any]

    @classmethod
    def from_jsonable(cls, obj: dict[str, Any]) -> "TranscriptEntry":
        """Read one entry dict; a wrong key, sender, payload key or value raises ``ValueError``."""
        if not isinstance(obj, dict) or obj.keys() != _ENTRY_KEYS:
            got = f"keys {sorted(obj)}" if isinstance(obj, dict) else f"type {type(obj).__name__}"
            raise ValueError(f"entry has {got}; expected a dict with keys {sorted(_ENTRY_KEYS)}")
        if not isinstance(obj["payload"], dict):
            raise ValueError(f"entry payload is {type(obj['payload']).__name__}; expected a dict")
        entry = cls(Party(obj["sender"]), EntryKind(obj["kind"]), dict(obj["payload"]))
        sender, spec = _SCHEMA[entry.kind]
        if entry.sender is not sender:
            raise ValueError(
                f"{entry.kind.value} sender is {entry.sender.value}; expected {sender.value}"
            )
        if entry.payload.keys() != spec.keys():
            raise ValueError(
                f"{entry.kind.value} payload keys {sorted(entry.payload)}; expected {sorted(spec)}"
            )
        for key, (what, holds) in spec.items():
            if not holds(entry.payload[key]):
                raise ValueError(f"{entry.kind.value} payload {key} is not {what}")
        return entry


class Transcript:
    """Views of one session's published discussion, and its wire-order check."""

    def __init__(self, entries: Sequence[TranscriptEntry]) -> None:
        self.entries = list(entries)

    @classmethod
    def from_jsonable(cls, obj: Sequence[dict[str, Any]]) -> "Transcript":
        """Read a published list of entry dicts; a malformed entry raises ``ValueError``."""
        return cls([TranscriptEntry.from_jsonable(e) for e in obj])

    def announced_filters(self) -> list[Polarization]:
        for entry in self.entries:
            if entry.kind is EntryKind.FILTER_ANNOUNCEMENT:
                degrees = entry.payload["filters"]
                # Each distinct angle is read once; a session announces at most four.
                by_degrees = {d: Polarization.from_degrees(d) for d in set(degrees)}
                return [by_degrees[d] for d in degrees]
        raise LookupError("no filter announcement in transcript")

    def kept_positions(self) -> list[int]:
        for entry in self.entries:
            if entry.kind is EntryKind.CONFIRMATION_ANNOUNCEMENT:
                return list(entry.payload["kept"])
        raise LookupError("no keep/discard announcement in transcript")

    def parity_rounds(self) -> list[tuple[int, list[int], Optional[int]]]:
        """(round, queried positions, response parity) per certification round."""
        queries: dict[int, list[int]] = {}
        responses: dict[int, int] = {}
        for entry in self.entries:
            if entry.kind is EntryKind.PARITY_QUERY:
                queries[entry.payload["round"]] = list(entry.payload["positions"])
            elif entry.kind is EntryKind.PARITY_RESPONSE:
                responses[entry.payload["round"]] = entry.payload["parity"]
        return [(r, queries[r], responses.get(r)) for r in sorted(queries)]

    def check_wire_order(self) -> None:
        """Raise :class:`TranscriptOrderError` unless phases are in order and
        parity traffic alternates query/response with matching rounds."""
        phases = [_PHASE[e.kind] for e in self.entries]
        if phases != sorted(phases):
            raise TranscriptOrderError("discussion phases out of order")
        parity = [e for e in self.entries if _PHASE[e.kind] == 2]
        for i, entry in enumerate(parity):
            expected = EntryKind.PARITY_QUERY if i % 2 == 0 else EntryKind.PARITY_RESPONSE
            if entry.kind is not expected:
                raise TranscriptOrderError("parity traffic must alternate query/response")
            if entry.payload["round"] != i // 2 + 1:
                raise TranscriptOrderError("parity rounds must be numbered consecutively")
        if len(parity) % 2:
            raise TranscriptOrderError("final parity query got no response")
