"""The public classical discussion between the two parties.

Everything spoken over the authenticated classical channel is recorded as an
ordered list of :class:`TranscriptEntry`.  The transcript is exactly what a
passive eavesdropper gets to see, so the session code treats it as
write-once and the tests enforce two hygiene rules:

* wire order -- filter announcement, then keep/discard announcement, then
  parity traffic in alternating query/response pairs;
* no leakage -- measurement outcomes and key bits never appear, with the
  single exception of the parity bits exchanged during certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator, Optional, Sequence

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

_ALLOWED_KEYS = {
    EntryKind.FILTER_ANNOUNCEMENT: {"filters"},
    EntryKind.CONFIRMATION_ANNOUNCEMENT: {"kept"},
    EntryKind.PARITY_QUERY: {"round", "positions"},
    EntryKind.PARITY_RESPONSE: {"round", "parity"},
}


_BY_DEGREES = {p.degrees: p for p in Polarization}


class TranscriptOrderError(Exception):
    """The discussion violated the protocol's wire order."""


@dataclass(frozen=True)
class TranscriptEntry:
    sender: Party
    kind: EntryKind
    payload: dict[str, Any]

    def to_jsonable(self) -> dict[str, Any]:
        return {"sender": self.sender.value, "kind": self.kind.value, "payload": self.payload}

    @classmethod
    def from_jsonable(cls, obj: dict[str, Any]) -> "TranscriptEntry":
        return cls(Party(obj["sender"]), EntryKind(obj["kind"]), dict(obj["payload"]))


class Transcript:
    """Ordered, validated record of one session's public discussion."""

    def __init__(self, entries: Optional[Sequence[TranscriptEntry]] = None) -> None:
        self.entries: list[TranscriptEntry] = []
        for entry in entries or ():
            self.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TranscriptEntry]:
        return iter(self.entries)

    def append(self, entry: TranscriptEntry) -> None:
        extra = set(entry.payload) - _ALLOWED_KEYS[entry.kind]
        if extra:
            raise ValueError(f"{entry.kind.value} payload has unexpected keys {sorted(extra)}")
        if self.entries and _PHASE[entry.kind] < _PHASE[self.entries[-1].kind]:
            raise TranscriptOrderError(
                f"{entry.kind.value} may not follow {self.entries[-1].kind.value}"
            )
        self.entries.append(entry)

    # -- recording helpers used by the session drivers -------------------

    def announce_filters(self, degrees: Sequence[int]) -> None:
        """The receiver publishes the filter angle, in degrees, used at every clock tick."""
        unknown = set(degrees) - _BY_DEGREES.keys()
        if unknown:
            raise ValueError(f"filter announcement has no polarization at {sorted(unknown)} degrees")
        self.append(
            TranscriptEntry(Party.BOB, EntryKind.FILTER_ANNOUNCEMENT, {"filters": list(degrees)})
        )

    def announce_kept(self, kept_positions: Sequence[int]) -> None:
        """The sender publishes which positions survive the keep/discard rule."""
        self.append(
            TranscriptEntry(
                Party.ALICE,
                EntryKind.CONFIRMATION_ANNOUNCEMENT,
                {"kept": sorted(map(int, kept_positions))},
            )
        )

    def parity_query(self, round_number: int, positions: Sequence[int]) -> None:
        self.append(
            TranscriptEntry(
                Party.ALICE,
                EntryKind.PARITY_QUERY,
                {"round": round_number, "positions": sorted(map(int, positions))},
            )
        )

    def parity_response(self, round_number: int, parity: int) -> None:
        if parity not in (0, 1):
            raise ValueError("a parity is a single bit")
        self.append(
            TranscriptEntry(
                Party.BOB,
                EntryKind.PARITY_RESPONSE,
                {"round": round_number, "parity": parity},
            )
        )

    # -- read-side views (what an eavesdropper extracts) ------------------

    def announced_filters(self) -> list[Polarization]:
        for entry in self.entries:
            if entry.kind is EntryKind.FILTER_ANNOUNCEMENT:
                try:
                    return [_BY_DEGREES[d] for d in entry.payload["filters"]]
                except KeyError as exc:
                    raise ValueError(
                        f"filter announcement has no polarization at {exc.args[0]} degrees"
                    ) from None
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

    # -- validation and serialization -------------------------------------

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

    def to_jsonable(self) -> list[dict[str, Any]]:
        return [entry.to_jsonable() for entry in self.entries]

    @classmethod
    def from_jsonable(cls, obj: Sequence[dict[str, Any]]) -> "Transcript":
        return cls([TranscriptEntry.from_jsonable(e) for e in obj])
