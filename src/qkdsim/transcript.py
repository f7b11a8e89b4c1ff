"""The public classical discussion between the two parties, written and read.

Everything spoken over the authenticated classical channel is published as
the report's list of entry dicts, ``{"sender", "kind", "payload"}``: exactly
what a passive eavesdropper gets to see.  This module states their format
once.  :func:`announcements` writes the receiver's filter announcement and
the sender's kept positions (:attr:`qkdsim.session.Session.transcript`),
:func:`parity_round` one certification round's query and response
(:func:`qkdsim.bb84.parity_certify`).  :class:`Transcript` reads the list
back into views, holding each entry's phase, sender and payload to one
table per kind, and checks the two hygiene rules, which the tests run on
every emitted transcript:

* wire order -- exactly one filter announcement, then exactly one
  keep/discard announcement, then parity traffic in alternating
  query/response pairs;
* no leakage -- measurement outcomes and key bits never appear, with the
  single exception of the parity bits exchanged during certification.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .photons import DEGREES, Polarization


def announcements(filter_index: np.ndarray, kept_index: np.ndarray) -> list[dict[str, Any]]:
    """The discussion's two opening entries, from polarization and position index arrays.

    The receiver announces his filter angles in degrees, one per tick; the
    sender answers with the kept positions, in the order given.
    """
    filters, kept = DEGREES.take(filter_index).tolist(), kept_index.tolist()
    return [
        {"sender": "bob", "kind": "filter_announcement", "payload": {"filters": filters}},
        {"sender": "alice", "kind": "confirmation_announcement", "payload": {"kept": kept}},
    ]


def parity_round(round_number: int, positions: np.ndarray, parity: int) -> tuple[dict, dict]:
    """One certification round: the sender's query of ``positions``, the receiver's parity."""
    query = {"round": round_number, "positions": positions.tolist()}
    response = {"round": round_number, "parity": parity}
    return (
        {"sender": "alice", "kind": "parity_query", "payload": query},
        {"sender": "bob", "kind": "parity_response", "payload": response},
    )


_ENTRY_KEYS = {"sender", "kind", "payload"}
# Per kind: its phase (the discussion never goes back to an earlier one),
# who speaks it, and what each key of its payload holds.
_INTS = ("a list of ints", lambda v: isinstance(v, list) and set(map(type, v)) <= {int})
_ROUND = ("an int >= 1", lambda v: type(v) is int and v >= 1)
_BIT = ("0 or 1", lambda v: type(v) is int and v in (0, 1))
_SCHEMA = {
    "filter_announcement": (0, "bob", {"filters": _INTS}),
    "confirmation_announcement": (1, "alice", {"kept": _INTS}),
    "parity_query": (2, "alice", {"round": _ROUND, "positions": _INTS}),
    "parity_response": (2, "bob", {"round": _ROUND, "parity": _BIT}),
}


def _checked(obj: Any) -> dict[str, Any]:
    """A copy of one entry dict; a wrong key, kind, sender or payload raises ``ValueError``."""
    if not isinstance(obj, dict) or obj.keys() != _ENTRY_KEYS:
        got = f"keys {sorted(obj)}" if isinstance(obj, dict) else f"type {type(obj).__name__}"
        raise ValueError(f"entry has {got}; expected a dict with keys {sorted(_ENTRY_KEYS)}")
    kind, payload = obj["kind"], obj["payload"]
    if not isinstance(kind, str) or kind not in _SCHEMA:
        raise ValueError(f"entry kind is {kind!r}; expected one of {sorted(_SCHEMA)}")
    _, sender, spec = _SCHEMA[kind]
    if obj["sender"] != sender:
        raise ValueError(f"{kind} sender is {obj['sender']!r}; expected {sender!r}")
    if not isinstance(payload, dict):
        raise ValueError(f"entry payload is {type(payload).__name__}; expected a dict")
    if payload.keys() != spec.keys():
        raise ValueError(f"{kind} payload keys {sorted(payload)}; expected {sorted(spec)}")
    for key, (what, holds) in spec.items():
        if not holds(payload[key]):
            raise ValueError(f"{kind} payload {key} is not {what}")
    return {"sender": sender, "kind": kind, "payload": dict(payload)}


class TranscriptOrderError(Exception):
    """The discussion violated the protocol's wire order."""


class Transcript:
    """Views of one session's published discussion, and its wire-order check.

    ``entries`` holds checked copies of the entry dicts, in published order.
    """

    def __init__(self, entries: list[dict[str, Any]]) -> None:
        if not isinstance(entries, list):
            raise ValueError(f"transcript has type {type(entries).__name__}; expected a list")
        self.entries = [_checked(e) for e in entries]

    @classmethod
    def from_jsonable(cls, obj: list[dict[str, Any]]) -> "Transcript":
        """Read a published list of entry dicts; anything but a list, or a
        malformed entry, raises ``ValueError``."""
        return cls(obj)

    def _first(self, kind: str, name: str) -> dict[str, Any]:
        for entry in self.entries:
            if entry["kind"] == kind:
                return entry["payload"]
        raise LookupError(f"no {name} in transcript")

    def announced_filters(self) -> list[Polarization]:
        degrees = self._first("filter_announcement", "filter announcement")["filters"]
        # Each distinct angle is read once; a session announces at most four.
        by_degrees = {d: Polarization.from_degrees(d) for d in set(degrees)}
        return [by_degrees[d] for d in degrees]

    def kept_positions(self) -> list[int]:
        return list(self._first("confirmation_announcement", "keep/discard announcement")["kept"])

    def parity_rounds(self) -> list[tuple[int, list[int], Optional[int]]]:
        """(round, queried positions, response parity) per certification round."""
        queries: dict[int, list[int]] = {}
        responses: dict[int, int] = {}
        for entry in self.entries:
            payload = entry["payload"]
            if entry["kind"] == "parity_query":
                queries[payload["round"]] = list(payload["positions"])
            elif entry["kind"] == "parity_response":
                responses[payload["round"]] = payload["parity"]
        return [(r, queries[r], responses.get(r)) for r in sorted(queries)]

    def check_wire_order(self) -> None:
        """Raise :class:`TranscriptOrderError` unless the discussion opens with
        exactly one filter announcement and one keep/discard announcement,
        and parity traffic then alternates query/response with matching rounds."""
        phases = [_SCHEMA[e["kind"]][0] for e in self.entries]
        if phases[:2] != [0, 1] or set(phases[2:]) - {2}:
            raise TranscriptOrderError(
                "discussion must open with one filter announcement, then one keep/discard "
                "announcement, then only parity traffic"
            )
        parity = self.entries[2:]
        for i, entry in enumerate(parity):
            expected = "parity_query" if i % 2 == 0 else "parity_response"
            if entry["kind"] != expected:
                raise TranscriptOrderError("parity traffic must alternate query/response")
            if entry["payload"]["round"] != i // 2 + 1:
                raise TranscriptOrderError("parity rounds must be numbered consecutively")
        if len(parity) % 2:
            raise TranscriptOrderError("final parity query got no response")
