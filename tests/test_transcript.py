"""Wire-order rules and hygiene of the public discussion record."""

import json

import pytest

from qkdsim.photons import THREE_STATE, Polarization
from qkdsim.rng import RandomSource
from qkdsim.session import run_session
from qkdsim.transcript import (
    EntryKind,
    Party,
    Transcript,
    TranscriptEntry,
    TranscriptOrderError,
)


def make_basic() -> Transcript:
    t = Transcript()
    t.announce_filters([0, 45])
    t.announce_kept([1])
    return t


def test_views_reflect_announcements():
    t = make_basic()
    assert t.announced_filters() == [Polarization.Z0, Polarization.D45]
    assert t.kept_positions() == [1]


def test_phase_order_is_enforced():
    t = make_basic()
    t.parity_query(1, [0])
    t.parity_response(1, 1)
    with pytest.raises(TranscriptOrderError):
        t.announce_filters([0])
    with pytest.raises(TranscriptOrderError):
        t.announce_kept([0])


def test_unknown_payload_keys_rejected():
    t = Transcript()
    with pytest.raises(ValueError):
        t.append(
            TranscriptEntry(
                Party.BOB, EntryKind.FILTER_ANNOUNCEMENT, {"filters": [], "sent": []}
            )
        )


def test_check_wire_order_catches_unbalanced_parity():
    t = make_basic()
    t.parity_query(1, [0])
    with pytest.raises(TranscriptOrderError):
        t.check_wire_order()


def test_check_wire_order_catches_bad_round_numbers():
    t = make_basic()
    t.parity_query(2, [0])
    t.parity_response(2, 0)
    with pytest.raises(TranscriptOrderError):
        t.check_wire_order()


def test_parity_rounds_view():
    t = make_basic()
    t.parity_query(1, [0, 1])
    t.parity_response(1, 0)
    t.parity_query(2, [1])
    t.parity_response(2, 1)
    t.check_wire_order()
    assert t.parity_rounds() == [(1, [0, 1], 0), (2, [1], 1)]


def test_parity_response_validates_bit():
    t = make_basic()
    t.parity_query(1, [0])
    with pytest.raises(ValueError):
        t.parity_response(1, 2)


def test_jsonable_roundtrip():
    t = make_basic()
    t.parity_query(1, [0])
    t.parity_response(1, 1)
    clone = Transcript.from_jsonable(json.loads(json.dumps(t.to_jsonable())))
    assert clone.to_jsonable() == t.to_jsonable()
    assert clone.announced_filters() == t.announced_filters()


def test_session_transcript_never_leaks_private_data():
    # The public record carries filter angles, kept positions and parity
    # traffic — never the sent polarizations or raw readings.
    session = run_session(THREE_STATE, 200, RandomSource(31))
    serialized = session.transcript.to_jsonable()
    allowed = {"filters", "kept", "round", "positions", "parity"}
    for entry in serialized:
        assert set(entry["payload"]) <= allowed
    text = json.dumps(serialized)
    assert "sent" not in text
    assert "outcome" not in text


def test_session_transcript_passes_wire_order():
    run_session(THREE_STATE, 50, RandomSource(5)).transcript.check_wire_order()


def test_filter_announcement_rejects_unknown_angles():
    with pytest.raises(ValueError, match=r"\[30\]"):
        Transcript().announce_filters([0, 30, 45])


def test_announced_filters_names_an_unknown_angle():
    entry = {"sender": "bob", "kind": "filter_announcement", "payload": {"filters": [0, 30, 45]}}
    transcript = Transcript.from_jsonable([entry])
    with pytest.raises(ValueError, match=r"\b30 degrees"):
        transcript.announced_filters()
