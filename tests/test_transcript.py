"""Wire-order rules and hygiene of the public discussion record."""

import json

import numpy as np
import pytest

from qkdsim.photons import THREE_STATE, Polarization
from qkdsim.rng import RandomSource
from qkdsim.session import run_session
from qkdsim.transcript import Transcript, TranscriptOrderError, announcements, parity_round


def filters(*degrees):
    return {"sender": "bob", "kind": "filter_announcement", "payload": {"filters": list(degrees)}}


def kept(*positions):
    payload = {"kept": list(positions)}
    return {"sender": "alice", "kind": "confirmation_announcement", "payload": payload}


def query(round_number, *positions):
    payload = {"round": round_number, "positions": list(positions)}
    return {"sender": "alice", "kind": "parity_query", "payload": payload}


def response(round_number, parity):
    payload = {"round": round_number, "parity": parity}
    return {"sender": "bob", "kind": "parity_response", "payload": payload}


def make_basic() -> list:
    return [filters(0, 45), kept(1)]


def test_views_reflect_announcements():
    t = Transcript.from_jsonable(make_basic())
    assert t.announced_filters() == [Polarization.Z0, Polarization.D45]
    assert t.kept_positions() == [1]


def test_phase_order_is_enforced():
    tail = [query(1, 0), response(1, 1)]
    for late in (filters(0), kept(0)):
        with pytest.raises(TranscriptOrderError):
            Transcript.from_jsonable(make_basic() + tail + [late]).check_wire_order()


# Each malformed entry, and the field its error must name.
MALFORMED = {
    "unknown_payload_key": ({**filters(), "payload": {"filters": [], "sent": []}}, "sent"),
    "empty_filter_payload": ({**filters(), "payload": {}}, "filters"),
    "query_without_round": ({**query(1, 0), "payload": {"positions": [0]}}, "round"),
    "alice_filter_announcement": ({**filters(0), "sender": "alice"}, "sender"),
    "bob_confirmation": ({**kept(0), "sender": "bob"}, "sender"),
    "no_payload": ({"sender": "bob", "kind": "filter_announcement"}, "payload"),
    "entry_not_a_dict": (list(filters(0).items()), "entry"),
    "payload_none": ({**filters(), "payload": None}, "payload"),
    "payload_a_list": ({**kept(), "payload": [["kept", [0]]]}, "payload"),
    "kept_an_int": ({**kept(), "payload": {"kept": 5}}, "kept"),
    "filters_with_a_bool": (filters(0, True), "filters"),
    "filters_with_a_float": (filters(0, 45.0), "filters"),
    "positions_a_string": ({**query(1), "payload": {"round": 1, "positions": "0"}}, "positions"),
    "positions_of_strings": (query(1, "0"), "positions"),
    "round_zero": (query(0, 0), "round"),
    "round_a_bool": (query(True, 0), "round"),
    "round_a_string": (response("1", 0), "round"),
    "parity_two": (response(1, 2), "parity"),
    "parity_a_bool": (response(1, False), "parity"),
    "parity_none": (response(1, None), "parity"),
    "unknown_sender": ({**filters(0), "sender": "carol"}, "sender"),
    "unknown_kind": ({**filters(0), "kind": "gossip"}, "kind"),
}


@pytest.mark.parametrize("entry, field", MALFORMED.values(), ids=MALFORMED)
def test_malformed_entries_rejected(entry, field):
    # The reader names the field, before any view or the wire-order check runs.
    with pytest.raises(ValueError, match=field):
        Transcript.from_jsonable(make_basic() + [entry])


@pytest.mark.parametrize(
    "obj, kind",
    [(None, "NoneType"), (5, "int"), ({"sender": "bob"}, "dict")],
    ids=["none", "int", "dict"],
)
def test_transcript_that_is_not_a_list_rejected(obj, kind):
    # A dict would otherwise be read as its keys, and None or an int raise TypeError.
    with pytest.raises(ValueError, match=rf"transcript has type {kind}\b"):
        Transcript.from_jsonable(obj)


def test_check_wire_order_catches_unbalanced_parity():
    t = Transcript.from_jsonable(make_basic() + [query(1, 0)])
    with pytest.raises(TranscriptOrderError):
        t.check_wire_order()


# Transcripts whose opening announcements are missing or repeated.
BAD_OPENINGS = {
    "empty": [],
    "confirmation_without_filters": [kept(0)],
    "two_filter_announcements": [filters(0), filters(45), kept(0)],
    "two_confirmations": [filters(0), kept(0), kept(0)],
    "parity_alone": [query(1, 0), response(1, 1)],
}


@pytest.mark.parametrize("entries", BAD_OPENINGS.values(), ids=BAD_OPENINGS)
def test_check_wire_order_requires_one_of_each_opening_announcement(entries):
    with pytest.raises(TranscriptOrderError):
        Transcript.from_jsonable(entries).check_wire_order()


def test_check_wire_order_catches_bad_round_numbers():
    t = Transcript.from_jsonable(make_basic() + [query(2, 0), response(2, 0)])
    with pytest.raises(TranscriptOrderError):
        t.check_wire_order()


def test_parity_rounds_view():
    t = Transcript.from_jsonable(
        make_basic() + [query(1, 0, 1), response(1, 0), query(2, 1), response(2, 1)]
    )
    t.check_wire_order()
    assert t.parity_rounds() == [(1, [0, 1], 0), (2, [1], 1)]


def test_jsonable_roundtrip():
    entries = make_basic() + [query(1, 0), response(1, 1)]
    clone = Transcript.from_jsonable(json.loads(json.dumps(entries)))
    assert clone.entries == Transcript.from_jsonable(entries).entries
    assert clone.announced_filters() == [Polarization.Z0, Polarization.D45]
    assert clone.parity_rounds() == [(1, [0], 1)]


def test_session_transcript_never_leaks_private_data():
    # The public record carries filter angles, kept positions and parity
    # traffic — never the sent polarizations or raw readings.
    serialized = run_session(THREE_STATE, 200, RandomSource(31)).transcript
    allowed = {"filters", "kept", "round", "positions", "parity"}
    for entry in serialized:
        assert set(entry["payload"]) <= allowed
    text = json.dumps(serialized)
    assert "sent" not in text
    assert "outcome" not in text


def test_session_transcript_passes_wire_order():
    transcript = run_session(THREE_STATE, 50, RandomSource(5)).transcript
    Transcript.from_jsonable(transcript).check_wire_order()


def test_announced_filters_names_an_unknown_angle():
    transcript = Transcript.from_jsonable([filters(0, 30, 45)])
    with pytest.raises(ValueError, match=r"\b30 degrees"):
        transcript.announced_filters()


def test_writers_round_trip_through_the_reader():
    Z0, D45, Z90 = Polarization.Z0, Polarization.D45, Polarization.Z90
    entries = announcements(np.array([0, 1, 2, 1], dtype=np.int8), np.array([0, 2, 3]))
    for round_number, positions, parity in [(1, [0, 3], 1), (2, [2], 0)]:
        entries += parity_round(round_number, np.array(positions), parity)
    t = Transcript.from_jsonable(json.loads(json.dumps(entries)))
    t.check_wire_order()
    assert t.announced_filters() == [Z0, D45, Z90, D45]
    assert t.kept_positions() == [0, 2, 3]
    assert t.parity_rounds() == [(1, [0, 3], 1), (2, [2], 0)]
