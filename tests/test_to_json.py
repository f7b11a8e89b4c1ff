"""The canonical encoder against the standard library's indented json.dumps."""

import enum
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdsim import harness
from qkdsim.cli import main
from qkdsim.harness import to_json


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 4097


class Key(str):
    pass


class Items(list):
    pass


class Table(dict):
    pass


def stdlib(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, 1e16, -1e16, 1e15, 5e-324, 1e-7, 0.1, 1 / 3, 1.7976931348623157e308]
    + [math.nan, math.inf, -math.inf]
)
# Halfway between two 6-decimal values, where "%.6f" and repr part ways.
ROUNDING_EDGE = st.integers(-(10**7), 10**7).map(lambda k: (k + 0.5) / 1e6)
STRINGS = st.text() | st.sampled_from(["", "é", "\x00\x1f\x7f", '"\\/', " \ud800", "😀\n\t"])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    EDGE_FLOATS,
    ROUNDING_EDGE,
    STRINGS,
)
MIXED_LISTS = st.lists(st.one_of(st.integers(), st.booleans(), st.floats(), st.none()))
TREES = st.recursive(
    SCALARS | MIXED_LISTS | st.lists(st.integers()),
    lambda children: st.lists(children, max_size=5)
    | st.tuples(children, children)
    | st.dictionaries(STRINGS, children, max_size=5),
    max_leaves=40,
)


# 300 examples, or more under a profile that asks for more (--hypothesis-profile=deep).
@settings(max_examples=max(300, settings.default.max_examples))
@given(TREES)
@example({"a": [[], {}, [[{}]], {"b": {"c": []}}]})
@example([1, True])
@example([True, 1, 2])
@example([1, 2.0, None])
@example({"big": [-(2**100), 2**64, -1, 0]})
# Edges of the decimal table for small non-negative ints.
@example([4095, 4096])
@example([-1, 0, 1])
@example([0, 4095])
@example([i % 4096 for i in range(9_999)] + [4096])
@example([3, True])
# Past the table's end, below its start, and items equal to an int in the
# table that are not exact ints.
@example([4095, 4096, 8191])
@example([-1, 0, 4095])
@example([1, True, 0])
@example([0, 1.0])
@example([Level.LOW, Level.HIGH, 0])
@example((7, "seven"))
# Single items: itemgetter with one key returns the item, not a tuple.
@example([5])
@example((5,))
@example([4096])
@example([-1])
@example([True])
@example([5.0])
# One key set in two insertion orders, and at two depths: each is its own shape.
@example({"a": {"x": 1, "y": [2, 3]}, "b": {"y": [4], "x": "z"}})
@example({"x": 0, "y": {"x": 1, "y": {"x": 2, "y": None}}})
# A str-subclass key renders as the equal plain key, before or after it.
@example([{"k": 1, "j": 2}, {Key("k"): 3, "j": 4}, {Key("j"): 5}, {"j": 6}])
# Every kind of dict value.
@example({"s": "é", "i": -7, "b": True, "f": 0.5, "n": None, "l": [1]})
# Values json.dumps renders, two levels down, spliced in at their indent.
@example({"a": {"nan": math.nan, "low": -math.inf, "x": 1}})
@example({"a": [[0, Level.HIGH], ["b", [Level.HIGH]]]})
@example({"a": {"p": np.float64(0.25), "q": 0.25}})
@example({"a": [Items([[1, 2], [], [[3]]]), Table({"k": [[4], {"j": [5, "x"]}], "e": []})]})
# A dict subclass with non-str keys renders as json.dumps renders it.
@example({"a": [Table({2: [[1]], 1: "one"})]})
def test_to_json_matches_stdlib(document):
    assert to_json(document) == stdlib(document)


def test_int_subclasses_leave_the_fast_path():
    assert to_json([0, 1, False, True]) == stdlib([0, 1, False, True])
    assert "true" in to_json({"x": [2, True]})


@pytest.mark.parametrize(
    "document",
    [{1: "one"}, {"a": {None: 0}}, {"a": np.int64(3)}, [np.int64(1), 2], {"a": [1, np.float32(0.5)]}],
    ids=["int-key", "none-key", "np-int64", "np-int64-in-list", "np-float32"],
)
def test_to_json_rejects_what_it_cannot_render(document):
    with pytest.raises(TypeError):
        to_json(document)


def test_non_str_key_leaves_nothing_in_the_shape_table():
    with mock.patch.dict(harness._SHAPES, clear=True):
        assert to_json({"1": 0}) == stdlib({"1": 0})
        shapes = dict(harness._SHAPES)
        for document in ({1: 0}, {"1": 0, 2: 0}):
            with pytest.raises(TypeError):
                to_json(document)
        assert harness._SHAPES == shapes


def test_shape_table_holds_its_bound():
    documents = [{f"k{i}": i, "nested": {f"j{i}": [i, i + 1]}} for i in range(12)]
    with mock.patch.object(harness, "_SHAPE_LIMIT", 5), mock.patch.dict(harness._SHAPES, clear=True):
        for document in documents + documents:
            assert to_json(document) == stdlib(document)
            assert len(harness._SHAPES) <= 5
        assert len(harness._SHAPES) == 5


def _simulate(protocol, *flags, n="300"):
    argv = ["simulate", "--protocol", protocol, "--n", n, "--trials", "2"]
    return argv + ["--include-transcripts", *flags]


BB84_ATTACKED = ("--m", "10", "--attack", "intercept")


# Every kind of document the CLI writes, with transcripts, aborts and short keys.
REPORTS = {
    "three-state": _simulate("three-state"),
    "three-state-attacked": _simulate("three-state", "--attack", "intercept", "--seed", "2"),
    "bb84": _simulate("bb84", "--m", "10"),
    "bb84-attacked": _simulate("bb84", *BB84_ATTACKED, "--fraction", "0.3"),
    "no-abort-on-tamper": _simulate("bb84", *BB84_ATTACKED, "--no-abort-on-tamper"),
    "key-too-short": _simulate("bb84", "--m", "100", n="5"),
    "analyze": ["analyze"],
    "compare": ["compare", "--n", "360", "--m", "20"],
    "compare-small": ["compare", "--n", "7", "--m", "1"],
    "attack-sweep": ["attack-sweep", "--n", "90", "--fractions", "1.0,0.5", "--format", "json"],
}
# Reports whose trial aborts on a detected tamper, for which the CLI exits with 2.
ABORTED = {"three-state-attacked", "bb84-attacked"}


@pytest.mark.parametrize("name", REPORTS)
def test_reports_stay_on_the_fast_path(capsys, name):
    # A report value that only json.dumps can render would cost a call per value.
    argv = REPORTS[name]
    assert main(argv) == (2 if name in ABORTED else 0)
    expected = capsys.readouterr().out
    fallback = AssertionError("fell back to json.dumps")
    with mock.patch.object(harness.json, "dumps", side_effect=fallback):
        main(argv)
        out = capsys.readouterr().out
    assert out == expected == stdlib(json.loads(expected))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["compare", "--n", "360", "--m", "20"],
        ["attack-sweep", "--n", "300", "--seed", "4", "--fractions", "1.0,0.5", "--format", "json"],
    ],
    ids=["analyze", "compare-crossover", "attack-sweep"],
)
def test_cli_documents_render_as_stdlib(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == stdlib(json.loads(out))
