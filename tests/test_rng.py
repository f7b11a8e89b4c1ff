"""Determinism and stream-independence checks for the random source.

The scalar helpers (``uniforms``, ``below``, ``choice``) belong to the
photon-by-photon reference path in ``tests/reference.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.rng import RandomSource, derive_child_seed
from reference import below, choice, uniforms


def test_same_seed_same_stream():
    a = RandomSource(1234)
    b = RandomSource(1234)
    assert uniforms(a, 100) == uniforms(b, 100)


def test_different_seeds_differ():
    assert uniforms(RandomSource(1), 8) != uniforms(RandomSource(2), 8)


def test_uniform_range():
    rng = RandomSource(5)
    values = uniforms(rng, 10_000)
    assert all(0.0 <= v < 1.0 for v in values)


def test_buffer_refill_matches_one_at_a_time():
    # Cross the internal block boundary and compare against a twin that
    # draws the same count via the bulk helper.
    n = 4096 * 2 + 517
    a = RandomSource(99)
    b = RandomSource(99)
    assert [a.uniform() for _ in range(n)] == uniforms(b, n)


def test_below_matches_uniform_comparison():
    a = RandomSource(7)
    b = RandomSource(7)
    flags = [below(a, 0.3) for _ in range(1000)]
    values = uniforms(b, 1000)
    assert flags == [v < 0.3 for v in values]


def test_choice_consumes_one_variate():
    a = RandomSource(11)
    b = RandomSource(11)
    seq = ("x", "y", "z")
    picks = [choice(a, seq) for _ in range(500)]
    values = uniforms(b, 500)
    assert picks == [seq[int(v * 3)] for v in values]


def test_choice_covers_all_members():
    rng = RandomSource(3)
    seen = {choice(rng, (0, 1, 2)) for _ in range(200)}
    assert seen == {0, 1, 2}


def test_child_streams_are_stable_and_independent():
    parent = RandomSource(42)
    early = uniforms(parent.child(0), 5)
    uniforms(parent, 1000)  # consuming the parent must not move the children
    late = uniforms(parent.child(0), 5)
    assert early == late
    assert uniforms(parent.child(0), 5) != uniforms(parent.child(1), 5)


def test_child_matches_derive_child_seed():
    parent = RandomSource(42)
    assert uniforms(parent.child(3), 4) == uniforms(RandomSource(derive_child_seed(42, 3)), 4)


def test_derive_child_seed_rejects_negative_index():
    with pytest.raises(ValueError, match="index: child index must be >= 0, got -1"):
        derive_child_seed(1, -1)


@given(seed=st.integers(min_value=0, max_value=2**64 - 1), index=st.integers(0, 2**32))
def test_derive_child_seed_is_a_64_bit_value(seed, index):
    child = derive_child_seed(seed, index)
    assert 0 <= child < 2**64


@given(seed=st.integers(min_value=0, max_value=2**32), index=st.integers(0, 1000))
@settings(max_examples=50)
def test_derive_child_seed_deterministic(seed, index):
    assert derive_child_seed(seed, index) == derive_child_seed(seed, index)


def test_sibling_seeds_distinct():
    seeds = {derive_child_seed(123, i) for i in range(10_000)}
    assert len(seeds) == 10_000


def test_bulk_draw_is_a_float64_array_of_the_scalar_stream():
    a = RandomSource(8)
    b = RandomSource(8)
    block = a.uniform_array(300)
    assert block.dtype == np.float64
    assert block.tolist() == [b.uniform() for _ in range(300)]


def test_scalar_and_bulk_draws_interleave_across_block_boundaries():
    # Sizes chosen so bulk draws start inside a block, end exactly on a
    # boundary, straddle one and span several whole blocks.
    sizes = [1, 4090, 5, 1, 4096, 3, 9000, 2, 0, 4097, 1]
    a = RandomSource(2024)
    b = RandomSource(2024)
    mixed = []
    for i, k in enumerate(sizes):
        if i % 2:
            mixed.extend(a.uniform_array(k).tolist())
        else:
            mixed.extend(a.uniform() for _ in range(k))
    assert mixed == [b.uniform() for _ in range(sum(sizes))]


def test_bulk_draw_of_zero_consumes_nothing():
    a = RandomSource(31)
    b = RandomSource(31)
    assert a.uniform_array(0).size == 0  # before any block is drawn
    a.uniform()
    b.uniform()
    assert a.uniform_array(0).size == 0  # inside a block
    assert uniforms(a, 0) == []
    assert uniforms(a, 5000) == uniforms(b, 5000)


def test_bulk_draw_rejects_negative_count():
    with pytest.raises(ValueError, match="k: variate count must be >= 0, got -1"):
        RandomSource(0).uniform_array(-1)


@pytest.mark.parametrize("k", [0, 1, 4097, 10**6])
def test_skip_leaves_the_stream_where_a_discarded_draw_would(k):
    a = RandomSource(404)
    b = RandomSource(404)
    assert a.uniform() == b.uniform()
    a.skip(k)
    assert a.uniform_array(7).tolist() == b.uniform_array(k + 7)[k:].tolist()
    assert a.uniform() == b.uniform()
    a.skip(k)
    b.uniform_array(k)
    assert a.uniform() == b.uniform()
    assert uniforms(a, 300) == uniforms(b, 300)


def test_skip_rejects_negative_count_as_a_draw_does():
    with pytest.raises(ValueError) as draw:
        RandomSource(0).uniform_array(-1)
    with pytest.raises(ValueError) as skip:
        RandomSource(0).skip(-1)
    assert str(skip.value) == str(draw.value)


def test_split_source_builds_no_generator():
    # A trial source is only split into children; its generator is built on
    # the first draw or skip, and the children's streams do not depend on it.
    parent = RandomSource(42)
    children = [parent.child(i) for i in range(3)]
    assert parent._gen is None
    assert all(child._gen is None for child in children)
    assert [child.uniform_array(2).tolist() for child in children] == [
        [0.5860378445322234, 0.2550673877749484],
        [0.9421072277626058, 0.8269711560940048],
        [0.23375976098214946, 0.36056198459052213],
    ]
    assert parent._gen is None
    first_skip = RandomSource(42)
    first_skip.skip(3)
    assert first_skip.uniform() == RandomSource(42).uniform_array(4)[3]


@pytest.mark.parametrize("k", [0, 1, 4097])
def test_unread_gives_back_the_last_draws(k):
    a = RandomSource(404)
    stream = RandomSource(404).uniform_array(k + 8).tolist()
    assert a.uniform_array(k + 5).tolist() == stream[: k + 5]
    a.unread(k)
    assert a.uniform_array(k + 3).tolist() == stream[5:]


def test_unread_rejects_negative_count_as_a_draw_does():
    with pytest.raises(ValueError) as draw:
        RandomSource(0).uniform_array(-1)
    with pytest.raises(ValueError) as unread:
        RandomSource(0).unread(-1)
    assert str(unread.value) == str(draw.value)
