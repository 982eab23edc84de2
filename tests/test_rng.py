"""The lane-parallel SplitMix64 kernel gives the scalar generator's values."""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slasim.rng import splitmix64, splitmix64_lanes

TOP = 2**64 - 1
KEYS = st.one_of(st.sampled_from([0, 1, TOP, 2**63]), st.integers(0, TOP))
# a period past 64 bits draws as its low 64 bits do, as the scalar does
PERIODS = (0, 1, 2**63, 2**130 + 5)


@pytest.mark.parametrize("lanes", [0, 1, 2, 450])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), period=st.integers(0, TOP))
def test_kernel_equals_scalar_splitmix64(lanes, data, period):
    # keys as raw bytes: drawing 450 separate integers is slow to generate
    raw = data.draw(st.binary(min_size=8 * lanes, max_size=8 * lanes))
    keys = struct.unpack(f"<{lanes}Q", raw)
    draws = splitmix64_lanes(keys)
    for p in PERIODS + (period,):
        assert list(draws(p)) == [splitmix64(key ^ p) for key in keys]


@given(keys=st.lists(KEYS, max_size=8))
@example(keys=[TOP] * 3)
@example(keys=[0, TOP, 0, TOP])
def test_extreme_keys_and_periods(keys):
    # all-ones lanes are where a carry or a shifted-in bit would show first
    draws = splitmix64_lanes(keys)
    for p in PERIODS + (TOP,):
        assert draws(p) == tuple(splitmix64(key ^ p) for key in keys)


def test_no_lanes_draws_nothing():
    assert splitmix64_lanes([])(5) == ()
