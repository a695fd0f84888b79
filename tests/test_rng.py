"""Tests for the splitmix64 stream: the in-place batch draws match their
plain expression form bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fewshift.rng import SplitMix64
from oracles import SplitMix64Reference

seeds = st.integers(0, 2**64 - 1)
counters = st.integers(0, 20_000)
sizes = st.integers(1, 7_000)


def at_counter(seed: int, counter: int) -> SplitMix64:
    rng = SplitMix64(seed)
    rng.u64(counter)
    return rng


@settings(max_examples=60, deadline=None)
@given(seed=seeds, counter=counters, n=sizes, draw=st.sampled_from(["u64", "uniforms", "gaussians"]))
@example(seed=0, counter=0, n=1, draw="gaussians")
@example(seed=2**64 - 1, counter=0, n=7_000, draw="gaussians")
@example(seed=12345, counter=3, n=6_999, draw="gaussians")
@example(seed=12345, counter=3, n=6_999, draw="uniforms")
def test_draws_bit_identical_to_reference(seed, counter, n, draw):
    fast = getattr(at_counter(seed, counter), draw)(n)
    reference = getattr(SplitMix64Reference(seed, counter), draw)(n)
    assert fast.dtype == reference.dtype and fast.shape == (n,)
    assert fast.tobytes() == reference.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=seeds, sizes=st.lists(st.integers(1, 300), min_size=1, max_size=8))
def test_interleaved_draws_share_one_stream(seed, sizes):
    fast, reference = SplitMix64(seed), SplitMix64Reference(seed)
    for i, n in enumerate(sizes):
        draw = ("u64", "uniforms", "gaussians")[i % 3]
        assert getattr(fast, draw)(n).tobytes() == getattr(reference, draw)(n).tobytes()


def test_uniform_range_and_gaussian_moments():
    rng = SplitMix64(7)
    u = rng.uniforms(20_000)
    assert 0.0 <= u.min() and u.max() < 1.0
    g = rng.gaussians(20_001)
    assert np.isfinite(g).all()
    assert abs(g.mean()) < 0.03 and abs(g.std() - 1.0) < 0.03


def test_randint_needs_a_positive_bound():
    with pytest.raises(ValueError, match="bound must be positive") as err:
        SplitMix64(7).randint(0)
    assert err.type is ValueError
