"""The squared norms shared across the semantic front end and the
centroid-by-point distance layout of K-means: the same bits as the calls
that compute their own norms, ties to the lowest index, and the
plain-Lloyd oracle on float32-valued points with tied centroids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewshift.numkit import _nearest, farthest_first_init, kmeans, squared_norms
from fewshift.rng import SplitMix64
from oracles import kmeans_reference


def blobs(rng, clusters, n, d, spread):
    centers = 3.0 * rng.normal(size=(clusters, d))
    return centers[rng.integers(clusters, size=n)] + spread * rng.normal(size=(n, d))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 150),
    d=st.integers(1, 12),
    k=st.integers(1, 10),
    clusters=st.integers(1, 6),
    spread=st.sampled_from([0.0, 1e-6, 0.1, 1.0]),
)
def test_passed_norms_give_the_same_bits(seed, n, d, k, clusters, spread):
    # the engine computes the squared norms once per episode and hands
    # them down; a run given them is the run that computes its own
    rng = np.random.default_rng(seed)
    k = min(k, n)
    pts = blobs(rng, clusters, n, d, spread)
    norms = squared_norms(pts)
    assert np.array_equal(np.sqrt(norms), np.linalg.norm(pts, axis=1))
    init = farthest_first_init(pts, k, SplitMix64(seed))
    assert np.array_equal(farthest_first_init(pts, k, SplitMix64(seed), sq_norms=norms), init)
    got, want = kmeans(pts, k, init, sq_norms=norms), kmeans(pts, k, init)
    assert np.array_equal(got.assignments, want.assignments)
    assert np.array_equal(got.centroids, want.centroids)
    assert (got.inertia, got.iterations, got.distance_rows) == (
        want.inertia, want.iterations, want.distance_rows
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 300), n=st.integers(1, 40),
       levels=st.integers(1, 4))
def test_nearest_is_argmin_over_the_centroid_axis(seed, k, n, levels):
    # few distinct values, so most columns tie; k past 255 takes wider weights
    d2 = np.random.default_rng(seed).integers(levels, size=(k, n)).astype(np.float64)
    first_hit = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    assert np.array_equal(_nearest(d2, first_hit), d2.argmin(axis=0))


@pytest.mark.parametrize("seed", range(4))
def test_float32_points_on_tied_centroids_go_to_lowest_index(seed):
    # float32-valued points, each centroid given twice and a third copy of
    # the first: every point ties exactly between the copies, so the first
    # pass leaves every later copy empty and the reseeds match the oracle's
    rng = np.random.default_rng(500 + seed)
    pts = blobs(rng, 3, 120, 6, spread=1.0).astype(np.float32).astype(np.float64)
    base = farthest_first_init(pts, 3, SplitMix64(seed))
    init = np.vstack([base, base, base[:1]])
    assert kmeans(pts, 7, init, max_iter=1).assignments.max() >= 3  # reseeds reached the copies
    for max_iter in (1, 2, 100):
        got, want = kmeans(pts, 7, init, max_iter=max_iter), kmeans_reference(pts, 7, init, max_iter)
        assert np.array_equal(got.assignments, want.assignments)
        assert got.iterations == want.iterations
        assert np.array_equal(got.centroids, want.centroids)
        assert got.inertia == want.inertia
