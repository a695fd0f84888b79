"""Tests for cluster-count selection, task clustering, and the quadrant fold."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from fewshift.numkit import cosine_matrix, farthest_first_init, kmeans, squared_norms
from fewshift.rng import SplitMix64
from fewshift.semantic import (
    block_split_concat,
    cluster_task,
    fuse_centroids,
    select_cluster_count,
    semantic_map,
)
from fewshift.synthgen import SynthConfig, generate_episode
from oracles import singular_values, svd_cluster_count


def matrix_with_spectrum(rng, n, cols, spectrum):
    """Rows whose mean-centered singular values equal the given spectrum."""
    r = len(spectrum)
    ones = np.ones(n) / math.sqrt(n)
    cand = rng.normal(size=(n, r))
    cand -= np.outer(ones, ones @ cand)  # keep column means exactly zero
    u, _ = np.linalg.qr(cand)
    v, _ = np.linalg.qr(rng.normal(size=(cols, r)))
    return (u * np.asarray(spectrum)) @ v.T


@pytest.mark.parametrize("locals_matrix, bounds, message", [
    (np.zeros((6, 3)), {"k_min": 5, "k_max": 4}, "k_min exceeds k_max"),
    (np.zeros(6), {}, "expected a 2-D matrix"),
], ids=["k_min-above-k_max", "one-dimensional"])
def test_cluster_count_arguments_checked(locals_matrix, bounds, message):
    with pytest.raises(ValueError, match=message) as err:
        select_cluster_count(locals_matrix, **bounds)
    assert err.type is ValueError


class TestSelectClusterCount:
    def test_constructed_spectrum(self):
        rng = np.random.default_rng(0)
        m = matrix_with_spectrum(rng, 40, 12, [10.0, 5.0, 1.0, 0.1])
        assert select_cluster_count(m, tau_rel=0.2, k_min=2, k_max=8) == 2

    def test_degenerate_rows(self):
        m = np.tile([1.0, 2.0, 3.0], (10, 1))
        assert select_cluster_count(m, k_min=2, k_max=8) == 2

    def test_high_threshold_hits_floor(self):
        m = np.random.default_rng(1).normal(size=(30, 6))
        assert select_cluster_count(m, tau_rel=0.999, k_min=2, k_max=8) == 2

    def test_clamps_to_k_max(self):
        m = np.random.default_rng(2).normal(size=(50, 10))
        assert select_cluster_count(m, tau_rel=0.01, k_min=2, k_max=3) == 3

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(3)
        m = matrix_with_spectrum(rng, 30, 8, [8.0, 4.0, 2.0, 0.05])
        k = select_cluster_count(m, tau_rel=0.3, k_min=2, k_max=8)
        perm = rng.permutation(30)
        assert select_cluster_count(m[perm], tau_rel=0.3, k_min=2, k_max=8) == k

    def test_rotation_invariant(self):
        rng = np.random.default_rng(4)
        m = matrix_with_spectrum(rng, 30, 8, [8.0, 4.0, 2.0, 0.05])
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        k = select_cluster_count(m, tau_rel=0.3, k_min=2, k_max=8)
        assert select_cluster_count(m @ q, tau_rel=0.3, k_min=2, k_max=8) == k

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            select_cluster_count(np.zeros((5, 3)), tau_rel=1.5)


    def test_nonfinite_rejected(self):
        m = np.ones((6, 3))
        m[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            select_cluster_count(m)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 200),
    cols=st.integers(1, 64),
    tau_rel=st.floats(0.01, 0.99),
    offset=st.floats(-100.0, 100.0),
)
def test_gram_count_matches_svd_on_random_locals(seed, n, cols, tau_rel, offset):
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.uniform(-3.0, 3.0, size=cols))
    m = offset + rng.normal(size=(n, cols)) * scales
    want = svd_cluster_count(m, tau_rel, 2, 64)
    assert select_cluster_count(m, tau_rel, 2, 64) == want


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tau_rel=st.floats(0.02, 0.9),
    above=st.integers(0, 6),
    below=st.integers(1, 6),
    side=st.sampled_from([1.0 + 1e-6, 1.0 - 1e-6]),
    sigma1=st.floats(1e-3, 1e3),
)
def test_gram_count_near_threshold(seed, tau_rel, above, below, side, sigma1):
    """A singular value 1e-6 (relative) off tau_rel * sigma_1 lands on the
    same side of it for the Gram route as for the SVD."""
    rng = np.random.default_rng(seed)
    thresh = tau_rel * sigma1
    spectrum = np.concatenate([
        [sigma1],
        rng.uniform(thresh * 1.01, sigma1, size=above),
        [thresh * side],
        rng.uniform(0.0, thresh * 0.99, size=below),
    ])
    spectrum = np.sort(spectrum)[::-1]
    m = matrix_with_spectrum(rng, 80, 24, spectrum)
    expected = 1 + above + (1 if side > 1.0 else 0)
    assert svd_cluster_count(m, tau_rel, 1, 64) == expected
    assert select_cluster_count(m, tau_rel, 1, 64) == expected


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 400),
    tau_rel=st.floats(0.02, 0.9),
    above=st.integers(0, 5),
    below=st.integers(0, 5),
    near=st.sampled_from([None, 2e-6, -2e-6, 1e-5, -1e-5]),
    offset_exp=st.floats(-1.0, 5.0),
    sigma1=st.floats(1e-3, 1e3),
)
def test_gram_count_matches_centred_svd_near_threshold_and_offset(
    seed, n, tau_rel, above, below, near, offset_exp, sigma1
):
    """The fragile spot of the uncentered Gram X^T X - n mu mu^T: a
    singular-value ratio a little off tau_rel, under a common offset up to
    1e5 times the spread sigma_1 / sqrt(n) of the top direction.  Whenever
    no ratio of the centered SVD lies within 1e-6 of tau_rel, the count
    equals that SVD's."""
    rng = np.random.default_rng(seed)
    thresh = tau_rel * sigma1
    spectrum = [sigma1, *rng.uniform(thresh * 1.01, sigma1, size=above),
                *rng.uniform(0.0, thresh * 0.99, size=below)]
    if near is not None:
        spectrum.append(sigma1 * (tau_rel + near))
    m = matrix_with_spectrum(rng, n, 16, np.sort(spectrum)[::-1])
    direction = rng.normal(size=16)
    m += direction * (10.0**offset_exp * sigma1 / math.sqrt(n) / np.linalg.norm(direction))
    sv = singular_values(m - m.mean(axis=0))
    assume(np.abs(sv / sv[0] - tau_rel).min() > 1e-6)
    assert select_cluster_count(m, tau_rel, 1, 64) == svd_cluster_count(m, tau_rel, 1, 64)


def test_large_offset_keeps_the_count():
    """At a common offset of 1e5 spreads an uncentered Gram moves a ratio
    at tau_rel = 0.02 by about 5e-5, so a value 2e-6 below the threshold
    would count on most of these seeds; the count must stay the SVD's."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        m = matrix_with_spectrum(rng, 400, 16, [1.0, 0.5, 0.1, 0.02 - 2e-6, 0.01])
        direction = rng.normal(size=16)
        m += direction * (1e5 / math.sqrt(400) / np.linalg.norm(direction))
        assert svd_cluster_count(m, 0.02, 1, 64) == 3
        assert select_cluster_count(m, 0.02, 1, 64) == 3


def test_exact_tie_counts_within_rounding():
    """At sigma_i == tau_rel * sigma_1 exactly (in the construction) the
    computed values differ from the tie by last-bit rounding, and that
    rounding decides whether the tied value counts.  Both routes land on
    one of the two neighbouring counts, and on some seeds they disagree,
    so which one is not pinned."""
    tau_rel = 0.25
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = matrix_with_spectrum(rng, 60, 16, [8.0, 5.0, 2.0, 1.0, 0.5])
        sv = singular_values(m - m.mean(axis=0))
        assert abs(sv[2] - tau_rel * sv[0]) <= 1e-13 * sv[0]
        assert svd_cluster_count(m, tau_rel, 1, 64) in (2, 3)
        assert select_cluster_count(m, tau_rel, 1, 64) in (2, 3)


class TestFuseCentroids:
    def test_orthonormal_self_attention_keeps_direction(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        rows = q[:4]
        out = fuse_centroids(rows, rows)
        cos = (out * rows).sum(axis=1)
        assert np.all(cos >= 1.0 / math.sqrt(2.0))

    def test_output_rows_unit_norm(self):
        rng = np.random.default_rng(8)
        out = fuse_centroids(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def blob_points(rng, center, n, spread=1e-7):
    return center + spread * rng.normal(size=(n, len(center)))


class TestClusterTask:
    def test_two_blob_merge_recovers_means(self):
        rng = np.random.default_rng(9)
        pts = np.vstack([
            blob_points(rng, np.array([2.0, 0.0, 0.0]), 20),
            blob_points(rng, np.array([0.0, 3.0, 0.0]), 20),
        ])
        cents = cluster_task(pts, pts.copy(), 2)
        blob_means = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        cost = -cosine_matrix(cents, blob_means)
        rows, cols = linear_sum_assignment(cost)
        for i, j in zip(rows, cols):
            assert np.allclose(cents[i], blob_means[j], atol=1e-6)

    def test_each_side_is_plain_kmeans(self):
        # without a warm start each side is farthest-first from the fixed
        # seed plus Lloyd, and the task centroids are their matched average
        from fewshift.semantic import _INIT_SEED, _merge_match_average

        rng = np.random.default_rng(10)
        support = rng.normal(size=(60, 5))
        query = rng.normal(size=(40, 5))
        cents = cluster_task(support, query, 3)
        sides = [
            kmeans(points, 3, farthest_first_init(points, 3, SplitMix64(_INIT_SEED))).centroids
            for points in (support, query)
        ]
        assert np.array_equal(cents, _merge_match_average(*sides))

    def test_match_average_keeps_k(self):
        rng = np.random.default_rng(12)
        cents = cluster_task(rng.normal(size=(30, 4)), rng.normal(size=(30, 4)), 3)
        assert cents.shape == (3, 4)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        support = rng.normal(size=(50, 6))
        query = rng.normal(size=(50, 6))
        a = cluster_task(support, query, 4)
        b = cluster_task(support, query, 4)
        assert np.array_equal(a, b)

    def test_planted_parts_recovered(self):
        sigma_p = 0.05
        cfg = SynthConfig(seed=31, n_way=1, n_query=12, height=8, width=8,
                          channels=32, parts_per_class=4, part_noise=sigma_p,
                          pixel_noise=0.05, shift_strength=0.0, distractor_rate=0.0)
        episode, truth = generate_episode(cfg)
        d = 32
        support_locals = np.vstack(
            [np.asarray(m, float).reshape(-1, d) for grp in episode.support for m in grp]
            + [np.asarray(m, float).reshape(-1, d) for m in episode.query_source]
        )
        query_locals = np.vstack(
            [np.asarray(m, float).reshape(-1, d) for m in episode.query_target]
        )
        cents = cluster_task(support_locals, query_locals, 4)
        prototypes = truth.prototypes[0]
        dist = np.linalg.norm(
            cents[:, None, :] - prototypes[None, :, :], axis=2
        )
        rows, cols = linear_sum_assignment(dist)
        assert len(set(cols)) == 4  # one distinct prototype per centroid
        radius = 3.0 * sigma_p * math.sqrt(d)
        assert dist[rows, cols].max() <= radius

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            cluster_task(np.zeros((2, 3)), np.zeros((10, 3)), 3)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    side=st.integers(1, 5),
    d=st.integers(2, 24),
    k=st.integers(2, 6),
    zero_rows=st.booleans(),
)
def test_passed_norms_give_the_cosine_matrix_bits(seed, n, side, d, k, zero_rows):
    # float32-valued locals as the engine embeds them, a zero local among
    # them; the map and the clustering given the squared norms equal the
    # cosine_matrix path and the calls that compute their own
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(n, side, side, d)).astype(np.float32).astype(np.float64)
    if zero_rows:
        images[0, 0, 0] = 0.0
    flat = images.reshape(-1, d)
    cents = rng.normal(size=(k, d))
    norms = squared_norms(flat)
    want = cosine_matrix(flat, cents).reshape(n, side, side, k)
    assert np.array_equal(semantic_map(images, cents, norms), want)
    assert np.array_equal(semantic_map(images, cents), want)
    split = len(flat) // 2
    if min(split, len(flat) - split) >= 2:
        pools = flat[:split], flat[split:]
        got = cluster_task(*pools, 2, sq_norms=(norms[:split], norms[split:]))
        assert np.array_equal(got, cluster_task(*pools, 2))


class TestSemanticMap:
    def test_exact_centroid_match_scores_one(self):
        cents = np.array([[1.0, 0.0], [0.0, 1.0]])
        img = np.zeros((2, 2, 2))
        img[0, 0] = [2.0, 0.0]  # parallel to centroid 0
        grid = semantic_map(img, cents)
        assert grid[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_local_all_zero(self):
        cents = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        img = np.zeros((1, 1, 3))
        img[0, 0] = [0.0, 0.0, 5.0]
        assert np.array_equal(semantic_map(img, cents)[0, 0], [0.0, 0.0])

    def test_against_naive_loop(self):
        rng = np.random.default_rng(14)
        img = rng.normal(size=(6, 6, 32))
        cents = rng.normal(size=(5, 32))
        grid = semantic_map(img, cents)
        # matmul reassociation keeps entries within an ulp of the scalar path
        for r in range(6):
            for c in range(6):
                for j in range(5):
                    v = img[r, c]
                    m = cents[j]
                    want = np.dot(v, m) / (np.linalg.norm(v) * np.linalg.norm(m))
                    assert grid[r, c, j] == pytest.approx(want, abs=1e-13)

    def test_scale_invariance(self):
        rng = np.random.default_rng(15)
        img = rng.normal(size=(4, 4, 8))
        cents = rng.normal(size=(3, 8))
        scaled = cents * 7.5
        a = semantic_map(img, cents)
        b = semantic_map(img * 0.25, scaled)
        assert np.allclose(a, b, atol=1e-9)

    def test_dim_mismatch(self):
        cents = np.ones((2, 5))
        with pytest.raises(ValueError):
            semantic_map(np.zeros((2, 2, 4)), cents)


    def test_stack_matches_per_image(self):
        rng = np.random.default_rng(18)
        stack = rng.normal(size=(5, 4, 6, 8))
        cents = rng.normal(size=(3, 8))
        grids = semantic_map(stack, cents)
        assert grids.shape == (5, 4, 6, 3)
        for img, grid in zip(stack, grids):
            assert np.allclose(grid, semantic_map(img, cents), rtol=0.0, atol=1e-15)


class TestBlockSplit:
    def test_stack_matches_per_grid(self):
        grids = np.random.default_rng(19).normal(size=(3, 4, 6, 2))
        folded = block_split_concat(grids)
        assert folded.shape == (3, 2 * 3, 4 * 2)
        for grid, rows in zip(grids, folded):
            assert np.array_equal(rows, block_split_concat(grid[None])[0])

    def test_minimal_grid_order(self):
        grid = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])  # 2x2x1
        rows = block_split_concat(grid[None])[0]
        assert rows.shape == (1, 4)
        assert np.array_equal(rows[0], [1.0, 2.0, 3.0, 4.0])

    def test_multiset_preserved(self):
        grid = np.random.default_rng(16).normal(size=(4, 4, 3))
        rows = block_split_concat(grid[None])[0]
        assert rows.size == 48
        assert np.array_equal(np.sort(rows, axis=None), np.sort(grid, axis=None))

    def test_odd_grid_rejected(self):
        with pytest.raises(ValueError):
            block_split_concat(np.zeros((1, 3, 4, 2)))

    def test_inverse_round_trip(self):
        grid = np.random.default_rng(17).normal(size=(6, 8, 5))
        h2, w2, k = 3, 4, 5
        folded = block_split_concat(grid[None])[0].reshape(h2, w2, 4 * k)
        rebuilt = np.empty_like(grid)
        rebuilt[:h2, :w2] = folded[:, :, 0 * k:1 * k]
        rebuilt[:h2, w2:] = folded[:, :, 1 * k:2 * k]
        rebuilt[h2:, :w2] = folded[:, :, 2 * k:3 * k]
        rebuilt[h2:, w2:] = folded[:, :, 3 * k:4 * k]
        assert np.array_equal(rebuilt, grid)


def unfold(features, h2, w2):
    """Inverse of the quadrant fold for one image, quadrant by quadrant."""
    k = features.shape[1] // 4
    folded = features.reshape(h2, w2, 4 * k)
    grid = np.empty((2 * h2, 2 * w2, k))
    grid[:h2, :w2] = folded[:, :, 0 * k:1 * k]
    grid[:h2, w2:] = folded[:, :, 1 * k:2 * k]
    grid[h2:, :w2] = folded[:, :, 2 * k:3 * k]
    grid[h2:, w2:] = folded[:, :, 3 * k:4 * k]
    return grid


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    h2=st.integers(1, 4),
    w2=st.integers(1, 4),
    k=st.integers(1, 5),
)
def test_fold_is_a_bijection(seed, n, h2, w2, k):
    rng = np.random.default_rng(seed)
    grids = rng.normal(size=(n, 2 * h2, 2 * w2, k))
    stack = block_split_concat(grids)
    assert stack.shape == (n, h2 * w2, 4 * k)
    for grid, rows in zip(grids, stack):
        assert np.array_equal(unfold(rows, h2, w2), grid)
    # unfold is also a right inverse, so the fold is one-to-one and onto
    folded = rng.normal(size=(h2 * w2, 4 * k))
    assert np.array_equal(block_split_concat(unfold(folded, h2, w2)[None])[0], folded)


class TestCentroidValidation:
    """cluster_task's own checks on the centroids it returns."""

    def test_zero_row_rejected(self):
        # all-zero locals on both sides cluster to all-zero centroids
        with pytest.raises(ValueError, match="non-zero"):
            cluster_task(np.zeros((10, 3)), np.zeros((10, 3)), 2)

    def test_single_row_rejected(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ValueError, match="at least 2 centroid rows"):
            cluster_task(rng.normal(size=(10, 4)), rng.normal(size=(10, 4)), 1)

