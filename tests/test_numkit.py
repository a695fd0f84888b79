"""Tests for the dense numeric primitives."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from fewshift.alignment import sfa_loss
from fewshift.errors import NotPositiveDefiniteError
from fewshift.numkit import (
    KMeansResult,
    cholesky,
    cosine_matrix,
    farthest_first_init,
    gaussian_moments,
    kmeans,
    log_softmax,
    min_cost_assignment,
    softmax,
)
from fewshift.rng import SplitMix64
from oracles import farthest_first_reference, kmeans_reference, singular_values


def orthonormal_columns(rng, n, r, avoid_ones=False):
    cand = rng.normal(size=(n, r))
    if avoid_ones:
        ones = np.ones(n) / math.sqrt(n)
        cand -= np.outer(ones, ones @ cand)
    q, _ = np.linalg.qr(cand)
    return q


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0])

    def test_constructed_spectrum(self):
        rng = np.random.default_rng(0)
        u = orthonormal_columns(rng, 12, 2)
        v = orthonormal_columns(rng, 7, 2)
        m = 3.0 * np.outer(u[:, 0], v[:, 0]) + 1.0 * np.outer(u[:, 1], v[:, 1])
        sv = singular_values(m)
        assert np.allclose(sv[:2], [3.0, 1.0], atol=1e-9)
        assert np.all(sv[2:] < 1e-9)

    def test_zero_matrix(self):
        assert np.all(singular_values(np.zeros((4, 5))) == 0.0)

    def test_descending_and_nonnegative(self):
        sv = singular_values(np.random.default_rng(1).normal(size=(9, 5)))
        assert len(sv) == 5
        assert np.all(sv >= 0)
        assert np.all(np.diff(sv) <= 0)

    def test_frobenius_identity(self):
        m = np.random.default_rng(2).normal(size=(20, 8))
        sv = singular_values(m)
        assert abs((sv**2).sum() - (m**2).sum()) <= 1e-9 * (m**2).sum()

    def test_nonfinite_rejected(self):
        bad = np.ones((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            singular_values(bad)


def brute_force_two_clusters(points):
    """Minimum inertia over every nonempty bipartition."""
    n = len(points)
    best = math.inf
    for size in range(1, n // 2 + 1):
        for left in combinations(range(n), size):
            right = [i for i in range(n) if i not in left]
            inertia = 0.0
            for side in (list(left), right):
                chunk = points[side]
                inertia += ((chunk - chunk.mean(axis=0)) ** 2).sum()
            best = min(best, inertia)
    return best


def assert_inertia_never_rises(points, k, init):
    """kmeans under every iteration budget up to the one it stops at: the
    inertia never rises by more than 1e-9 (1 + previous) from one budget
    to the next.  Returns the run without a budget."""
    run = kmeans(points, k, init)
    previous = math.inf
    for budget in range(1, run.iterations + 1):
        inertia = kmeans(points, k, init, max_iter=budget).inertia
        assert inertia <= previous + 1e-9 * (1.0 + previous), (budget, previous, inertia)
        previous = inertia
    return run


class TestKMeans:
    def test_two_point_clusters_exact(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0]])
        init = np.array([[1.0, 1.0], [9.0, 9.0]])
        res = kmeans(pts, 2, init)
        assert res.inertia == 0.0
        got = {tuple(c) for c in res.centroids}
        assert got == {(0.0, 0.0), (10.0, 10.0)}

    def test_six_points_matches_enumeration(self):
        rng = np.random.default_rng(3)
        pts = np.vstack([rng.normal(size=(3, 2)) - 3.0, rng.normal(size=(3, 2)) + 3.0])
        init = farthest_first_init(pts, 2, SplitMix64(11))
        res = kmeans(pts, 2, init)
        assert res.inertia == pytest.approx(brute_force_two_clusters(pts), abs=1e-9)

    def test_identical_points_reseed(self):
        pts = np.ones((5, 3)) * 2.5
        res = kmeans(pts, 2, np.vstack([pts[0], pts[0] + 1.0]))
        assert res.inertia == 0.0
        assert np.allclose(res.centroids, 2.5)

    def test_k_errors(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(pts, 4, np.zeros((4, 2)))
        with pytest.raises(ValueError):
            kmeans(pts, 0, np.zeros((0, 2)))

    def test_inertia_monotone_across_iteration_budgets(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(120, 5))
        init = farthest_first_init(pts, 6, SplitMix64(7))
        res = assert_inertia_never_rises(pts, 6, init)
        assert isinstance(res, KMeansResult)
        assert res.inertia >= 0.0
        assert np.bincount(res.assignments, minlength=6).min() >= 1

    def test_farthest_first_deterministic(self):
        pts = np.random.default_rng(5).normal(size=(40, 3))
        a = farthest_first_init(pts, 4, SplitMix64(9))
        b = farthest_first_init(pts, 4, SplitMix64(9))
        assert np.array_equal(a, b)


def clustered_points(rng, n_clusters, per_cluster, d, spread=0.3):
    centers = 4.0 * rng.normal(size=(n_clusters, d))
    return np.vstack([c + spread * rng.normal(size=(per_cluster, d)) for c in centers])


def assert_same_run(got, want):
    assert np.array_equal(got.assignments, want.assignments)
    assert got.iterations == want.iterations
    assert np.allclose(got.centroids, want.centroids, rtol=0.0, atol=1e-12)
    assert got.inertia == pytest.approx(want.inertia, rel=1e-12, abs=1e-12)


class TestAgainstReference:
    """The norm-cached K-means and init against their direct forms."""

    CASES = [
        ("random", lambda rng: rng.normal(size=(300, 8)), 6),
        ("clustered", lambda rng: clustered_points(rng, 5, 60, 16), 5),
        ("wide", lambda rng: rng.normal(size=(400, 64)), 20),
    ]

    @pytest.mark.parametrize("name,make,k", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("seed", range(4))
    def test_init_picks_same_points(self, name, make, k, seed):
        pts = make(np.random.default_rng(100 + seed))
        idx = farthest_first_reference(pts, k, SplitMix64(seed))
        got = farthest_first_init(pts, k, SplitMix64(seed))
        assert np.array_equal(got, pts[idx])

    def test_init_ties_go_to_lowest_index(self):
        # the rng's first pick is the centre; the four corners then tie at
        # squared distance 1, and again after the first corner is taken
        first = SplitMix64(0).randint(5)
        corners = iter([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        pts = np.array([[0.0, 0.0] if i == first else next(corners) for i in range(5)])
        later = [i for i in range(5) if i != first]
        idx = farthest_first_reference(pts, 3, SplitMix64(0))
        assert idx == [first, later[0], later[1]]
        assert np.array_equal(farthest_first_init(pts, 3, SplitMix64(0)), pts[idx])

    @pytest.mark.parametrize("name,make,k", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("seed", range(4))
    def test_lloyd_matches_reference(self, name, make, k, seed):
        pts = make(np.random.default_rng(200 + seed))
        init = farthest_first_init(pts, k, SplitMix64(seed))
        assert_same_run(kmeans(pts, k, init), kmeans_reference(pts, k, init))

    def test_empty_cluster_reseed_matches_reference(self):
        rng = np.random.default_rng(300)
        pts = clustered_points(rng, 3, 40, 4)
        # the last centroid is far from every point, so its cluster starts empty
        init = np.vstack([pts[:3], np.full((1, 4), 1e3)])
        want = kmeans_reference(pts, 4, init)
        got = kmeans(pts, 4, init)
        assert_same_run(got, want)
        assert np.bincount(got.assignments, minlength=4).min() >= 1

    def test_final_reseed_matches_reference(self):
        # duplicates end up on two equal centroids; the final assignment
        # sends them all to the lower index and must reseed the other
        pts = np.vstack([np.ones((5, 3)) * 2.5, np.zeros((2, 3))])
        init = np.vstack([pts[0], pts[0] + 1.0, pts[0] - 1.0])
        assert_same_run(kmeans(pts, 3, init), kmeans_reference(pts, 3, init))

    def test_max_iter_cut_matches_reference(self):
        pts = clustered_points(np.random.default_rng(301), 4, 50, 6, spread=2.0)
        init = farthest_first_init(pts, 7, SplitMix64(3))
        got = kmeans(pts, 7, init, max_iter=2)
        assert got.iterations == 2
        assert_same_run(got, kmeans_reference(pts, 7, init, max_iter=2))


class TestBoundedLloyd:
    """The cases where skipping a point on its bounds could go wrong."""

    def test_exact_ties_go_to_lowest_index(self):
        # iteration 1: 3 is 3 from both 0 and 6; the centroids become 2 and
        # 6, so in iteration 2 the point 4 (index 5) is 2 from both and
        # leaves cluster 1 for cluster 0
        pts = np.array([1.0, 3.0, 3.0, 8.0, 1.0, 4.0, 2.0])[:, None]
        init = np.array([[0.0], [6.0]])
        got = kmeans(pts, 2, init)
        assert got.assignments.tolist() == [0, 0, 0, 1, 0, 0, 0]
        assert_same_run(got, kmeans_reference(pts, 2, init))

    def test_duplicate_centroids_go_to_lowest_index(self):
        # every point near 0.5 ties between the first two centroids, so
        # the second starts empty and takes the farthest point
        pts = np.array([0.0, 0.0, 1.0, 1.0, 9.0, 9.0, 10.0])[:, None]
        init = np.array([[0.5], [0.5], [9.5]])
        assert_same_run(kmeans(pts, 3, init), kmeans_reference(pts, 3, init))
        pts2 = clustered_points(np.random.default_rng(302), 3, 30, 4)
        init2 = np.vstack([pts2[0], pts2[0], pts2[40], pts2[80]])
        assert_same_run(kmeans(pts2, 4, init2), kmeans_reference(pts2, 4, init2))

    def test_duplicated_points(self):
        base = clustered_points(np.random.default_rng(303), 4, 15, 3, spread=1.0)
        pts = np.repeat(base, 3, axis=0)
        init = farthest_first_init(pts, 5, SplitMix64(5))
        assert_same_run(kmeans(pts, 5, init), kmeans_reference(pts, 5, init))

    def test_single_cluster_skips_every_point_after_iteration_one(self):
        # with k = 1 both lower bounds are +inf: iteration 2 computes no
        # distance, finds the centroid unmoved and stops
        pts = np.random.default_rng(304).normal(size=(50, 4))
        got = kmeans(pts, 1, pts[:1])
        assert_same_run(got, kmeans_reference(pts, 1, pts[:1]))
        assert got.iterations == 2
        assert got.distance_rows == 2 * len(pts)  # iteration 1 and the final pass

    def test_one_cluster_per_point(self):
        pts = np.random.default_rng(305).normal(size=(12, 3))
        init = farthest_first_init(pts, 12, SplitMix64(6))
        got = kmeans(pts, 12, init)
        assert_same_run(got, kmeans_reference(pts, 12, init))
        assert sorted(got.assignments.tolist()) == list(range(12))

    def test_cluster_emptied_mid_run_redoes_the_iteration(self):
        # iteration 1 (ties to the lower index) leaves {5, 2}, {6}, {1, 1, 0}
        # with means 3.5, 6 and 2/3; at those, both members of the first
        # cluster leave it, so iteration 2 runs in full and reseeds it
        pts = np.array([5.0, 6.0, 1.0, 1.0, 0.0, 2.0])[:, None]
        init = np.array([[4.0], [6.0], [0.0]])
        after_one = np.array([3.5, 6.0, 2.0 / 3.0])
        nearest = np.abs(pts - after_one).argmin(axis=1)
        assert np.bincount(nearest, minlength=3)[0] == 0
        got = kmeans(pts, 3, init)
        assert got.iterations >= 2
        assert_same_run(got, kmeans_reference(pts, 3, init))

    def test_float32_valued_centroids_bit_identical(self):
        # the pipeline's locals are float32 values: float64 sums of them are
        # exact in any order, so sums kept from the moved points equal the
        # reference's one-hot product bit for bit
        pts = clustered_points(np.random.default_rng(306), 6, 80, 16, spread=1.5)
        pts = pts.astype(np.float32).astype(np.float64)
        init = farthest_first_init(pts, 9, SplitMix64(7))
        got, want = kmeans(pts, 9, init), kmeans_reference(pts, 9, init)
        assert_same_run(got, want)
        assert np.array_equal(got.centroids, want.centroids)
        assert got.inertia == want.inertia

    def test_clustered_input_prunes_distance_rows(self):
        # full Lloyd computes n rows per iteration plus n for the final
        # assignment; the bounds must skip most of them once points settle
        pts = clustered_points(np.random.default_rng(400), 6, 200, 8, spread=1.0)
        got = kmeans(pts, 12, farthest_first_init(pts, 12, SplitMix64(0)))
        assert got.iterations >= 20
        assert got.distance_rows < 0.5 * len(pts) * got.iterations


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 150),
    d=st.integers(1, 10),
    k=st.integers(1, 12),
    clusters=st.integers(1, 6),
    spread=st.sampled_from([0.0, 1e-6, 0.1, 1.0]),
    max_iter=st.sampled_from([1, 3, 100]),
    float32=st.booleans(),
)
def test_bounded_lloyd_matches_reference(seed, n, d, k, clusters, spread, max_iter, float32):
    # float64 points 1e-6 apart sit at the rounding level of the expanded
    # distance (about 1e-14 at magnitude 3): the last bit of a centroid
    # decides their argmin, and sums kept from the moved points may round
    # differently from the reference's product (see the next test)
    assume(float32 or spread != 1e-6)
    rng = np.random.default_rng(seed)
    k = min(k, n)
    centers = 3.0 * rng.normal(size=(clusters, d))
    pts = centers[rng.integers(clusters, size=n)] + spread * rng.normal(size=(n, d))
    if float32:
        # float32 values on a 2^-20 grid: every partial sum is exact
        pts = (np.round(pts * 2.0**20) / 2.0**20).astype(np.float32).astype(np.float64)
    init = farthest_first_init(pts, k, SplitMix64(seed))
    got = kmeans(pts, k, init, max_iter=max_iter)
    want = kmeans_reference(pts, k, init, max_iter=max_iter)
    assert_same_run(got, want)
    if float32:
        assert np.array_equal(got.centroids, want.centroids)
        assert got.inertia == want.inertia


@pytest.mark.parametrize("seed,n", [(21, 96), (26, 58)])
def test_float64_blob_at_rounding_level(seed, n):
    # one blob of float64 points 1e-6 apart: the incremental sums leave the
    # centroids within 1e-12 of the reference, though a noise-level
    # argmin may then go the other way
    rng = np.random.default_rng(seed)
    pts = 3.0 * rng.normal(size=(1, 5)) + 1e-6 * rng.normal(size=(n, 5))
    init = farthest_first_init(pts, 2, SplitMix64(seed))
    got, want = kmeans(pts, 2, init, max_iter=3), kmeans_reference(pts, 2, init, max_iter=3)
    assert got.iterations == want.iterations
    assert np.allclose(got.centroids, want.centroids, rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 120),
    d=st.integers(1, 12),
    k=st.integers(1, 10),
    clusters=st.integers(1, 6),
    spread=st.sampled_from([0.0, 1e-6, 0.1, 1.0]),
)
def test_inertia_never_rises_across_iteration_budgets(seed, n, d, k, clusters, spread):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    centers = 3.0 * rng.normal(size=(clusters, d))
    pts = centers[rng.integers(clusters, size=n)] + spread * rng.normal(size=(n, d))
    init = farthest_first_init(pts, k, SplitMix64(seed))
    res = assert_inertia_never_rises(pts, k, init)
    assert res.inertia >= 0.0


def assignment_total(cost, cols):
    return float(cost[np.arange(len(cols)), cols].sum())


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 64),
       kind=st.sampled_from(["normal", "negated_cosine"]))
def test_assignment_matches_scipy_on_continuous_costs(seed, k, kind):
    # continuous draws have a unique optimum, so the permutation must agree
    rng = np.random.default_rng(seed)
    if kind == "normal":
        cost = rng.normal(size=(k, k)) * rng.uniform(0.01, 100.0)
    else:  # the merge step's input: centroid sets of two nearby clusterings
        c_support = rng.normal(size=(k, 16))
        cost = -cosine_matrix(c_support, c_support + 0.5 * rng.normal(size=(k, 16)))
    cols = min_cost_assignment(cost)
    _, expected = linear_sum_assignment(cost)
    assert abs(assignment_total(cost, cols) - assignment_total(cost, expected)) <= 1e-12
    assert np.array_equal(cols, expected)


def test_assignment_with_tied_optima_reaches_the_optimal_total():
    # integer costs in {0, 1, 2}: many permutations share the optimal total
    cost = np.random.default_rng(5).integers(0, 3, size=(24, 24)).astype(np.float64)
    cols = min_cost_assignment(cost)
    _, expected = linear_sum_assignment(cost)
    assert sorted(cols) == list(range(24))
    assert assignment_total(cost, cols) == assignment_total(cost, expected)


def test_assignment_rejects_bad_costs():
    with pytest.raises(ValueError):
        min_cost_assignment(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        min_cost_assignment(np.array([[0.0, np.nan], [1.0, 0.0]]))


class TestGaussianMoments:
    def test_hand_arithmetic(self):
        mu, cov = gaussian_moments(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.array_equal(mu, [1.0, 1.0])
        assert np.array_equal(cov, [[2.0, 2.0], [2.0, 2.0]])

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(500, 3))
        mu, cov = gaussian_moments(x)
        mu_ref = np.zeros(3)
        for row in x:
            mu_ref += row
        mu_ref /= len(x)
        cov_ref = np.zeros((3, 3))
        for row in x:
            diff = row - mu_ref
            cov_ref += np.outer(diff, diff)
        cov_ref /= len(x) - 1
        assert np.allclose(mu, mu_ref, atol=1e-10)
        assert np.allclose(cov, cov_ref, atol=1e-10)

    def test_ridge_forces_pd(self):
        # the fit itself is singular; sfa_loss adds alignment.RIDGE to its
        # diagonal, which makes it positive definite
        x = np.tile([1.0, 2.0, 3.0], (10, 1))  # rank deficient
        _, cov = gaussian_moments(x)
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(cov)
        assert sfa_loss(x, x) == 0.0

    def test_exact_symmetry(self):
        _, cov = gaussian_moments(np.random.default_rng(7).normal(size=(50, 6)))
        assert np.array_equal(cov, cov.T)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            gaussian_moments(np.zeros((1, 4)))


class TestCholeskyLogdet:
    """cholesky, and the log-determinant read off its diagonal."""

    def test_diag(self):
        lower = cholesky(np.diag([4.0, 9.0]))
        assert np.array_equal(lower, np.diag([2.0, 3.0]))
        logdet = 2.0 * float(np.log(np.diag(lower)).sum())
        assert logdet == pytest.approx(math.log(36.0), abs=1e-12)

    def test_against_spectrum_oracle(self):
        a = np.random.default_rng(8).normal(size=(5, 5))
        sigma = a.T @ a + np.eye(5)
        lower = cholesky(sigma)
        assert np.allclose(lower @ lower.T, sigma, rtol=1e-8)
        assert np.array_equal(lower, np.tril(lower))
        sv = singular_values(a)
        logdet = 2.0 * float(np.log(np.diag(lower)).sum())
        assert logdet == pytest.approx(float(np.log(sv**2 + 1.0).sum()), abs=1e-8)

    def test_indefinite_names_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.pivot == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestCosineMatrix:
    def test_orthogonal(self):
        out = cosine_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert out[0, 0] == 0.0

    def test_parallel(self):
        out = cosine_matrix(np.array([[3.0, 4.0]]), np.array([[3.0, 4.0]]))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_against_naive_pairs(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(20, 8))
        b = rng.normal(size=(30, 8))
        got = cosine_matrix(a, b)
        ua = a / np.linalg.norm(a, axis=1, keepdims=True)
        ub = b / np.linalg.norm(b, axis=1, keepdims=True)
        naive = np.empty((20, 30))
        for i in range(20):
            for j in range(30):
                naive[i, j] = min(1.0, max(-1.0, float(np.dot(ua[i], ub[j]))))
        assert np.array_equal(got, naive)

    def test_zero_row_convention(self):
        out = cosine_matrix(np.zeros((1, 3)), np.ones((2, 3)))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_bounds_clamped(self):
        rng = np.random.default_rng(10)
        out = cosine_matrix(rng.normal(size=(40, 4)), rng.normal(size=(40, 4)))
        assert out.max() <= 1.0
        assert out.min() >= -1.0

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            cosine_matrix(np.zeros((2, 3)), np.zeros((2, 4)))


@pytest.mark.parametrize("call, message", [
    (lambda: kmeans(np.zeros((4, 2)), 2, np.zeros((2, 3))), "init must be k x d"),
    (lambda: farthest_first_init(np.zeros((3, 2)), 4, SplitMix64(0)),
     "k=4 exceeds point count 3"),
    (lambda: cholesky(np.eye(3)[:2]), "expected a square matrix"),
    (lambda: softmax(np.array([0.0, np.inf])), "softmax input must be finite"),
], ids=["kmeans-init-shape", "farthest-first-k-above-n", "cholesky-not-square",
        "softmax-not-finite"])
def test_arguments_checked(call, message):
    with pytest.raises(ValueError, match=message) as err:
        call()
    assert err.type is ValueError


class TestSoftmax:
    def test_uniform_pair(self):
        assert np.array_equal(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_extreme_values_stable(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=8)
        for c in (-17.5, 3.25, 400.0):
            assert np.allclose(softmax(v + c), softmax(v), atol=1e-12)

    def test_sums_to_one(self):
        v = np.random.default_rng(12).normal(size=11)
        assert softmax(v).sum() == pytest.approx(1.0, abs=1e-12)

    def test_log_softmax_matches(self):
        v = np.random.default_rng(13).normal(size=6)
        assert np.allclose(np.exp(log_softmax(v)), softmax(v), atol=1e-12)
