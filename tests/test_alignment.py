"""Tests for Gaussian fits and the asymmetric KL alignment losses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewshift.alignment import (
    GaussianStats,
    fit_pattern_gaussian,
    fit_semantic_gaussian,
    kl_gaussian,
    sfa_loss,
    spa_loss,
)
from fewshift.errors import NotPositiveDefiniteError
from fewshift.numkit import gaussian_moments


def map_from(rows):
    """The (positions, channels) feature rows of one image."""
    return np.asarray(rows, dtype=np.float64)


def patterns_from(vectors):
    """One (samples, length) pattern matrix, as ScoreTable holds per class."""
    return np.vstack([np.asarray(v, dtype=np.float64) for v in vectors])


def one_d(mu, var, ridge=0.0):
    return GaussianStats(np.array([mu]), np.array([[var]]), "full", 10, ridge)


class TestFits:
    def test_constant_maps(self):
        maps = [map_from(np.full((4, 3), 0.5)) for _ in range(2)]
        stats = fit_semantic_gaussian(maps, ridge=1e-4)
        assert np.array_equal(stats.mean, np.full(3, 0.5))
        assert np.array_equal(stats.cov, 1e-4 * np.eye(3))

    def test_semantic_fit_matches_moments(self):
        rng = np.random.default_rng(0)
        maps = [map_from(rng.normal(size=(6, 4))) for _ in range(3)]
        stats = fit_semantic_gaussian(maps, ridge=1e-3)
        flat = np.vstack(maps)
        mu, cov = gaussian_moments(flat, 1e-3)
        assert np.array_equal(stats.mean, mu)
        assert np.array_equal(stats.cov, cov)
        assert stats.n_samples == 18

    def test_single_position_rejected(self):
        with pytest.raises(ValueError):
            fit_semantic_gaussian([map_from(np.ones((1, 3)))])

    def test_identical_patterns(self):
        pats = patterns_from([[0.2, 0.4, 0.6]] * 3)
        stats = fit_pattern_gaussian(pats, ridge=1e-4)
        assert np.allclose(stats.mean, [0.2, 0.4, 0.6], atol=1e-15)
        assert np.allclose(stats.cov, np.full(3, 1e-4), atol=1e-15)

    def test_two_pattern_variance(self):
        pats = patterns_from([np.zeros(4), np.full(4, 2.0)])
        stats = fit_pattern_gaussian(pats, ridge=0.0)
        assert np.array_equal(stats.mean, np.ones(4))
        assert np.array_equal(stats.cov, np.full(4, 2.0))

    def test_pattern_fit_matches_moments_diagonal(self):
        rng = np.random.default_rng(1)
        pats = rng.normal(size=(8, 5))
        stats = fit_pattern_gaussian(pats, ridge=1e-4)
        _, cov = gaussian_moments(pats, 1e-4)
        assert np.array_equal(stats.cov, np.diag(cov))

    def test_non_matrix_rejected(self):
        # a class's patterns share one length; rows of two classes with
        # different shot counts, or one flat vector, are not a sample matrix
        with pytest.raises(ValueError):
            fit_pattern_gaussian([np.zeros(3), np.ones(6)])
        with pytest.raises(ValueError):
            fit_pattern_gaussian(np.zeros(3))

    def test_too_few_patterns(self):
        with pytest.raises(ValueError):
            fit_pattern_gaussian(patterns_from([np.zeros(3)]))


class TestKLGaussian:
    def test_identical_inputs_zero(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5))
        sigma = a.T @ a + np.eye(5)
        stats = GaussianStats(rng.normal(size=5), sigma, "full", 10, 0.0)
        assert abs(kl_gaussian(stats, stats)) <= 1e-10

    def test_one_dimensional_closed_form(self):
        # unit variances, means one apart: 0.5 exactly
        assert kl_gaussian(one_d(0.0, 1.0), one_d(1.0, 1.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(2, 2))
        sigma_a = f @ f.T + 0.5 * np.eye(2)
        g = rng.normal(size=(2, 2))
        sigma_b = g @ g.T + 0.5 * np.eye(2)
        a = GaussianStats(rng.normal(size=2), sigma_a, "full", 10, 0.0)
        b = GaussianStats(rng.normal(size=2), sigma_b, "full", 10, 0.0)
        value = kl_gaussian(a, b)

        n = 200_000
        x = rng.multivariate_normal(b.mean, sigma_b, size=n)
        def logpdf(points, mean, cov):
            inv = np.linalg.inv(cov)
            _, logdet = np.linalg.slogdet(cov)
            diff = points - mean
            quad = (diff @ inv * diff).sum(axis=1)
            return -0.5 * (quad + logdet + 2 * math.log(2 * math.pi))
        samples = logpdf(x, b.mean, sigma_b) - logpdf(x, a.mean, sigma_a)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(value - samples.mean()) <= 4 * se

    def test_asymmetry_witness(self):
        a = one_d(0.0, 1.0)
        b = one_d(0.0, 4.0)
        assert kl_gaussian(a, b) != kl_gaussian(b, a)

    def test_diagonal_equals_coordinate_sum(self):
        rng = np.random.default_rng(4)
        mean_a, mean_b = rng.normal(size=(2, 4))
        var_a = rng.uniform(0.5, 2.0, size=4)
        var_b = rng.uniform(0.5, 2.0, size=4)
        a = GaussianStats(mean_a, var_a, "diagonal", 10, 0.0)
        b = GaussianStats(mean_b, var_b, "diagonal", 10, 0.0)
        total = kl_gaussian(a, b)
        per_coord = sum(
            kl_gaussian(one_d(mean_a[i], var_a[i]), one_d(mean_b[i], var_b[i]))
            for i in range(4)
        )
        assert total == pytest.approx(per_coord, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_gaussian(one_d(0.0, 1.0),
                        GaussianStats(np.zeros(2), np.eye(2), "full", 5, 0.0))

    def test_mode_mismatch(self):
        diag = GaussianStats(np.zeros(1), np.ones(1), "diagonal", 5, 0.0)
        with pytest.raises(ValueError):
            kl_gaussian(one_d(0.0, 1.0), diag)

    def test_non_pd_covariance(self):
        bad = GaussianStats(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                            "full", 5, 0.0)
        with pytest.raises(NotPositiveDefiniteError):
            kl_gaussian(bad, bad)


def random_covariance(rng, d, floor):
    """F F^T + floor I with F of random rank: singular up to the floor."""
    f = rng.normal(size=(d, int(rng.integers(1, d + 1))))
    return f @ f.T + floor * np.eye(d)


# The floor starts at the pipeline's default ridge, 1e-4.  Below about
# 1e-6 the float64 trace of S_A^-1 S_A drifts by more than 1e-10, so
# kl_gaussian(a, a) can read slightly negative there.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    floor=st.sampled_from([1e-4, 1e-3, 1e-2, 1.0]),
    same=st.booleans(),
)
def test_kl_nonnegative_full(seed, d, floor, same):
    rng = np.random.default_rng(seed)
    cov_a = random_covariance(rng, d, floor)
    cov_b = cov_a.copy() if same else random_covariance(rng, d, floor)
    mean_a = rng.normal(size=d)
    mean_b = mean_a.copy() if same else rng.normal(size=d)
    a = GaussianStats(mean_a, cov_a, "full", 2, 0.0)
    b = GaussianStats(mean_b, cov_b, "full", 2, 0.0)
    assert kl_gaussian(a, b) >= -1e-10
    assert kl_gaussian(b, a) >= -1e-10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 40),
    same=st.booleans(),
)
def test_kl_nonnegative_diagonal(seed, d, same):
    rng = np.random.default_rng(seed)
    var_a = 10.0 ** rng.uniform(-6, 2, size=d)
    var_b = var_a.copy() if same else 10.0 ** rng.uniform(-6, 2, size=d)
    mean_a = rng.normal(size=d)
    mean_b = mean_a.copy() if same else rng.normal(size=d)
    a = GaussianStats(mean_a, var_a, "diagonal", 2, 0.0)
    b = GaussianStats(mean_b, var_b, "diagonal", 2, 0.0)
    assert kl_gaussian(a, b) >= -1e-10
    assert kl_gaussian(b, a) >= -1e-10


class TestSfaLoss:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(5)
        maps = [map_from(rng.normal(size=(8, 4))) for _ in range(4)]
        assert abs(sfa_loss(maps, [map_from(m.copy()) for m in maps])) <= 1e-8

    def test_same_distribution_small(self):
        # sampling-noise calibration: both sides iid from one Gaussian,
        # 50x the dimension in samples per side
        rng = np.random.default_rng(6)
        dim = 16
        n_rows = 50 * dim
        factor = rng.normal(size=(dim, dim)) * 0.3
        def draw():
            z = rng.normal(size=(n_rows, dim))
            return [map_from(z @ factor + 1.0)]
        loss = sfa_loss(draw(), draw(), ridge=1e-4)
        assert 0.0 <= loss <= 0.05 * dim

    def test_order_permutation_invariant(self):
        rng = np.random.default_rng(7)
        qs = [map_from(rng.normal(size=(6, 3))) for _ in range(5)]
        qt = [map_from(rng.normal(size=(6, 3))) for _ in range(5)]
        base = sfa_loss(qs, qt)
        perm = sfa_loss([qs[i] for i in (3, 0, 4, 1, 2)],
                        [qt[i] for i in (2, 4, 0, 3, 1)])
        assert perm == pytest.approx(base, abs=1e-10)


class TestSpaLoss:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(8)
        per_class = [rng.normal(size=(4, 6)) for _ in range(3)]
        copied = [group.copy() for group in per_class]
        value, skipped = spa_loss(per_class, copied)
        assert abs(value) <= 1e-8
        assert skipped == 0

    def test_skip_rule(self):
        rng = np.random.default_rng(9)
        qs = [
            rng.normal(size=(3, 4)),
            rng.normal(size=(1, 4)),  # degenerate side
        ]
        qt = [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
        value, skipped = spa_loss(qs, qt)
        assert skipped == 1
        only_class0, _ = spa_loss([qs[0]], [qt[0]])
        assert value == pytest.approx(only_class0, abs=1e-12)

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError):
            spa_loss([[]], [[], []])
