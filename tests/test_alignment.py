"""Tests for the Gaussian fits and the asymmetric KL alignment losses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewshift.alignment import RIDGE, kl_diagonal, kl_gaussian, sfa_loss, spa_loss
from fewshift.errors import NotPositiveDefiniteError
from fewshift.numkit import gaussian_moments
from oracles import kl_trace_logdet


def map_from(rows):
    """The (positions, channels) feature rows of one image."""
    return np.asarray(rows, dtype=np.float64)


def patterns_from(vectors):
    """One (samples, length) pattern matrix, as ScoreTable holds per class."""
    return np.vstack([np.asarray(v, dtype=np.float64) for v in vectors])


def one_d(mu, var):
    """Mean and covariance of a 1-D Gaussian, in kl_gaussian's argument form."""
    return np.array([mu]), np.array([[var]])


class TestFits:
    def test_constant_maps(self):
        mu, cov = gaussian_moments(np.full((8, 3), 0.5), RIDGE)
        assert RIDGE == 1e-4
        assert np.array_equal(mu, np.full(3, 0.5))
        assert np.array_equal(cov, 1e-4 * np.eye(3))

    def test_semantic_fit_matches_moments(self):
        rng = np.random.default_rng(0)
        qs = [map_from(rng.normal(size=(6, 4))) for _ in range(3)]
        qt = [map_from(rng.normal(size=(6, 4))) for _ in range(3)]
        fits = gaussian_moments(np.vstack(qs), RIDGE) + gaussian_moments(np.vstack(qt), RIDGE)
        assert sfa_loss(qs, qt) == kl_gaussian(*fits)

    def test_single_position_rejected(self):
        one = [map_from(np.ones((1, 3)))]
        two = [map_from(np.eye(3)[:2])]
        with pytest.raises(ValueError):
            sfa_loss(one, two)
        with pytest.raises(ValueError):
            sfa_loss(two, one)

    def test_identical_patterns(self):
        # constant patterns fit their value with variance RIDGE, so a mean
        # gap of 0.1 in one coordinate costs 0.5 * 0.1^2 / RIDGE
        pats = patterns_from([[0.2, 0.4, 0.6]] * 3)
        moved = patterns_from([[0.2, 0.4, 0.7]] * 3)
        value, skipped = spa_loss([pats], [moved])
        assert value == pytest.approx(0.5 * (0.7 - 0.6) ** 2 / RIDGE, rel=1e-12)
        assert skipped == 0

    def test_two_pattern_variance(self):
        # 0 and 2 fit mean 1 and variance 2 + RIDGE per coordinate
        pats = patterns_from([np.zeros(4), np.full(4, 2.0)])
        flat = patterns_from([np.ones(4)] * 2)
        ratio = RIDGE / (2.0 + RIDGE)
        value, _ = spa_loss([pats], [flat])
        assert value == pytest.approx(4 * 0.5 * (ratio - 1.0 - math.log(ratio)), rel=1e-12)

    def test_pattern_fit_matches_moments_diagonal(self):
        rng = np.random.default_rng(1)
        pats_s, pats_t = rng.normal(size=(2, 8, 5))
        mu_s, cov_s = gaussian_moments(pats_s, RIDGE)
        mu_t, cov_t = gaussian_moments(pats_t, RIDGE)
        value, _ = spa_loss([pats_s], [pats_t])
        assert value == pytest.approx(
            kl_diagonal(mu_s, np.diag(cov_s), mu_t, np.diag(cov_t)), rel=1e-12
        )

    def test_non_matrix_rejected(self):
        # a class's patterns share one length; rows of two classes with
        # different shot counts, or one flat vector, are not a sample matrix
        ok = [patterns_from([np.zeros(3), np.ones(3)])]
        with pytest.raises(ValueError):
            spa_loss([[np.zeros(3), np.ones(6)]], ok)
        with pytest.raises(ValueError):
            spa_loss([np.zeros(3)], [np.zeros(3)])

    def test_too_few_patterns(self):
        one = [patterns_from([np.zeros(3)])]
        three = [patterns_from([np.zeros(3), np.ones(3), np.full(3, 2.0)])]
        assert spa_loss(one, three) == (0.0, 1)
        assert spa_loss(three, one) == (0.0, 1)


class TestKLGaussian:
    def test_identical_inputs_zero(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5))
        sigma = a.T @ a + np.eye(5)
        mean = rng.normal(size=5)
        assert abs(kl_gaussian(mean, sigma, mean, sigma)) <= 1e-10

    def test_one_dimensional_closed_form(self):
        # unit variances, means one apart: 0.5 exactly
        assert kl_gaussian(*one_d(0.0, 1.0), *one_d(1.0, 1.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(2, 2))
        sigma_a = f @ f.T + 0.5 * np.eye(2)
        g = rng.normal(size=(2, 2))
        sigma_b = g @ g.T + 0.5 * np.eye(2)
        mean_a = rng.normal(size=2)
        mean_b = rng.normal(size=2)
        value = kl_gaussian(mean_a, sigma_a, mean_b, sigma_b)

        n = 200_000
        x = rng.multivariate_normal(mean_b, sigma_b, size=n)
        def logpdf(points, mean, cov):
            inv = np.linalg.inv(cov)
            _, logdet = np.linalg.slogdet(cov)
            diff = points - mean
            quad = (diff @ inv * diff).sum(axis=1)
            return -0.5 * (quad + logdet + 2 * math.log(2 * math.pi))
        samples = logpdf(x, mean_b, sigma_b) - logpdf(x, mean_a, sigma_a)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(value - samples.mean()) <= 4 * se

    def test_asymmetry_witness(self):
        a = one_d(0.0, 1.0)
        b = one_d(0.0, 4.0)
        assert kl_gaussian(*a, *b) != kl_gaussian(*b, *a)

    def test_diagonal_equals_coordinate_sum(self):
        rng = np.random.default_rng(4)
        mean_a, mean_b = rng.normal(size=(2, 4))
        var_a = rng.uniform(0.5, 2.0, size=4)
        var_b = rng.uniform(0.5, 2.0, size=4)
        total = kl_diagonal(mean_a, var_a, mean_b, var_b)
        per_coord = sum(
            kl_gaussian(*one_d(mean_a[i], var_a[i]), *one_d(mean_b[i], var_b[i]))
            for i in range(4)
        )
        assert total == pytest.approx(per_coord, abs=1e-10)
        assert total == pytest.approx(
            kl_gaussian(mean_a, np.diag(var_a), mean_b, np.diag(var_b)), abs=1e-10
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_gaussian(*one_d(0.0, 1.0), np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            kl_gaussian(np.zeros(2), np.eye(3), np.zeros(2), np.eye(3))
        with pytest.raises(ValueError):
            kl_diagonal(np.zeros(1), np.ones(1), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            kl_diagonal(np.zeros(2), np.eye(2), np.zeros(2), np.eye(2))

    def test_non_positive_variances(self):
        for var_a, var_b in (([1.0, 0.0], [1.0, 1.0]), ([1.0, 1.0], [-1.0, 1.0])):
            with pytest.raises(ValueError, match="positive"):
                kl_diagonal(np.zeros(2), np.array(var_a), np.zeros(2), np.array(var_b))

    def test_asymmetric_covariance(self):
        skew = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            kl_gaussian(np.zeros(2), skew, np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            kl_gaussian(np.zeros(2), np.eye(2), np.zeros(2), skew)

    def test_non_pd_covariance(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        for cov_a, cov_b in ((bad, bad), (bad, np.eye(2)), (np.eye(2), bad)):
            with pytest.raises(NotPositiveDefiniteError):
                kl_gaussian(np.zeros(2), cov_a, np.zeros(2), cov_b)


def random_covariance(rng, d, floor):
    """F F^T + floor I with F of random rank: singular up to the floor."""
    f = rng.normal(size=(d, int(rng.integers(1, d + 1))))
    return f @ f.T + floor * np.eye(d)


# The floors reach far below the pipeline's RIDGE of 1e-4.  There the
# trace/log-det form drifts by about cond(S_A) eps and reads below zero
# (kl_trace_logdet(a, a) reached -5.9e-8 at a 1e-8 floor); kl_gaussian
# sums non-negative terms, so it holds >= 0 exactly at every floor.
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    floor=st.sampled_from([1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1.0]),
    same=st.booleans(),
)
def test_kl_nonnegative_full(seed, d, floor, same):
    rng = np.random.default_rng(seed)
    cov_a = random_covariance(rng, d, floor)
    cov_b = cov_a.copy() if same else random_covariance(rng, d, floor)
    mean_a = rng.normal(size=d)
    mean_b = mean_a.copy() if same else rng.normal(size=d)
    assert kl_gaussian(mean_a, cov_a, mean_b, cov_b) >= 0.0
    assert kl_gaussian(mean_b, cov_b, mean_a, cov_a) >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 40),
    same=st.booleans(),
)
def test_kl_nonnegative_diagonal(seed, d, same):
    rng = np.random.default_rng(seed)
    var_a = 10.0 ** rng.uniform(-10, 2, size=d)
    var_b = var_a.copy() if same else 10.0 ** rng.uniform(-10, 2, size=d)
    mean_a = rng.normal(size=d)
    mean_b = mean_a.copy() if same else rng.normal(size=d)
    assert kl_diagonal(mean_a, var_a, mean_b, var_b) >= 0.0
    assert kl_diagonal(mean_b, var_b, mean_a, var_a) >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 80),
    floor=st.sampled_from([1e-4, 1e-3, 1e-2, 1.0]),
)
def test_kl_matches_trace_logdet(seed, d, floor):
    rng = np.random.default_rng(seed)
    cov_a = random_covariance(rng, d, floor)
    cov_b = random_covariance(rng, d, floor)
    mean_a, mean_b = rng.normal(size=(2, d))
    for args in ((mean_a, cov_a, mean_b, cov_b), (mean_b, cov_b, mean_a, cov_a)):
        reference = kl_trace_logdet(*args)
        assert kl_gaussian(*args) == pytest.approx(reference, rel=1e-8)


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
        loss = sfa_loss(draw(), draw())
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
