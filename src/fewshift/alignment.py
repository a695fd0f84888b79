"""Two-level domain alignment via Gaussian KL divergence.

Gaussians are fitted to per-position semantic feature vectors (full
covariance) and to per-class similarity patterns (diagonal covariance,
since pattern length routinely exceeds the sample count).  The
divergence is the asymmetric form

    KL(A, B) = 1/2 ( tr(S_A^-1 S_B) + ln det S_A - ln det S_B
                     + (mu_A - mu_B) S_A^-1 (mu_A - mu_B)^T - d )

which equals the standard KL(N_B || N_A); it is implemented verbatim in
this orientation and checked against a Monte-Carlo oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .numkit import cholesky_logdet, gaussian_moments


@dataclass
class GaussianStats:
    """Fitted mean and covariance, full matrix or diagonal vector."""

    mean: np.ndarray
    cov: np.ndarray        # (d, d) in full mode, (d,) variances in diagonal mode
    mode: str              # "full" | "diagonal"
    n_samples: int
    ridge: float

    def __post_init__(self):
        if self.mode not in ("full", "diagonal"):
            raise ValueError("mode must be 'full' or 'diagonal'")
        expect = 2 if self.mode == "full" else 1
        if self.cov.ndim != expect:
            raise ValueError(f"{self.mode} covariance must have ndim {expect}")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def fit_semantic_gaussian(features: np.ndarray, ridge: float = 1e-4) -> GaussianStats:
    """Full-covariance fit over every spatial position of every image.

    features is (images, positions, channels), or any array whose last
    axis holds the channels.
    """
    features = np.asarray(features, dtype=np.float64)
    samples = features.reshape(-1, features.shape[-1])
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 position samples")
    mean, cov = gaussian_moments(samples, ridge)
    return GaussianStats(mean, cov, "full", samples.shape[0], ridge)


def fit_pattern_gaussian(patterns: np.ndarray, ridge: float = 1e-4) -> GaussianStats:
    """Per-coordinate (diagonal) fit over same-class pattern vectors, one
    per row."""
    samples = np.asarray(patterns, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("patterns must be a (samples, length) matrix")
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 patterns")
    mean, cov = gaussian_moments(samples, ridge)
    return GaussianStats(mean, np.diag(cov).copy(), "diagonal", samples.shape[0], ridge)


def kl_gaussian(a: GaussianStats, b: GaussianStats) -> float:
    """The divergence above; zero when the inputs are identical."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.mode != b.mode:
        raise ValueError(f"mode mismatch: {a.mode} vs {b.mode}")
    d = a.dim
    delta = a.mean - b.mean
    if a.mode == "diagonal":
        var_a, var_b = a.cov, b.cov
        if (var_a <= 0).any() or (var_b <= 0).any():
            raise ValueError("diagonal variances must be positive")
        trace = float((var_b / var_a).sum())
        logdet = float(np.log(var_a).sum() - np.log(var_b).sum())
        quad = float((delta * delta / var_a).sum())
    else:
        lower_a, logdet_a = cholesky_logdet(a.cov)
        _, logdet_b = cholesky_logdet(b.cov)
        half = solve_triangular(lower_a, b.cov, lower=True)
        inv_sb = solve_triangular(lower_a, half.T, lower=True)
        trace = float(np.trace(inv_sb))
        logdet = logdet_a - logdet_b
        y = solve_triangular(lower_a, delta, lower=True)
        quad = float(y @ y)
    return 0.5 * (trace + logdet + quad - d)


def sfa_loss(
    query_source: np.ndarray, query_target: np.ndarray, ridge: float = 1e-4
) -> float:
    """Semantic-feature alignment: KL between the two query-set fits."""
    fit_s = fit_semantic_gaussian(query_source, ridge)
    fit_t = fit_semantic_gaussian(query_target, ridge)
    return kl_gaussian(fit_s, fit_t)


def spa_loss(
    patterns_query_source: Sequence[np.ndarray],
    patterns_query_target: Sequence[np.ndarray],
    ridge: float = 1e-4,
) -> tuple[float, int]:
    """Pattern alignment summed over classes.

    Inputs hold one (samples, length) pattern matrix per class, as in
    ScoreTable.patterns.  A class lacking two samples on
    either side contributes zero; the count of skipped classes is
    returned alongside the sum.
    """
    if len(patterns_query_source) != len(patterns_query_target):
        raise ValueError("class count mismatch between the two sides")
    total = 0.0
    skipped = 0
    for class_s, class_t in zip(patterns_query_source, patterns_query_target):
        if len(class_s) < 2 or len(class_t) < 2:
            skipped += 1
            continue
        fit_s = fit_pattern_gaussian(class_s, ridge)
        fit_t = fit_pattern_gaussian(class_t, ridge)
        total += kl_gaussian(fit_s, fit_t)
    return total, skipped
