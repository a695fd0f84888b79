"""Two-level domain alignment via Gaussian KL divergence.

L_sfa fits one full-covariance Gaussian to the per-position semantic
feature vectors of each query set.  L_spa fits a diagonal one to each
class's similarity patterns, since pattern length routinely exceeds the
sample count.  Every fit adds RIDGE to its variances.  The divergence is
the asymmetric form

    KL(A, B) = 1/2 ( tr(S_A^-1 S_B) + ln det S_A - ln det S_B
                     + (mu_A - mu_B) S_A^-1 (mu_A - mu_B)^T - d ),

which equals the standard KL(N_B || N_A).  With S_A = L_A L_A^T and
S_B = L_B L_B^T, W = L_A^-1 L_B is lower triangular and W W^T =
L_A^-1 S_B L_A^-T.  The trace and log-det terms are sum(l - 1 - ln l)
over the eigenvalues l of W W^T, which is tr(W W^T) - d - ln det(W W^T),
so that

    KL(A, B) = 1/2 ( sum_i (w_ii^2 - 1 - ln w_ii^2) + sum_{i>j} w_ij^2
                     + |L_A^-1 (mu_A - mu_B)|^2 ).

kl_gaussian computes this form.  W and L_A^-1 (mu_A - mu_B) come from one
np.linalg.solve of L_A against L_B with the mean difference as an extra
column; the solve is a general LU one, so W's strictly upper part is zero
only up to rounding and is never read.  Each term is >= 0 in floating
point too, so the divergence is >= 0 by construction at any conditioning,
with no eigensolver.  kl_diagonal is the case W = diag(sqrt(var_B / var_A)).
The tests check the form against a Monte-Carlo oracle and against the
trace/log-det form above.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .numkit import cholesky, gaussian_moments

# added to every fitted variance, which keeps each covariance positive definite
RIDGE = 1e-4


def _ratio_terms(ratios: np.ndarray) -> float:
    return float((ratios - 1.0 - np.log(ratios)).sum())


def kl_gaussian(mean_a, cov_a, mean_b, cov_b) -> float:
    """The divergence above for full (d, d) covariances; zero when the
    inputs are identical."""
    dims = {np.shape(mean_a), np.shape(mean_b), np.shape(cov_a)[:1], np.shape(cov_b)[:1]}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")
    lower_a, lower_b = cholesky(cov_a), cholesky(cov_b)
    delta = np.subtract(mean_a, mean_b, dtype=np.float64)
    solved = np.linalg.solve(lower_a, np.column_stack([lower_b, delta]))
    w, y = solved[:, :-1], solved[:, -1]
    off_diagonal = float((np.tril(w, -1) ** 2).sum())
    return 0.5 * (_ratio_terms(np.diag(w) ** 2) + off_diagonal + float(y @ y))


def kl_diagonal(mean_a, var_a, mean_b, var_b) -> float:
    """The divergence above for diagonal covariances, given as (d,)
    variance vectors."""
    dims = {np.shape(x) for x in (mean_a, var_a, mean_b, var_b)}
    if len(dims) != 1 or np.ndim(mean_a) != 1:
        raise ValueError(f"expected four vectors of one length, got shapes {sorted(dims)}")
    var_a = np.asarray(var_a, dtype=np.float64)
    var_b = np.asarray(var_b, dtype=np.float64)
    if (var_a <= 0).any() or (var_b <= 0).any():
        raise ValueError("diagonal variances must be positive")
    delta = np.subtract(mean_a, mean_b, dtype=np.float64)
    return 0.5 * (_ratio_terms(var_b / var_a) + float((delta * delta / var_a).sum()))


def sfa_loss(query_source: np.ndarray, query_target: np.ndarray) -> float:
    """Semantic-feature alignment: KL between full-covariance fits of the
    two query sets, one sample per spatial position of every image.

    Each input is (images, positions, channels), or any array whose last
    axis holds the channels.
    """
    fits = []
    for features in (query_source, query_target):
        features = np.asarray(features, dtype=np.float64)
        mu, cov = gaussian_moments(features.reshape(-1, features.shape[-1]))
        cov[np.diag_indices_from(cov)] += RIDGE
        fits += mu, cov
    return kl_gaussian(*fits)


def spa_loss(
    patterns_query_source: Sequence[np.ndarray],
    patterns_query_target: Sequence[np.ndarray],
) -> tuple[float, int]:
    """Pattern alignment summed over classes.

    Inputs hold one (samples, length) pattern matrix per class, as in
    ScoreTable.patterns; each class is fitted per coordinate.  A class
    lacking two samples on either side contributes zero; the count of
    skipped classes is returned alongside the sum.
    """
    if len(patterns_query_source) != len(patterns_query_target):
        raise ValueError("class count mismatch between the two sides")
    total = 0.0
    skipped = 0
    for class_s, class_t in zip(patterns_query_source, patterns_query_target):
        if len(class_s) < 2 or len(class_t) < 2:
            skipped += 1
            continue
        fits = []
        for patterns in (class_s, class_t):
            samples = np.asarray(patterns, dtype=np.float64)
            if samples.ndim != 2:
                raise ValueError("patterns must be a (samples, length) matrix")
            fits += samples.mean(axis=0), samples.var(axis=0, ddof=1) + RIDGE
        total += kl_diagonal(*fits)
    return total, skipped
