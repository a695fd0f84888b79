"""Dense numeric primitives: K-means, moments, Cholesky, cosines.

All computation is float64 regardless of the single-precision storage
format; the KL terms downstream involve matrix inverses and would
amplify float32 noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError
from .rng import SplitMix64


@dataclass
class KMeansResult:
    centroids: np.ndarray      # (k, d)
    assignments: np.ndarray    # (n,) int
    inertia: float
    iterations: int


def _sq_distances(
    points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """||x||^2 - 2 x.c + ||c||^2 per point and centroid, clamped at 0.

    sq_norms holds ||x||^2 for the points, computed once by the caller.
    The product is scaled by -2 in place; a power-of-two scale is exact,
    so this equals (2 x) . c term by term.
    """
    d2 = points @ centroids.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def kmeans(
    points: np.ndarray,
    k: int,
    init: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-6,
    verify_monotone: bool = False,
) -> KMeansResult:
    """Lloyd iterations from an explicit k x d initialization.

    Runs until the largest centroid movement drops below tol or max_iter
    is reached.  An empty cluster is reseeded to the point currently
    farthest from its assigned centroid, keeping k fixed.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")
    centroids = np.array(init, dtype=np.float64, copy=True)
    if centroids.shape != (k, points.shape[1]):
        raise ValueError("init must be k x d")

    sq_norms = (points * points).sum(axis=1)
    rows = np.arange(n)
    # one-hot membership matrix, cleared and refilled in place each iteration
    onehot = np.zeros((n, k))
    assignments = np.zeros(n, dtype=np.intp)
    prev_inertia = math.inf
    inertia = math.inf
    iterations = 0

    def reseed_empty(assignments, point_d2):
        # move the farthest point into each empty cluster, never draining
        # a cluster down to zero in the process
        counts = np.bincount(assignments, minlength=k)
        for j in np.flatnonzero(counts == 0):
            movable = counts[assignments] >= 2
            if not movable.any():
                break
            candidates = np.where(movable, point_d2, -1.0)
            far = int(candidates.argmax())
            counts[assignments[far]] -= 1
            counts[j] += 1
            assignments[far] = j
            point_d2[far] = 0.0
        return counts

    for iterations in range(1, max_iter + 1):
        d2 = _sq_distances(points, sq_norms, centroids)
        onehot[rows, assignments] = 0.0
        assignments = d2.argmin(axis=1)
        point_d2 = d2[rows, assignments]
        counts = reseed_empty(assignments, point_d2)
        inertia = float(point_d2.sum())
        if verify_monotone and inertia > prev_inertia + 1e-9 * (1.0 + prev_inertia):
            raise AssertionError(
                f"inertia increased: {prev_inertia} -> {inertia} at iteration {iterations}"
            )
        prev_inertia = inertia

        onehot[rows, assignments] = 1.0
        new_centroids = onehot.T @ points / np.maximum(counts, 1)[:, None]
        dead = counts == 0
        if dead.any():  # unreachable unless every cluster is a singleton
            new_centroids[dead] = centroids[dead]
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if movement < tol:
            break

    # final assignment against the converged centroids
    d2 = _sq_distances(points, sq_norms, centroids)
    assignments = d2.argmin(axis=1)
    point_d2 = d2[rows, assignments]
    counts = np.bincount(assignments, minlength=k)
    if (counts == 0).any():
        reseed_empty(assignments, point_d2)
        for j in range(k):
            members = assignments == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
        d2 = _sq_distances(points, sq_norms, centroids)
        point_d2 = d2[rows, assignments]
    inertia = float(point_d2.sum())
    return KMeansResult(centroids, assignments, inertia, iterations)


def farthest_first_init(points: np.ndarray, k: int, rng: SplitMix64) -> np.ndarray:
    """k seed centroids: one point from rng, then greedy farthest points.

    Distances come from _sq_distances with the squared norms computed
    once.  Ties resolve to the lowest point index so the choice
    is reproducible.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")
    sq_norms = (points * points).sum(axis=1)

    def sq_dist_to(p: int) -> np.ndarray:
        return _sq_distances(points, sq_norms, points[p:p + 1])[:, 0]

    chosen = [rng.randint(n)]
    min_d2 = sq_dist_to(chosen[0])
    while len(chosen) < k:
        nxt = int(min_d2.argmax())
        chosen.append(nxt)
        np.minimum(min_d2, sq_dist_to(nxt), out=min_d2)
    return points[chosen].copy()


def gaussian_moments(samples: np.ndarray, ridge: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and unbiased covariance with ridge on the diagonal.

    The covariance is symmetrized explicitly before the ridge is added,
    so the result is exactly symmetric and positive definite for ridge > 0.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples for a covariance")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    mu = samples.mean(axis=0)
    centered = samples - mu
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0
    cov[np.diag_indices_from(cov)] += ridge
    return mu, cov


def _pivot_of_failure(sigma: np.ndarray) -> int:
    # plain Cholesky, only run on the (rare) failure path to name the pivot
    a = np.array(sigma, dtype=np.float64, copy=True)
    d = a.shape[0]
    for j in range(d):
        s = a[j, j] - np.dot(a[j, :j], a[j, :j])
        if s <= 0.0 or not np.isfinite(s):
            return j
        a[j, j] = math.sqrt(s)
        if j + 1 < d:
            a[j + 1:, j] = (a[j + 1:, j] - a[j + 1:, :j] @ a[j, :j]) / a[j, j]
    return d - 1


def cholesky_logdet(sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor and log-determinant of a symmetric PD matrix."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(sigma, sigma.T, rtol=1e-8, atol=1e-10):
        raise ValueError("matrix is not symmetric")
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(_pivot_of_failure(sigma)) from None
    logdet = 2.0 * float(np.log(np.diag(lower)).sum())
    return lower, logdet


def unit_rows(a: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm; zero rows stay zero."""
    a = np.asarray(a, dtype=np.float64)
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return a / safe


def cosine_matrix(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """Pairwise cosines between the rows of two matrices.

    A zero-norm row has cosine 0 against everything.  Output is clamped
    to [-1, 1] to absorb last-ulp excursions from the matrix product.
    """
    a_rows = np.asarray(a_rows, dtype=np.float64)
    b_rows = np.asarray(b_rows, dtype=np.float64)
    if a_rows.shape[1] != b_rows.shape[1]:
        raise ValueError(
            f"column mismatch: {a_rows.shape[1]} vs {b_rows.shape[1]}"
        )
    out = unit_rows(a_rows) @ unit_rows(b_rows).T
    return np.clip(out, -1.0, 1.0)


def softmax(v: np.ndarray) -> np.ndarray:
    """Max-subtracted stable softmax."""
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError("softmax input must be finite")
    e = np.exp(v - v.max())
    return e / e.sum()


def log_softmax(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max()
    return shifted - math.log(np.exp(shifted).sum())
