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
    distance_rows: int         # point rows whose distances to all k centroids were computed


_EPS = float(np.finfo(np.float64).eps)


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


def _member_sums(points: np.ndarray, into: np.ndarray, k: int, out_of=None) -> np.ndarray:
    """(k, d) sums of the points by cluster, as one one-hot product.

    With out_of, each point is also subtracted from its cluster there:
    the change of the cluster sums when the points move out_of -> into.
    """
    step = np.zeros((points.shape[0], k))
    rows = np.arange(points.shape[0])
    if out_of is not None:
        step[rows, out_of] = -1.0
    step[rows, into] = 1.0
    return step.T @ points


def kmeans(
    points: np.ndarray,
    k: int,
    init: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> KMeansResult:
    """Lloyd iterations from an explicit k x d initialization.

    Runs until the largest centroid movement drops below tol or max_iter
    is reached.  An empty cluster is reseeded to the point currently
    farthest from its assigned centroid, keeping k fixed.

    Points whose cluster provably cannot change skip the assignment step
    (Hamerly, SDM 2010).  Each point keeps an upper bound u on the exact
    distance to its own centroid and a lower bound l on the exact
    distance to every other one; a centroid update raises u by that
    centroid's shift and lowers l by the largest shift.  Since another
    centroid lies at least 2s away, with s half the distance from the own
    centroid to its nearest other one, max(l, 2s - u) is a lower bound
    too (u < 2s - u is Hamerly's u < s).  Every bound is rounded outward,
    and a point is skipped only when u^2 stays below that lower bound
    squared by twice the rounding error of the expanded distance form, so
    the argmin a full distance row would give is provably its current
    cluster: assignments and iteration counts are those of plain Lloyd.

    Cluster sums change only by the points that moved.  Iteration 1
    computes every distance, and so does an iteration whose bounded
    assignment would empty a cluster, since the reseed needs every
    point's distance.  distance_rows counts the point rows sent through
    the distance product, the final assignment included.
    """
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")
    centroids = np.array(init, dtype=np.float64, copy=True)
    if centroids.shape != (k, d):
        raise ValueError("init must be k x d")

    sq_norms = (points * points).sum(axis=1)
    rows = np.arange(n)
    # a computed squared distance lies within (2d + 4) eps (||x||^2 + ||c||^2)
    # of the exact one; twice that also covers the rounding of the test
    slack = 4.0 * (d + 2) * _EPS
    # relative widening that keeps a rounded bound on its side of the exact one
    grow, shrink = 1.0 + (d + 8) * _EPS, 1.0 - (d + 8) * _EPS
    upper = np.empty(n)
    lower = np.empty(n)
    counts = sums = None
    iterations = 0
    distance_rows = 0

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

    def set_bounds(at, d2, own, margin):
        # bounds from computed rows d2 of the points at, assigned to own;
        # d2 is overwritten
        picked = np.arange(len(at)), own
        upper[at] = np.sqrt(d2[picked] + margin) * grow
        d2[picked] = math.inf
        lower[at] = np.sqrt(np.maximum(d2.min(axis=1) - margin, 0.0)) * shrink

    for iterations in range(1, max_iter + 1):
        csq = (centroids * centroids).sum(axis=1)
        margin = slack * (sq_norms + csq.max())
        full = counts is None
        if not full:
            # half the distance from each centroid to its nearest other one,
            # less twice the rounding error of the squared gap
            gap2 = _sq_distances(centroids, csq, centroids)
            np.fill_diagonal(gap2, math.inf)
            half = 0.5 * np.sqrt(np.maximum(gap2.min(axis=1) - 2.0 * slack * csq.max(), 0.0))
            bound = np.maximum(lower, (2.0 * half[assignments] - upper) * shrink)
            np.maximum(bound, 0.0, out=bound)
            active = np.flatnonzero(upper * upper + 2.0 * margin >= bound * bound)
            d2 = _sq_distances(points[active], sq_norms[active], centroids)
            distance_rows += len(active)
            nearest = d2.argmin(axis=1)
            moving = nearest != assignments[active]
            moved, came, went = active[moving], nearest[moving], assignments[active][moving]
            new_counts = (counts + np.bincount(came, minlength=k)
                          - np.bincount(went, minlength=k))
            full = not new_counts.all()
        if full:
            d2 = _sq_distances(points, sq_norms, centroids)
            distance_rows += n
            assignments = d2.argmin(axis=1)
            point_d2 = d2[rows, assignments]
            counts = reseed_empty(assignments, point_d2)
            sums = _member_sums(points, assignments, k)
            set_bounds(rows, d2, assignments, margin)
        else:
            counts = new_counts
            sums += _member_sums(points[moved], came, k, out_of=went)
            assignments[moved] = came
            set_bounds(active, d2, nearest, margin[active])

        new_centroids = sums / np.maximum(counts, 1)[:, None]
        dead = counts == 0
        if dead.any():  # unreachable unless every cluster is a singleton
            new_centroids[dead] = centroids[dead]
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1))
        centroids = new_centroids
        if float(shift.max()) < tol:
            break
        shift *= grow
        upper += shift[assignments]
        upper *= grow
        lower -= shift.max()
        lower *= shrink

    # final assignment against the converged centroids
    d2 = _sq_distances(points, sq_norms, centroids)
    distance_rows += n
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
        distance_rows += n
        point_d2 = d2[rows, assignments]
    inertia = float(point_d2.sum())
    return KMeansResult(centroids, assignments, inertia, iterations, distance_rows)


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


def cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(sigma, sigma.T, rtol=1e-8, atol=1e-10):
        raise ValueError("matrix is not symmetric")
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(_pivot_of_failure(sigma)) from None


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
    """Max-subtracted stable softmax along the last axis."""
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError("softmax input must be finite")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(v: np.ndarray) -> np.ndarray:
    """Max-subtracted log softmax along the last axis."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
