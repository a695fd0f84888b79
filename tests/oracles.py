"""Test-only reference implementations the fast pipeline paths must match.

singular_values is the plain SVD that cluster-count selection is checked
against.  kmeans_reference and farthest_first_reference are the direct
forms of numkit.kmeans and numkit.farthest_first_init: plain Lloyd, which
computes every point's distances and builds a fresh one-hot matrix for
the cluster sums in every iteration, and one difference array per
farthest-first step.

classification_loss, select_confident and target_owned_classes are the
convenience forms of scoring and self-training that only tests use.
reference_scores builds a score table from the reference path
(similarity_matrix, then similarity_pattern, then the mean).
"""

from __future__ import annotations

import numpy as np

from fewshift.numkit import KMeansResult
from fewshift.patterns import (
    ScoreTable,
    cross_entropy,
    score_set,
    similarity_matrix,
    similarity_pattern,
)
from fewshift.selftrain import _confident_from_table


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of m, descending, length min(rows, cols)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return np.linalg.svd(m, compute_uv=False)


def svd_cluster_count(locals_matrix, tau_rel=0.1, k_min=2, k_max=64) -> int:
    """select_cluster_count computed from the SVD of the centered locals."""
    locals_matrix = np.asarray(locals_matrix, dtype=np.float64)
    centered = locals_matrix - locals_matrix.mean(axis=0)
    sv = singular_values(centered)
    scale = float(np.abs(locals_matrix).max()) if locals_matrix.size else 0.0
    if sv[0] <= 1e-10 * max(1.0, scale):
        return k_min
    count = int((sv >= tau_rel * sv[0]).sum())
    return min(max(count, k_min), k_max)


def _sq_distances(points, centroids):
    d2 = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def kmeans_reference(points, k, init, max_iter=100, tol=1e-6) -> KMeansResult:
    """Lloyd iterations with the same stopping and reseed rules as kmeans."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    centroids = np.array(init, dtype=np.float64, copy=True)
    assignments = np.zeros(n, dtype=np.intp)
    iterations = 0
    distance_rows = 0

    def reseed_empty(assignments, point_d2):
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
        d2 = _sq_distances(points, centroids)
        distance_rows += n
        assignments = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), assignments]
        counts = reseed_empty(assignments, point_d2)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), assignments] = 1.0
        new_centroids = onehot.T @ points / np.maximum(counts, 1)[:, None]
        dead = counts == 0
        if dead.any():
            new_centroids[dead] = centroids[dead]
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if movement < tol:
            break

    d2 = _sq_distances(points, centroids)
    distance_rows += n
    assignments = d2.argmin(axis=1)
    point_d2 = d2[np.arange(n), assignments]
    counts = np.bincount(assignments, minlength=k)
    if (counts == 0).any():
        reseed_empty(assignments, point_d2)
        for j in range(k):
            members = assignments == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
        d2 = _sq_distances(points, centroids)
        distance_rows += n
        point_d2 = d2[np.arange(n), assignments]
    return KMeansResult(
        centroids, assignments, float(point_d2.sum()), iterations, distance_rows
    )


def farthest_first_reference(points, k, rng) -> list[int]:
    """Indices farthest_first_init picks, by explicit difference arrays."""
    points = np.asarray(points, dtype=np.float64)
    chosen = [rng.randint(points.shape[0])]
    min_d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(min_d2.argmax())
        chosen.append(nxt)
        min_d2 = np.minimum(min_d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return chosen



def reference_scores(queries, classes) -> ScoreTable:
    """score_set computed one (query, class) pair at a time."""
    rows = [
        [similarity_pattern(similarity_matrix(q, group)).vector for group in classes]
        for q in queries
    ]
    patterns = [np.vstack([row[c] for row in rows]) for c in range(len(classes))]
    scores = np.array([[v.mean() for v in row] for row in rows])
    return ScoreTable(scores, patterns)


def classification_loss(queries, labels, classes) -> float:
    """Mean cross-entropy of the softmax over class scores at the labels."""
    n_classes = len(classes)
    for lab in labels:
        if not 0 <= lab < n_classes:
            raise ValueError(f"label {lab} outside [0, {n_classes})")
    table = score_set(queries, classes)
    return cross_entropy(table.scores, labels)


def select_confident(queries, prototypes, rule):
    """Query ids that pass the confidence rule, listed under their top class."""
    table = score_set(queries, prototypes.per_class)
    return _confident_from_table(table, rule, len(prototypes.per_class))


def target_owned_classes(prototypes, queries) -> set[int]:
    """Classes holding at least one promoted target prototype, that is,
    one of the query maps themselves."""
    return {
        c
        for c, group in enumerate(prototypes.per_class)
        if any(p is q for p in group for q in queries)
    }
