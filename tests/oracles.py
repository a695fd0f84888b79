"""Test-only reference implementations the fast pipeline paths must match.

singular_values is the plain SVD that cluster-count selection is checked
against.  kl_trace_logdet is the trace/log-det form of the Gaussian KL
that alignment.kl_gaussian computes over a spectrum instead.
kmeans_reference and farthest_first_reference are the direct
forms of numkit.kmeans and numkit.farthest_first_init: plain Lloyd, which
computes every point's distances and builds a fresh one-hot matrix for
the cluster sums in every iteration, and one difference array per
farthest-first step.

SplitMix64Reference keeps rng.SplitMix64's u64, uniforms and gaussians
in their plain expression form, one temporary array per step, which the
in-place versions must match bit for bit.

similarity_matrix and similarity_pattern are the reference path of
pattern scoring: they compute every entry with the same elementary
operations a naive loop would use (per-pair dot and 1-D norms), over
SemanticFeatureMap, a per-image container of feature rows, so oracle
tests can demand bit-identical results.  reference_scores builds a score
table from that path (similarity_matrix, then similarity_pattern, then
the mean); patterns.score_set must agree with it to float tolerance.

stack_maps turns per-image maps into the stack-plus-rows form the
pipeline scores.  class_scores, classification_loss, select_confident
and target_owned_classes are the convenience forms of scoring and
self-training that only tests use.  confident_by_query,
clm_by_query and cross_entropy_by_query are per-query loops over a
score table that the array forms of confident selection, the class
matching hinge and the classification loss must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from fewshift.numkit import KMeansResult
from fewshift.patterns import PooledBlocks, ScoreTable, cross_entropy, score_set


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


def kl_trace_logdet(mean_a, cov_a, mean_b, cov_b) -> float:
    """alignment.kl_gaussian in its textbook trace/log-det form.

    1/2 (tr(S_A^-1 S_B) + ln det S_A - ln det S_B + |L_A^-1 delta|^2 - d),
    with both log-determinants from the Cholesky diagonals.  The float64
    trace drifts by about cond(S_A) eps, so for a near-singular S_A this
    form can read below zero where kl_gaussian cannot.
    """
    lower_a = np.linalg.cholesky(cov_a)
    lower_b = np.linalg.cholesky(cov_b)
    logdet_a = 2.0 * float(np.log(np.diag(lower_a)).sum())
    logdet_b = 2.0 * float(np.log(np.diag(lower_b)).sum())
    half = solve_triangular(lower_a, cov_b, lower=True)
    trace = float(np.trace(solve_triangular(lower_a, half.T, lower=True)))
    y = solve_triangular(lower_a, np.subtract(mean_a, mean_b), lower=True)
    return 0.5 * (trace + logdet_a - logdet_b + float(y @ y) - len(y))


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


_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53 = float(2**53)


class SplitMix64Reference:
    """rng.SplitMix64 from any counter, in plain expression form."""

    def __init__(self, seed: int, count: int = 0):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._count = count

    def u64(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            z = self._seed + idx * np.uint64(_GOLDEN)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            return z ^ (z >> np.uint64(31))

    def uniforms(self, n: int) -> np.ndarray:
        return (self.u64(n) >> np.uint64(11)).astype(np.float64) / _TWO53

    def gaussians(self, n: int) -> np.ndarray:
        pairs = (n + 1) // 2
        raw = self.u64(2 * pairs)
        u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) / _TWO53
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) / _TWO53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]


@dataclass(eq=False)
class SemanticFeatureMap:
    """Feature rows of one image, (grid_h * grid_w, channels) row-major."""

    features: np.ndarray
    grid_h: int
    grid_w: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.shape[0] != self.grid_h * self.grid_w:
            raise ValueError("feature rows disagree with the grid size")

    @property
    def positions(self) -> int:
        return self.features.shape[0]

    @property
    def channels(self) -> int:
        return self.features.shape[1]


@dataclass
class SimilarityPattern:
    """Pooled similarity vector of one query against one class.

    The vector concatenates one block per support image, in class order.
    """

    vector: np.ndarray

    @property
    def score(self) -> float:
        return float(self.vector.mean())


@dataclass
class ClassScores:
    """Per-class scalar scores of one query with the top-2 ranking.

    Ties resolve to the lowest class index, so pos != neg whenever at
    least two classes exist.
    """

    scores: np.ndarray
    pos: int
    neg: int


def similarity_matrix(query, support_class) -> np.ndarray:
    """Entry (i, a, b): cosine of query position a vs support image i
    position b, computed one at a time from the raw rows so a naive loop
    reproduces them exactly.
    """
    channels = query.channels
    q = query.features
    q_norms = [np.linalg.norm(row) for row in q]
    out = np.empty((len(support_class), query.positions, support_class[0].positions))
    for i, smap in enumerate(support_class):
        if smap.channels != channels:
            raise ValueError(
                f"channel mismatch: query {channels}, support {smap.channels}"
            )
        s = smap.features
        s_norms = [np.linalg.norm(row) for row in s]
        for a in range(q.shape[0]):
            qa, na = q[a], q_norms[a]
            for b in range(s.shape[0]):
                denom = na * s_norms[b]
                if denom == 0.0:
                    out[i, a, b] = 0.0
                else:
                    out[i, a, b] = max(-1.0, min(1.0, float(np.dot(qa, s[b])) / denom))
    return out


def similarity_pattern(matrix) -> SimilarityPattern:
    """Pool the 3-D similarity tensor into a pattern vector: for every
    support position, the best match over the query positions."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise ValueError("similarity tensor contains non-finite entries")
    return SimilarityPattern(matrix.max(axis=1).reshape(-1))  # (K * S_s,)


def row_map(stack, row) -> SemanticFeatureMap:
    """The map of one stack row, on a one-line grid."""
    return SemanticFeatureMap(stack[row], 1, stack.shape[1])


def reference_scores(stack, query_rows, classes) -> ScoreTable:
    """score_set computed one (query, class) pair at a time."""
    rows = [
        [
            similarity_pattern(
                similarity_matrix(row_map(stack, q), [row_map(stack, r) for r in group])
            ).vector
            for group in classes
        ]
        for q in query_rows
    ]
    patterns = [np.vstack([row[c] for row in rows]) for c in range(len(classes))]
    scores = np.array([[v.mean() for v in row] for row in rows])
    return ScoreTable(scores, patterns)


def stack_maps(queries, classes):
    """(stack, query rows, per-class rows) of the distinct maps given.

    The queries come first; a map listed more than once gets one row.
    """
    rows: dict[int, int] = {}
    images = []

    def row(m) -> int:
        if id(m) not in rows:
            rows[id(m)] = len(images)
            images.append(m.features)
        return rows[id(m)]

    query_rows = np.array([row(m) for m in queries], dtype=np.intp)
    class_rows = [np.array([row(m) for m in group], dtype=np.intp) for group in classes]
    return np.stack(images), query_rows, class_rows


def score_maps(queries, classes) -> ScoreTable:
    """score_set of per-image maps."""
    stack, query_rows, class_rows = stack_maps(queries, classes)
    return score_set(PooledBlocks(stack, query_rows), class_rows)


def class_scores(query, classes) -> ClassScores:
    """Scores of one query map against all classes, with the top-2 ranking."""
    if len(classes) < 2:
        raise ValueError("need at least 2 classes to rank")
    table = score_maps([query], classes)
    pos, neg = table.top2()
    return ClassScores(table.scores[0], int(pos[0]), int(neg[0]))


def classification_loss(queries, labels, classes) -> float:
    """Mean cross-entropy of the softmax over class scores at the labels."""
    n_classes = len(classes)
    for lab in labels:
        if not 0 <= lab < n_classes:
            raise ValueError(f"label {lab} outside [0, {n_classes})")
    return cross_entropy(score_maps(queries, classes).scores, labels)


def confident_by_query(scores, threshold=1.7):
    """Per-query reference of confident selection: a query whose top-2
    score gap g has math.exp(g) >= threshold is listed under its top
    class, the lowest index among tied maxima."""
    per_class = [[] for _ in range(len(scores[0]))]
    for q, row in enumerate(np.asarray(scores).tolist()):
        top = row.index(max(row))
        runner_up = max(row[:top] + row[top + 1:])
        if math.exp(row[top] - runner_up) >= threshold:
            per_class[top].append(q)
    return per_class


def clm_by_query(scores, margin=1.5):
    """Per-query reference of the class matching hinge: the sum over
    queries of max(pi_neg - pi_pos + margin, 0), pi the softmax of the
    query's scores and pos, neg its top two classes."""
    total = 0.0
    for row in np.asarray(scores).tolist():
        top = row.index(max(row))
        runner_up = max(row[:top] + row[top + 1:])
        norm = sum(math.exp(x - row[top]) for x in row)
        total += max(math.exp(runner_up - row[top]) / norm - 1.0 / norm + margin, 0.0)
    return total


def cross_entropy_by_query(scores, labels):
    """Per-query reference of the mean negative log softmax probability
    of the labels."""
    total = 0.0
    for row, lab in zip(np.asarray(scores).tolist(), labels):
        top = max(row)
        total += top + math.log(sum(math.exp(x - top) for x in row)) - row[lab]
    return total / len(labels)


def select_confident(blocks, prototypes, threshold=1.7):
    """Query positions that pass the confidence threshold, listed under
    their top class."""
    return confident_by_query(score_set(blocks, prototypes).scores, threshold)


def target_owned_classes(prototypes, query_rows) -> set[int]:
    """Classes holding at least one promoted target prototype, that is,
    one of the query rows themselves."""
    return {c for c, rows in enumerate(prototypes) if np.isin(rows, query_rows).any()}
