"""Image-to-class similarity: 3-D similarity tensors, pattern vectors,
and class scores.

similarity_matrix is the reference path: it computes every entry with
the same elementary operations a naive loop would use (per-pair dot and
1-D norms), so oracle tests can demand bit-identical results.  score_set
is the bulk path the engine runs; it agrees with the reference path to
float tolerance.  It pools one block per (query set, prototype image)
pair with one matrix product and keeps the blocks in a PooledBlocks
cache, so a prototype image is never pooled twice against the same
query set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numkit import log_softmax, unit_rows
from .semantic import SemanticFeatureMap


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
    """Per-class scalar scores with the top-2 ranking.

    Ties resolve to the lowest class index, so pos != neg whenever at
    least two classes exist.
    """

    scores: np.ndarray
    pos: int
    neg: int


def similarity_matrix(
    query: SemanticFeatureMap, support_class: Sequence[SemanticFeatureMap]
) -> np.ndarray:
    """Entry (i, a, b): cosine of query position a vs support image i
    position b.  Reference implementation; entries are computed one at a
    time from the raw rows so a naive loop reproduces them exactly.
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


def similarity_pattern(matrix: np.ndarray) -> SimilarityPattern:
    """Pool the 3-D similarity tensor into a pattern vector: for every
    support position, the best match over the query positions."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise ValueError("similarity tensor contains non-finite entries")
    return SimilarityPattern(matrix.max(axis=1).reshape(-1))  # (K * S_s,)


class PooledBlocks:
    """Pooled similarity blocks of one query set, one per prototype image.

    The block of an image is the (Q, S) max-pooled cosine pattern of
    every query against that image.  It is computed the first time a
    class group holds the image and kept, together with the image, for
    the life of the cache; later groups only gather it.  The query rows
    are normalised once, on the first miss.
    """

    def __init__(self, queries: Sequence[SemanticFeatureMap]):
        self.queries = list(queries)
        self._q_unit: np.ndarray | None = None
        self._blocks: dict[int, tuple[SemanticFeatureMap, np.ndarray]] = {}

    def serves(self, queries: Sequence[SemanticFeatureMap]) -> bool:
        return len(queries) == len(self.queries) and all(
            a is b for a, b in zip(queries, self.queries)
        )

    def class_pattern(self, group: Sequence[SemanticFeatureMap]) -> np.ndarray:
        """(Q, L) patterns of every query against one class's images."""
        misses = {id(m): m for m in group if id(m) not in self._blocks}
        if misses:
            self._pool(list(misses.values()))
        return np.concatenate([self._blocks[id(m)][1] for m in group], axis=1)

    def _pool(self, images: list[SemanticFeatureMap]) -> None:
        """One product of the query rows with the images' unit rows."""
        if self._q_unit is None:
            self._q_unit = unit_rows(np.vstack([m.features for m in self.queries]))
        n_q, s_q = len(self.queries), self.queries[0].positions
        s_s = images[0].positions
        s_unit = unit_rows(np.vstack([m.features for m in images]))
        sims = (self._q_unit @ s_unit.T).reshape(n_q, s_q, len(images), s_s)
        # clip is monotone, so clipping the pooled maxima equals pooling
        # the clipped cosines
        pooled = np.clip(sims.max(axis=1), -1.0, 1.0)  # (Q, m, S_s)
        for i, m in enumerate(images):
            self._blocks[id(m)] = (m, pooled[:, i])


@dataclass
class ScoreTable:
    """Scores of many queries against the same class prototypes."""

    scores: np.ndarray            # (Q, N)
    patterns: list[np.ndarray]    # per class, (Q, L_c)

    def top2(self) -> tuple[np.ndarray, np.ndarray]:
        """Best and runner-up class of every query; ties go to the lower
        index, so the two differ whenever at least two classes exist."""
        if self.scores.shape[1] < 2:
            raise ValueError("need at least 2 classes to rank")
        pos = self.scores.argmax(axis=1)  # first (lowest) index on ties
        rest = self.scores.copy()
        rest[np.arange(len(pos)), pos] = -np.inf
        return pos, rest.argmax(axis=1)

    @property
    def predictions(self) -> np.ndarray:
        return self.scores.argmax(axis=1)


def score_set(
    queries: Sequence[SemanticFeatureMap],
    classes: Sequence[Sequence[SemanticFeatureMap]],
    blocks: PooledBlocks | None = None,
) -> ScoreTable:
    """Score every query against every class.

    A score is the mean of the pattern vector, so scores do not depend on
    the resolution.  blocks, when given, must be a cache of these
    queries; images it already holds are not pooled again.
    """
    if blocks is None:
        blocks = PooledBlocks(queries)
    elif not blocks.serves(queries):
        raise ValueError("blocks were pooled for other queries")
    patterns = [blocks.class_pattern(group) for group in classes]
    scores = np.column_stack([p.mean(axis=1) for p in patterns])
    return ScoreTable(scores, patterns)


def class_scores(
    query: SemanticFeatureMap,
    classes: Sequence[Sequence[SemanticFeatureMap]],
) -> ClassScores:
    """Scores of one query against all classes, with the top-2 ranking."""
    if len(classes) < 2:
        raise ValueError("need at least 2 classes to rank")
    table = score_set([query], classes)
    pos, neg = table.top2()
    return ClassScores(table.scores[0], int(pos[0]), int(neg[0]))


def cross_entropy(scores: np.ndarray, labels: Sequence[int]) -> float:
    """Mean negative log softmax probability of the labels, rows = queries."""
    scores = np.asarray(scores, dtype=np.float64)
    n_classes = scores.shape[1]
    total = 0.0
    for q, lab in enumerate(labels):
        if not 0 <= lab < n_classes:
            raise ValueError(f"label {lab} outside [0, {n_classes})")
        total -= log_softmax(scores[q])[lab]
    return total / len(labels)
