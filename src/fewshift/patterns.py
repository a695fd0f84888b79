"""Image-to-class similarity: pooled pattern vectors and class scores.

An episode is one embedded stack (n, positions, channels); queries and
class prototypes are row indices into it.  A query's pattern against a
class concatenates one block per prototype image: for every position of
that image, the best cosine over the query's positions.  Its score is
the pattern's mean.  score_set pools one block per (query set,
prototype image) pair, all the misses of a table in one pass over chunks
of queries, and keeps the blocks in a PooledBlocks cache, so a prototype
image is never pooled twice against the same query set.

The similarity product runs in float32 on unit rows normalised in
float64; its max-pool writes float64, and all that follows, scores and
losses included, is float64.  A pooled cosine, and so a pattern entry or
a score, is within channels * float32 eps of the float64 value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numkit import log_softmax, unit_rows


def take_rows(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """stack[rows]: a view when rows is one ascending run of consecutive
    rows, as every query set of an embedded episode is, else a copy.
    Both hold the same values in the same C order; the view spares a
    transient copy of the query set per episode.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) and np.array_equal(rows, np.arange(rows[0], rows[0] + len(rows))):
        return stack[rows[0]:rows[0] + len(rows)]
    return stack[rows]


class PooledBlocks:
    """Pooled similarity blocks of one query set, one per stack row.

    stack is the embedded episode, (n, positions, channels), and
    query_rows the rows of the queries.  The block of a row is the
    (Q, S) max-pooled cosine pattern of every query against that image.
    It is computed the first time a table holds the row, together with
    the table's other misses, and kept for the life of the cache; later
    tables only gather it.  The query rows are normalised once, on the
    first miss; a prototype image's rows, a promoted query image's
    included, are normalised from the stack when it is pooled.  Blocks
    are float64 and within channels * float32 eps of the float64 cosines;
    their low bits may differ with the shape of the product that pooled
    them.
    """

    def __init__(self, stack: np.ndarray, query_rows: Sequence[int]):
        self.stack = stack
        self.query_rows = np.asarray(query_rows, dtype=np.intp)
        self._q_unit: np.ndarray | None = None
        self._blocks: dict[int, np.ndarray] = {}

    def pool(self, classes: Sequence[Sequence[int]]) -> None:
        """Pool every image of the class groups that the cache misses,
        all of them in one _pool call, in first-seen order."""
        misses = [r for r in dict.fromkeys(int(r) for group in classes for r in group)
                  if r not in self._blocks]
        if misses:
            self._pool(misses)

    def class_pattern(self, rows: Sequence[int]) -> np.ndarray:
        """(Q, L) patterns of every query against one class's images,
        all of them pooled already."""
        return np.concatenate([self._blocks[int(r)] for r in rows], axis=1)

    def _pool(self, rows: list[int]) -> None:
        """Pool the m images of rows in one pass over chunks of queries:
        a chunk's product with all m images fills one reused (chunk * S,
        m * S) float32 similarity buffer, no larger than the stack in
        elements unless one query's block is (chunk = 1).  Both operands
        are float64 unit rows rounded to float32; the max over a chunk's
        query positions is written to the float64 pooled array.  A chunk
        of one row, one query of one position, is multiplied as two
        copies of that row, so the buffer has at least two rows."""
        n_q, s, channels = len(self.query_rows), *self.stack.shape[1:]
        if self._q_unit is None:
            queries = take_rows(self.stack, self.query_rows)
            self._q_unit = unit_rows(queries.reshape(-1, channels)).astype(np.float32)
        m = len(rows)
        s_unit = unit_rows(self.stack[rows].reshape(-1, channels)).astype(np.float32)
        s_unit_t = s_unit.T  # (C, m * S)
        chunk = max(1, self.stack.size // (s * m * s))
        buf = np.empty((max(2, min(chunk, n_q) * s), m * s), dtype=np.float32)
        pooled = np.empty((n_q, m, s))
        for a in range(0, n_q, chunk):
            b = min(a + chunk, n_q)
            q_unit = self._q_unit[a * s:b * s]
            if len(q_unit) == 1:
                # numpy multiplies a single row as a matrix-vector product,
                # whose float32 bits differ from the matrix product's: a
                # query's cosines would move with its place in the chunks
                q_unit = q_unit[[0, 0]]
            sims = np.matmul(q_unit, s_unit_t, out=buf[:len(q_unit)])[:(b - a) * s]
            sims.reshape(b - a, s, m, s).max(axis=1, out=pooled[a:b])
        # clip is monotone, so clipping the pooled maxima equals pooling
        # the clipped cosines
        np.clip(pooled, -1.0, 1.0, out=pooled)
        for i, r in enumerate(rows):
            self._blocks[r] = pooled[:, i]


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


def score_set(blocks: PooledBlocks, classes: Sequence[Sequence[int]]) -> ScoreTable:
    """Score the queries of blocks against every class.

    classes holds the stack rows of each class's prototype images.  A
    score is the mean of the pattern vector, so scores do not depend on
    the resolution.  Images the cache already holds are not pooled
    again; the misses of the whole table are pooled first, by one
    PooledBlocks._pool call.
    """
    blocks.pool(classes)
    patterns = [blocks.class_pattern(group) for group in classes]
    scores = np.column_stack([p.mean(axis=1) for p in patterns])
    return ScoreTable(scores, patterns)


def cross_entropy(scores: np.ndarray, labels: Sequence[int]) -> float:
    """Mean negative log softmax probability of the labels, rows = queries."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if len(labels) == 0:
        raise ValueError("need at least one label")
    n_classes = scores.shape[1]
    outside = (labels < 0) | (labels >= n_classes)
    if outside.any():
        raise ValueError(f"label {labels[outside][0]} outside [0, {n_classes})")
    return float(-log_softmax(scores)[np.arange(len(labels)), labels].mean())
