"""Image-to-class similarity: pooled pattern vectors and class scores.

An episode is one embedded stack (n, positions, channels); queries and
class prototypes are row indices into it.  A query's pattern against a
class concatenates one block per prototype image: for every position of
that image, the best cosine over the query's positions.  Its score is
the pattern's mean.  score_set pools one block per (query set,
prototype image) pair, the misses of a table in as few matrix products
as a bound on their temporary allows, and keeps the blocks in a
PooledBlocks cache, so a prototype image is never pooled twice against
the same query set.
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
    It is computed the first time a class group holds the row and kept
    for the life of the cache; later groups only gather it.  The query
    rows are normalised once, on the first miss; a prototype image's
    rows, a promoted query image's included, are normalised from the
    stack when it is pooled.
    """

    def __init__(self, stack: np.ndarray, query_rows: Sequence[int]):
        self.stack = stack
        self.query_rows = np.asarray(query_rows, dtype=np.intp)
        self._q_unit: np.ndarray | None = None
        self._blocks: dict[int, np.ndarray] = {}

    def pool(self, classes: Sequence[Sequence[int]]) -> None:
        """Pool every image of the class groups that the cache misses.

        Consecutive groups share one product while its (Q * S, m * S)
        similarity temporary holds no more elements than the stack.  A
        group is never split, so a group past that bound gets a product
        of its own, the one it would get alone.
        """
        per_image = len(self.query_rows) * self.stack.shape[1] ** 2
        batch: dict[int, None] = {}
        for group in classes:
            misses = [r for r in dict.fromkeys(int(r) for r in group)
                      if r not in self._blocks and r not in batch]
            if batch and (len(batch) + len(misses)) * per_image > self.stack.size:
                self._pool(list(batch))
                batch = {}
            batch.update(dict.fromkeys(misses))
        if batch:
            self._pool(list(batch))

    def class_pattern(self, rows: Sequence[int]) -> np.ndarray:
        """(Q, L) patterns of every query against one class's images,
        all of them pooled already."""
        return np.concatenate([self._blocks[int(r)] for r in rows], axis=1)

    def _pool(self, rows: list[int]) -> None:
        """One product of the query rows with the images' unit rows."""
        n_q, s, channels = len(self.query_rows), *self.stack.shape[1:]
        if self._q_unit is None:
            queries = take_rows(self.stack, self.query_rows)
            self._q_unit = unit_rows(queries.reshape(-1, channels))
        s_unit = unit_rows(self.stack[rows].reshape(-1, channels))
        sims = (self._q_unit @ s_unit.T).reshape(n_q, s, len(rows), s)
        # clip is monotone, so clipping the pooled maxima equals pooling
        # the clipped cosines
        pooled = np.clip(sims.max(axis=1), -1.0, 1.0)  # (Q, m, S)
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
    again; the misses of the whole table are pooled first, in as few
    products as PooledBlocks.pool's bound allows.
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
