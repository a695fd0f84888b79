"""Cross-domain self-training over target queries.

High-confidence target queries are promoted to class prototypes that
replace the source-side support prototypes of their class, then the
remaining target queries are reclassified against the updated set.  The
round loop stops at a fixed point (the confident selection repeats) or
after max_rounds rounds; a budget of zero rounds is self-training
switched off.  Ground-truth target labels are never visible here: the
module only ever sees the embedded stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numkit import softmax
from .patterns import PooledBlocks, ScoreTable, score_set

MAX_ROUNDS = 3


@dataclass
class SelfTrainResult:
    prototypes: list[np.ndarray]  # final stack rows per class
    rounds_used: int              # 0 with a zero budget or when nothing passes
    confident: list[list[int]]    # final confident query positions per class
    table: ScoreTable             # queries scored against the final prototypes
    initial: ScoreTable           # queries scored against the support; table after 0 rounds

    @property
    def confident_count(self) -> int:
        return sum(len(ids) for ids in self.confident)


def _confident_from_table(table: ScoreTable, threshold: float) -> list[list[int]]:
    """Positions of the confident queries, listed under their top class.

    A query is confident when exp(s_pos - s_neg), the ratio of the
    softmax probabilities of its top two classes, reaches threshold.
    """
    pos, neg = table.top2()
    rows = np.arange(len(pos))
    picked = np.exp(table.scores[rows, pos] - table.scores[rows, neg]) >= threshold
    return [np.flatnonzero(picked & (pos == c)).tolist() for c in range(table.scores.shape[1])]


def promote_and_reclassify(
    blocks: PooledBlocks,
    support_rows: Sequence[Sequence[int]],
    threshold: float = 1.7,
    max_rounds: int = MAX_ROUNDS,
) -> SelfTrainResult:
    """Iterate confident selection and prototype promotion.

    blocks is the target query set's cache (see score_set) and
    support_rows the stack rows of each class's support images.  The
    round-0 table, returned as initial, scores the queries against the
    support; with max_rounds 0 it is also the final table.  Classes
    with at least one confident query swap their prototypes for the
    stack rows of those queries; classes with none keep what they have.
    Predictions always reflect the final prototypes.  Every round pools
    only the images promoted for the first time.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    prototypes = [np.asarray(rows, dtype=np.intp) for rows in support_rows]
    if any(len(rows) == 0 for rows in prototypes):
        raise ValueError("every class needs at least one prototype")
    n_classes = len(prototypes)
    table = initial = score_set(blocks, prototypes)
    previous: list[list[int]] = [[] for _ in range(n_classes)]
    confident = previous
    rounds_used = 0
    for round_no in range(1, max_rounds + 1):
        confident = _confident_from_table(table, threshold)
        if confident == previous:
            break
        for c, ids in enumerate(confident):
            if ids:
                prototypes[c] = blocks.query_rows[ids]
        table = score_set(blocks, prototypes)
        rounds_used = round_no
        previous = confident
    return SelfTrainResult(prototypes, rounds_used, confident, table, initial)


def class_matching_loss(table: ScoreTable, margin: float = 1.5) -> float:
    """Hinge on the softmax probability gap between a query's top-2 classes.

    table scores the target queries against the final prototypes; each
    query contributes max(pi_neg - pi_pos + margin, 0) to the sum.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    pos, neg = table.top2()
    rows = np.arange(len(pos))
    pi = softmax(table.scores)
    return float(np.maximum(pi[rows, neg] - pi[rows, pos] + margin, 0.0).sum())
