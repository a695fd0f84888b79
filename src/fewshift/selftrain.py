"""Cross-domain self-training over target queries.

High-confidence target queries are promoted to class prototypes that
replace the source-side support prototypes of their class, then the
remaining target queries are reclassified against the updated set.  The
round loop stops at a fixed point (the confident selection repeats) or
after the configured number of rounds.  Ground-truth target labels are
never visible here: the module only ever sees the embedded stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numkit import softmax
from .patterns import PooledBlocks, ScoreTable, score_set


@dataclass(frozen=True)
class ConfidenceRule:
    """A target query is confident when exp(s_pos - s_neg), the ratio of
    the softmax probabilities of its top two classes, reaches the
    threshold."""

    threshold: float = 1.7
    max_rounds: int = 3

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")

    def passes(self, s_pos: float, s_neg: float) -> bool:
        return math.exp(s_pos - s_neg) >= self.threshold


@dataclass
class SelfTrainResult:
    prototypes: list[np.ndarray]  # final stack rows per class
    rounds_used: int
    confident: list[list[int]]    # final confident query positions per class
    table: ScoreTable             # queries scored against the final prototypes

    @property
    def predictions(self) -> np.ndarray:
        return self.table.predictions

    @property
    def confident_count(self) -> int:
        return sum(len(ids) for ids in self.confident)


def _confident_from_table(
    table: ScoreTable, rule: ConfidenceRule, n_classes: int
) -> list[list[int]]:
    pos, neg = table.top2()
    rows = np.arange(len(pos))
    s_pos, s_neg = table.scores[rows, pos], table.scores[rows, neg]
    per_class: list[list[int]] = [[] for _ in range(n_classes)]
    for q, c in enumerate(pos.tolist()):
        if rule.passes(s_pos[q], s_neg[q]):
            per_class[c].append(q)
    return per_class


def promote_and_reclassify(
    blocks: PooledBlocks,
    support_rows: Sequence[Sequence[int]],
    rule: ConfidenceRule,
) -> SelfTrainResult:
    """Iterate confident selection and prototype promotion.

    blocks is the target query set's cache (see score_set) and
    support_rows the stack rows of each class's support images.  Classes
    with at least one confident query swap their prototypes for the
    stack rows of those queries; classes with none keep what they have.
    Predictions always reflect the final prototypes.  Every round pools
    only the images promoted for the first time.
    """
    prototypes = [np.asarray(rows, dtype=np.intp) for rows in support_rows]
    if any(len(rows) == 0 for rows in prototypes):
        raise ValueError("every class needs at least one prototype")
    n_classes = len(prototypes)
    table = score_set(blocks, prototypes)
    previous: list[list[int]] = [[] for _ in range(n_classes)]
    confident = previous
    rounds_used = 0
    for round_no in range(1, rule.max_rounds + 1):
        confident = _confident_from_table(table, rule, n_classes)
        if confident == previous:
            break
        for c, ids in enumerate(confident):
            if ids:
                prototypes[c] = blocks.query_rows[ids]
        table = score_set(blocks, prototypes)
        rounds_used = round_no
        previous = confident
    return SelfTrainResult(prototypes, rounds_used, confident, table)


def matching_hinge(pi_pos: float, pi_neg: float, margin: float) -> float:
    """Single-query hinge term on the top-2 softmax probability gap."""
    return max(pi_neg - pi_pos + margin, 0.0)


def class_matching_loss(table: ScoreTable, margin: float) -> float:
    """Hinge on the softmax probability gap between a query's top-2 classes.

    table scores the target queries against the final prototypes; each
    query contributes max(pi_neg - pi_pos + margin, 0) to the sum.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    pos, neg = table.top2()
    total = 0.0
    for q, scores in enumerate(table.scores):
        pi = softmax(scores)
        total += matching_hinge(pi[pos[q]], pi[neg[q]], margin)
    return total
