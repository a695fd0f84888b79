"""Cross-domain self-training over target queries.

High-confidence target queries are promoted to class prototypes that
replace the source-side support prototypes of their class, then the
remaining target queries are reclassified against the updated set.  The
round loop stops at a fixed point (the confident selection repeats) or
after the configured number of rounds.  Ground-truth target labels are
never visible here: the module only ever sees feature maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numkit import softmax
from .patterns import PooledBlocks, ScoreTable, score_set
from .semantic import SemanticFeatureMap

CONFIDENCE_MEASURES = ("score_ratio", "score_margin", "raw_sum")
REPLACE_MODES = ("replace", "union")


@dataclass(frozen=True)
class ConfidenceRule:
    """How a target query qualifies as confident.

    score_ratio passes when exp(s_pos - s_neg) reaches the threshold,
    score_margin compares the difference itself, raw_sum compares the
    unnormalized pattern sum for the top class.
    """

    measure: str = "score_ratio"
    threshold: float = 1.7
    max_rounds: int = 3

    def __post_init__(self):
        if self.measure not in CONFIDENCE_MEASURES:
            raise ValueError(f"measure must be one of {CONFIDENCE_MEASURES}")
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")

    def passes(self, s_pos: float, s_neg: float, raw_pos: float) -> bool:
        if self.measure == "score_ratio":
            return math.exp(s_pos - s_neg) >= self.threshold
        if self.measure == "score_margin":
            return s_pos - s_neg >= self.threshold
        return raw_pos >= self.threshold


@dataclass
class Prototype:
    """One class prototype with its provenance."""

    feature_map: SemanticFeatureMap
    origin: str = "support"        # "support" | "target"
    promoted_round: int | None = None


@dataclass
class PrototypeSet:
    """Per-class prototype lists the classifier matches against."""

    per_class: list[list[Prototype]]

    def __post_init__(self):
        if any(len(group) == 0 for group in self.per_class):
            raise ValueError("every class needs at least one prototype")

    @classmethod
    def from_support(cls, support: Sequence[Sequence[SemanticFeatureMap]]) -> "PrototypeSet":
        return cls([[Prototype(m) for m in group] for group in support])

    def feature_maps(self) -> list[list[SemanticFeatureMap]]:
        return [[p.feature_map for p in group] for group in self.per_class]


@dataclass
class SelfTrainResult:
    prototypes: PrototypeSet
    rounds_used: int
    confident: list[list[int]]   # final confident query ids per class
    table: ScoreTable            # queries scored against the final prototypes

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
    raw_pos = table.raw_sums()[rows, pos]
    per_class: list[list[int]] = [[] for _ in range(n_classes)]
    for q, c in enumerate(pos.tolist()):
        if rule.passes(s_pos[q], s_neg[q], raw_pos[q]):
            per_class[c].append(q)
    return per_class


def promote_and_reclassify(
    queries: Sequence[SemanticFeatureMap],
    initial: PrototypeSet,
    rule: ConfidenceRule,
    pooling: str = "support",
    normalize: bool = True,
    replace_mode: str = "replace",
    blocks: PooledBlocks | None = None,
) -> SelfTrainResult:
    """Iterate confident selection and prototype promotion.

    Classes with at least one confident query swap their prototypes for
    those queries (or add them, in union mode); classes with none keep
    what they have.  Predictions always reflect the final prototype set.
    blocks, when given, is the query set's cache (see score_set); every
    round then pools only the images promoted for the first time.
    """
    if replace_mode not in REPLACE_MODES:
        raise ValueError(f"replace_mode must be one of {REPLACE_MODES}")
    prototypes = PrototypeSet([list(group) for group in initial.per_class])
    n_classes = len(prototypes.per_class)
    if blocks is None:
        blocks = PooledBlocks(queries, pooling)
    table = score_set(queries, prototypes.feature_maps(), pooling, normalize, blocks)
    previous: list[list[int]] = [[] for _ in range(n_classes)]
    confident = previous
    rounds_used = 0
    for round_no in range(1, rule.max_rounds + 1):
        confident = _confident_from_table(table, rule, n_classes)
        if confident == previous:
            break
        for c, ids in enumerate(confident):
            if not ids:
                continue
            promoted = [
                Prototype(queries[q], origin="target", promoted_round=round_no)
                for q in ids
            ]
            if replace_mode == "union":
                base = [p for p in prototypes.per_class[c] if p.origin == "support"]
                prototypes.per_class[c] = base + promoted
            else:
                prototypes.per_class[c] = promoted
        table = score_set(queries, prototypes.feature_maps(), pooling, normalize, blocks)
        rounds_used = round_no
        previous = confident
    return SelfTrainResult(prototypes, rounds_used, confident, table)


def matching_hinge(pi_pos: float, pi_neg: float, margin: float) -> float:
    """Single-query hinge term on the top-2 softmax probability gap."""
    return max(pi_neg - pi_pos + margin, 0.0)


def class_matching_loss(
    queries: Sequence[SemanticFeatureMap],
    prototypes: PrototypeSet,
    margin: float = 1.5,
    pooling: str = "support",
    normalize: bool = True,
    reduce: str = "sum",
    table: ScoreTable | None = None,
) -> float:
    """Hinge on the softmax probability gap between a query's top-2 classes.

    Each query contributes max(pi_neg - pi_pos + margin, 0); the default
    sums over queries, reduce="mean" averages instead.  table, when
    given, must be score_set of the queries against the prototypes with
    the same pooling and normalization; it is used instead of scoring
    them again.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if reduce not in ("sum", "mean"):
        raise ValueError("reduce must be 'sum' or 'mean'")
    if table is None:
        table = score_set(queries, prototypes.feature_maps(), pooling, normalize)
    pos, neg = table.top2()
    total = 0.0
    for q, scores in enumerate(table.scores):
        pi = softmax(scores)
        total += matching_hinge(pi[pos[q]], pi[neg[q]], margin)
    return total / len(queries) if reduce == "mean" else total
