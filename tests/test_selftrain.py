"""Tests for confidence selection, prototype promotion, and the hinge loss."""

import math

import numpy as np
import pytest

from fewshift.engine import PipelineConfig, config_for_toggles, embed_episode
from fewshift.patterns import PooledBlocks, score_set
from fewshift.selftrain import (
    ConfidenceRule,
    class_matching_loss,
    matching_hinge,
    promote_and_reclassify,
)
from fewshift.synthgen import SynthConfig, generate_episode

from oracles import SemanticFeatureMap, select_confident, stack_maps, target_owned_classes


def one_hot_map(channel, channels, positions=4, jiggle=0.0, rng=None):
    rows = np.zeros((positions, channels))
    rows[:, channel] = 1.0
    if jiggle:
        rows += jiggle * rng.normal(size=rows.shape)
    return SemanticFeatureMap(rows, 2, positions // 2)


class TestConfidenceRule:
    def test_equal_scores_not_confident(self):
        rule = ConfidenceRule()
        assert not rule.passes(0.4, 0.4)

    def test_log2_margin_is_confident(self):
        rule = ConfidenceRule()  # ratio threshold 1.7
        assert rule.passes(0.5 + math.log(2.0), 0.5)
        assert math.exp(math.log(2.0)) >= 1.7

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceRule(threshold=0.0)
        with pytest.raises(ValueError):
            ConfidenceRule(max_rounds=0)


def split_classes(channels=6):
    """Three well-separated classes on orthogonal channels."""
    return [[one_hot_map(c, channels)] for c in range(3)]


def scored(queries, classes=None):
    """(blocks, per-class rows) of query maps against classes of maps,
    split_classes by default; the queries take the first stack rows."""
    stack, query_rows, class_rows = stack_maps(queries, classes or split_classes())
    return PooledBlocks(stack, query_rows), class_rows


def target_blocks(episode, cfg):
    """(blocks, support rows) of an episode's target queries."""
    emb = embed_episode(episode, cfg)
    return PooledBlocks(emb.stack, emb.qt_rows), emb.support_rows


class TestSelectConfident:
    def test_clear_queries_selected_once(self):
        queries = [one_hot_map(0, 6), one_hot_map(1, 6), one_hot_map(2, 6)]
        picked = select_confident(*scored(queries), ConfidenceRule())
        assert picked == [[0], [1], [2]]

    def test_ambiguous_query_not_selected(self):
        rows = np.zeros((4, 6))
        rows[:, 0] = 1.0
        rows[:, 1] = 1.0  # equally similar to classes 0 and 1
        queries = [SemanticFeatureMap(rows, 2, 2)]
        picked = select_confident(*scored(queries), ConfidenceRule())
        assert picked == [[], [], []]


class TestPromoteAndReclassify:
    def test_nothing_passes_keeps_round_zero(self):
        rng = np.random.default_rng(0)
        queries = [one_hot_map(c, 6, jiggle=0.4, rng=rng) for c in (0, 1, 2)]
        blocks, support = scored(queries)
        # scores lie in [-1, 1], so the ratio never exceeds e^2 < 10
        strict = ConfidenceRule(threshold=10.0)
        result = promote_and_reclassify(blocks, support, strict)
        base = score_set(blocks, support)
        assert np.array_equal(result.predictions, base.predictions)
        assert result.rounds_used == 0
        assert result.confident == [[], [], []]
        assert target_owned_classes(result.prototypes, blocks.query_rows) == set()

    def test_early_stop_matches_single_round(self):
        rng = np.random.default_rng(1)
        queries = [one_hot_map(c, 6, jiggle=0.02, rng=rng) for c in (0, 1, 2)]
        one = promote_and_reclassify(*scored(queries), ConfidenceRule(max_rounds=1))
        three = promote_and_reclassify(*scored(queries), ConfidenceRule(max_rounds=3))
        assert np.array_equal(one.predictions, three.predictions)
        assert one.confident == three.confident

    def test_promotion_replaces_prototypes(self):
        rng = np.random.default_rng(2)
        queries = [one_hot_map(0, 6, jiggle=0.01, rng=rng)]
        blocks, support = scored(queries)
        before = [rows.copy() for rows in support]
        result = promote_and_reclassify(blocks, support, ConfidenceRule())
        assert result.prototypes[0].tolist() == blocks.query_rows.tolist()
        for kept, rows in zip(result.prototypes[1:], support[1:]):
            assert np.array_equal(kept, rows)
        # the input rows are left as they were
        assert all(np.array_equal(a, b) for a, b in zip(support, before))
        assert target_owned_classes(result.prototypes, blocks.query_rows) == {0}

    def test_empty_class_rejected(self):
        blocks, _ = scored([one_hot_map(0, 6)])
        with pytest.raises(ValueError):
            promote_and_reclassify(blocks, [[1], []], ConfidenceRule())

    def test_target_ownership_monotone_across_round_budgets(self):
        cfg = SynthConfig(seed=17, shift_strength=0.4, pixel_noise=0.15,
                          distractor_rate=0.2, n_query=8, height=8, width=8,
                          channels=48)
        ep, _ = generate_episode(cfg)
        pc = config_for_toggles(PipelineConfig(), {"tse", "cs"})
        blocks, support = target_blocks(ep, pc)
        owned = []
        for rounds in (1, 2, 3):
            res = promote_and_reclassify(blocks, support, ConfidenceRule(max_rounds=rounds))
            owned.append(target_owned_classes(res.prototypes, blocks.query_rows))
        assert owned[0] <= owned[1] <= owned[2]

    def test_deterministic(self):
        cfg = SynthConfig(seed=23, shift_strength=0.5, pixel_noise=0.15,
                          distractor_rate=0.2, n_query=6, height=8, width=8,
                          channels=48)
        ep, _ = generate_episode(cfg)
        pc = config_for_toggles(PipelineConfig(), {"tse", "cs"})
        a = promote_and_reclassify(*target_blocks(ep, pc), ConfidenceRule())
        b = promote_and_reclassify(*target_blocks(ep, pc), ConfidenceRule())
        assert np.array_equal(a.predictions, b.predictions)
        assert a.confident == b.confident

    @pytest.mark.slow
    def test_selection_precision_at_moderate_shift(self):
        # confident selections vs generator truth, 50-episode average
        total = correct = 0
        for i in range(50):
            cfg = SynthConfig(seed=611 ^ i, shift_strength=0.3, pixel_noise=0.15,
                              distractor_rate=0.2, n_query=6, height=8, width=8,
                              channels=48)
            ep, _ = generate_episode(cfg)
            pc = config_for_toggles(PipelineConfig(), {"tse", "cs"})
            picked = select_confident(*target_blocks(ep, pc), ConfidenceRule())
            labels = ep.scoring_labels()
            for c, ids in enumerate(picked):
                for q in ids:
                    total += 1
                    correct += int(labels[q] == c)
        assert total > 0
        assert correct / total >= 0.9


class TestClassMatchingLoss:
    def test_hinge_closed_forms(self):
        assert matching_hinge(1.0, 0.0, 1.5) == 0.5
        assert matching_hinge(0.2, 0.2, 1.5) == 1.5
        assert matching_hinge(0.9, 0.1, 0.0) == 0.0

    def test_hinge_monotone_in_pos(self):
        lo = matching_hinge(0.8, 0.2, 1.5)
        hi = matching_hinge(0.6, 0.2, 1.5)
        assert lo <= hi

    def test_per_term_bounds(self):
        margin = 1.5
        rng = np.random.default_rng(4)
        for _ in range(20):
            queries = [one_hot_map(int(rng.integers(3)), 6, jiggle=0.3, rng=rng)]
            term = class_matching_loss(score_set(*scored(queries)), margin)
            assert max(0.0, margin - 1.0) <= term <= margin

    @pytest.mark.parametrize("self_training", [True, False])
    def test_precomputed_table_matches_recomputed(self, self_training):
        rng = np.random.default_rng(6)
        queries = [one_hot_map(c, 6, jiggle=0.05, rng=rng) for c in (0, 1, 2, 0, 1)]
        blocks, protos = scored(queries)
        if self_training:
            result = promote_and_reclassify(blocks, protos, ConfidenceRule())
            assert result.rounds_used >= 1
            protos, table = result.prototypes, result.table
        else:
            table = score_set(blocks, protos)
        recomputed = score_set(PooledBlocks(blocks.stack, blocks.query_rows), protos)
        assert class_matching_loss(table, 1.5) == class_matching_loss(recomputed, 1.5)

    def test_negative_margin_rejected(self):
        table = score_set(*scored([one_hot_map(0, 6)]))
        with pytest.raises(ValueError):
            class_matching_loss(table, -0.5)

