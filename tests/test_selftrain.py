"""Tests for confidence selection, prototype promotion, and the hinge loss."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fewshift.engine import PipelineConfig, config_for_toggles, embed_episode
from fewshift.patterns import PooledBlocks, ScoreTable, cross_entropy, score_set
from fewshift.selftrain import (
    _confident_from_table,
    class_matching_loss,
    promote_and_reclassify,
)
from fewshift.synthgen import SynthConfig, generate_episode

from oracles import (
    SemanticFeatureMap,
    clm_by_query,
    confident_by_query,
    cross_entropy_by_query,
    select_confident,
    stack_maps,
    target_owned_classes,
)


def one_hot_map(channel, channels, positions=4, jiggle=0.0, rng=None):
    rows = np.zeros((positions, channels))
    rows[:, channel] = 1.0
    if jiggle:
        rows += jiggle * rng.normal(size=rows.shape)
    return SemanticFeatureMap(rows, 2, positions // 2)


def table(*rows):
    """A hand-built score table, one row of class scores per query."""
    return ScoreTable(np.array(rows, dtype=np.float64), [])


class TestConfidenceRule:
    def test_equal_scores_not_confident(self):
        assert _confident_from_table(table([0.4, 0.4]), threshold=1.7) == [[], []]

    def test_log2_margin_is_confident(self):
        picked = _confident_from_table(table([0.5 + math.log(2.0), 0.5]), threshold=1.7)
        assert picked == [[0], []]
        assert math.exp(math.log(2.0)) >= 1.7

    def test_validation(self):
        blocks, support = scored([one_hot_map(0, 6)])
        with pytest.raises(ValueError):
            promote_and_reclassify(blocks, support, threshold=0.0)
        with pytest.raises(ValueError):
            promote_and_reclassify(blocks, support, max_rounds=-1)


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
    return PooledBlocks(emb.stack, episode.qt_rows), episode.support_rows


class TestSelectConfident:
    def test_clear_queries_selected_once(self):
        queries = [one_hot_map(0, 6), one_hot_map(1, 6), one_hot_map(2, 6)]
        picked = select_confident(*scored(queries))
        assert picked == [[0], [1], [2]]

    def test_ambiguous_query_not_selected(self):
        rows = np.zeros((4, 6))
        rows[:, 0] = 1.0
        rows[:, 1] = 1.0  # equally similar to classes 0 and 1
        queries = [SemanticFeatureMap(rows, 2, 2)]
        picked = select_confident(*scored(queries))
        assert picked == [[], [], []]


class TestPromoteAndReclassify:
    def test_nothing_passes_keeps_round_zero(self):
        rng = np.random.default_rng(0)
        queries = [one_hot_map(c, 6, jiggle=0.4, rng=rng) for c in (0, 1, 2)]
        blocks, support = scored(queries)
        # scores lie in [-1, 1], so the ratio never exceeds e^2 < 10
        result = promote_and_reclassify(blocks, support, threshold=10.0)
        base = score_set(blocks, support)
        assert np.array_equal(result.table.predictions, base.predictions)
        assert result.rounds_used == 0
        assert result.confident == [[], [], []]
        assert target_owned_classes(result.prototypes, blocks.query_rows) == set()

    def test_zero_rounds_is_the_round_zero_table(self):
        rng = np.random.default_rng(1)
        queries = [one_hot_map(c, 6, jiggle=0.02, rng=rng) for c in (0, 1, 2)]
        blocks, support = scored(queries)
        # these queries are confident, so any budget above zero promotes them
        assert promote_and_reclassify(blocks, support).rounds_used >= 1
        result = promote_and_reclassify(blocks, support, max_rounds=0)
        base = score_set(blocks, support)
        assert result.initial is result.table
        assert result.rounds_used == 0
        assert result.confident == [[]] * 3
        assert np.array_equal(result.table.predictions, base.predictions)
        assert np.array_equal(result.table.scores, base.scores)
        assert all(np.array_equal(a, b) for a, b in zip(result.table.patterns, base.patterns))
        assert [rows.tolist() for rows in result.prototypes] == [list(r) for r in support]

    def test_early_stop_matches_single_round(self):
        rng = np.random.default_rng(1)
        queries = [one_hot_map(c, 6, jiggle=0.02, rng=rng) for c in (0, 1, 2)]
        one = promote_and_reclassify(*scored(queries), max_rounds=1)
        three = promote_and_reclassify(*scored(queries), max_rounds=3)
        assert np.array_equal(one.table.predictions, three.table.predictions)
        assert one.confident == three.confident

    def test_promotion_replaces_prototypes(self):
        rng = np.random.default_rng(2)
        queries = [one_hot_map(0, 6, jiggle=0.01, rng=rng)]
        blocks, support = scored(queries)
        before = [rows.copy() for rows in support]
        result = promote_and_reclassify(blocks, support)
        assert result.prototypes[0].tolist() == blocks.query_rows.tolist()
        for kept, rows in zip(result.prototypes[1:], support[1:]):
            assert np.array_equal(kept, rows)
        # the input rows are left as they were
        assert all(np.array_equal(a, b) for a, b in zip(support, before))
        assert target_owned_classes(result.prototypes, blocks.query_rows) == {0}

    def test_empty_class_rejected(self):
        blocks, _ = scored([one_hot_map(0, 6)])
        with pytest.raises(ValueError):
            promote_and_reclassify(blocks, [[1], []])

    def test_target_ownership_monotone_across_round_budgets(self):
        cfg = SynthConfig(seed=17, shift_strength=0.4, pixel_noise=0.15,
                          distractor_rate=0.2, n_query=8, height=8, width=8,
                          channels=48)
        ep, _ = generate_episode(cfg)
        pc = config_for_toggles(PipelineConfig(), {"tse", "cs"})
        blocks, support = target_blocks(ep, pc)
        owned = []
        for rounds in (1, 2, 3):
            res = promote_and_reclassify(blocks, support, max_rounds=rounds)
            owned.append(target_owned_classes(res.prototypes, blocks.query_rows))
        assert owned[0] <= owned[1] <= owned[2]

    def test_deterministic(self):
        cfg = SynthConfig(seed=23, shift_strength=0.5, pixel_noise=0.15,
                          distractor_rate=0.2, n_query=6, height=8, width=8,
                          channels=48)
        ep, _ = generate_episode(cfg)
        pc = config_for_toggles(PipelineConfig(), {"tse", "cs"})
        a = promote_and_reclassify(*target_blocks(ep, pc))
        b = promote_and_reclassify(*target_blocks(ep, pc))
        assert np.array_equal(a.table.predictions, b.table.predictions)
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
            picked = select_confident(*target_blocks(ep, pc))
            labels = ep.scoring_labels()
            for c, ids in enumerate(picked):
                for q in ids:
                    total += 1
                    correct += int(labels[q] == c)
        assert total > 0
        assert correct / total >= 0.9


class TestClassMatchingLoss:
    def test_hinge_closed_forms(self):
        # softmax probabilities (1, 0): e^-1000 underflows to 0
        assert class_matching_loss(table([1000.0, 0.0]), margin=1.5) == 0.5
        # (0.5, 0.5)
        assert class_matching_loss(table([0.2, 0.2]), margin=1.5) == 1.5
        # (0.9, 0.1)
        assert class_matching_loss(table([math.log(9.0), 0.0]), margin=0.0) == 0.0

    def test_hinge_monotone_in_pos(self):
        lo = class_matching_loss(table([math.log(4.0), 0.0]), margin=1.5)  # (0.8, 0.2)
        hi = class_matching_loss(table([math.log(1.5), 0.0]), margin=1.5)  # (0.6, 0.4)
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
            result = promote_and_reclassify(blocks, protos)
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



@st.composite
def tied_tables(draw):
    """(Q, N) score tables in [-1, 1] with exact ties: some rows copy
    their maximum into a second class, and some tables sit on a 1/8 grid,
    where ties anywhere in a row are common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_queries, n_classes = draw(st.integers(1, 30)), draw(st.integers(2, 6))
    scores = rng.uniform(-1.0, 1.0, size=(n_queries, n_classes))
    if draw(st.booleans()):
        scores = np.round(scores * 8.0) / 8.0
    for q in np.flatnonzero(rng.random(n_queries) < draw(st.sampled_from([0.0, 0.3, 1.0]))):
        a, b = rng.choice(n_classes, size=2, replace=False)
        scores[q, a] = scores[q, b] = scores[q].max()
    return scores


@settings(max_examples=200, deadline=None)
@given(
    scores=tied_tables(),
    threshold=st.sampled_from([1.7, 0.5]),
    margin=st.sampled_from([1.5, 0.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_heads_match_per_query_references(scores, threshold, margin, seed):
    """Confident selection, the matching hinge and the cross-entropy are
    array code over the whole table; each must agree with a per-query
    loop.  At threshold 0.5 every query is confident, so a tied top goes
    to its lowest class index."""
    gaps = np.sort(scores, axis=1)[:, -1] - np.sort(scores, axis=1)[:, -2]
    assume(np.abs(gaps - math.log(threshold)).min() >= 1e-12)
    scored_table = ScoreTable(scores, [])
    assert _confident_from_table(scored_table, threshold) == confident_by_query(scores, threshold)
    assert math.isclose(class_matching_loss(scored_table, margin), clm_by_query(scores, margin),
                        rel_tol=1e-12, abs_tol=0.0)
    labels = np.random.default_rng(seed).integers(scores.shape[1], size=len(scores)).tolist()
    assert math.isclose(cross_entropy(scores, labels), cross_entropy_by_query(scores, labels),
                        rel_tol=1e-12, abs_tol=0.0)


def test_tied_top_goes_to_lowest_class():
    tied = table([0.3, 0.7, 0.7, 0.1], [0.7, 0.7, 0.7, 0.7])
    assert _confident_from_table(tied, threshold=0.5) == [[1], [0], [], []]
    assert _confident_from_table(tied, threshold=1.7) == [[], [], [], []]
