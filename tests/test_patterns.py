"""Tests for similarity tensors, pattern vectors, scores, and the loss.

The similarity tensor and pattern tests pin the reference path in
oracles.py; score_set, the path the pipeline runs, must agree with it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewshift.engine import PipelineConfig, embed_episode
from fewshift.patterns import PooledBlocks, cross_entropy, score_set, take_rows
from fewshift.selftrain import promote_and_reclassify
from fewshift.synthgen import SynthConfig, generate_episode

from oracles import (
    SemanticFeatureMap,
    class_scores,
    classification_loss,
    reference_scores,
    score_maps,
    similarity_matrix,
    similarity_pattern,
)


def random_map(rng, positions=9, channels=8):
    grid_h = int(math.isqrt(positions))
    grid_w = positions // grid_h
    return SemanticFeatureMap(
        rng.uniform(-1.0, 1.0, size=(grid_h * grid_w, channels)), grid_h, grid_w
    )


def raw_map(image):
    h, w, d = image.shape
    return SemanticFeatureMap(np.asarray(image, dtype=np.float64).reshape(h * w, d), h, w)


def naive_similarity(query, support_class):
    out = np.empty((len(support_class), query.positions, support_class[0].positions))
    for i, smap in enumerate(support_class):
        for a in range(query.positions):
            for b in range(smap.positions):
                qa = query.features[a]
                sb = smap.features[b]
                denom = np.linalg.norm(qa) * np.linalg.norm(sb)
                if denom == 0.0:
                    out[i, a, b] = 0.0
                else:
                    out[i, a, b] = max(-1.0, min(1.0, float(np.dot(qa, sb)) / denom))
    return out


class TestSimilarityMatrix:
    def test_self_similarity_diagonal(self):
        rng = np.random.default_rng(0)
        m = random_map(rng)
        out = similarity_matrix(m, [m])
        assert np.all(np.diag(out[0]) >= 1.0 - 1e-12)

    def test_orthogonal_channels_zero(self):
        a = SemanticFeatureMap(np.array([[1.0, 0.0], [1.0, 0.0]]), 1, 2)
        b = SemanticFeatureMap(np.array([[0.0, 1.0], [0.0, 1.0]]), 1, 2)
        assert np.array_equal(similarity_matrix(a, [b]), np.zeros((1, 2, 2)))

    def test_matches_naive_loop_exactly(self):
        rng = np.random.default_rng(1)
        query = random_map(rng)
        supports = [random_map(rng), random_map(rng)]
        assert np.array_equal(
            similarity_matrix(query, supports), naive_similarity(query, supports)
        )

    def test_channel_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            similarity_matrix(random_map(rng, channels=4), [random_map(rng, channels=6)])


class TestSimilarityPattern:
    def test_single_entry(self):
        pat = similarity_pattern(np.array([[[0.7]]]))
        assert np.array_equal(pat.vector, [0.7])
        assert pat.score == 0.7

    def test_dominating_row(self):
        m = np.array([[[0.1, 0.2], [0.9, 0.8], [0.3, 0.1]]])
        pat = similarity_pattern(m)
        assert np.array_equal(pat.vector, [0.9, 0.8])

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-1, 1, size=(2, 9, 9))
        pat = similarity_pattern(m)
        want = np.empty((2, 9))
        for i in range(2):
            for b in range(9):
                want[i, b] = max(m[i, a, b] for a in range(9))
        assert np.array_equal(pat.vector, want.reshape(-1))
        assert pat.vector.shape == (2 * 9,)  # one block per support image

    def test_monotone_in_entries(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-1, 1, size=(1, 4, 4))
        before = similarity_pattern(m).vector
        bumped = m.copy()
        bumped[0, 2, 1] += 0.5
        after = similarity_pattern(bumped).vector
        assert np.all(after >= before)

    def test_nonfinite_rejected(self):
        bad = np.full((1, 2, 2), np.nan)
        with pytest.raises(ValueError):
            similarity_pattern(bad)


def one_hot_map(channel, channels, positions=4):
    rows = np.zeros((positions, channels))
    rows[:, channel] = 1.0
    return SemanticFeatureMap(rows, 2, positions // 2)


class TestClassScores:
    def test_orthogonal_classes(self):
        query = one_hot_map(0, 3)
        classes = [[one_hot_map(0, 3)], [one_hot_map(1, 3)], [one_hot_map(2, 3)]]
        result = class_scores(query, classes)
        assert result.pos == 0
        assert result.scores[0] == pytest.approx(1.0, abs=1e-12)
        assert result.scores[1] == pytest.approx(0.0, abs=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        query = one_hot_map(0, 2)
        same = [one_hot_map(0, 2)]
        result = class_scores(query, [same, list(same), [one_hot_map(1, 2)]])
        assert result.pos == 0
        assert result.neg == 1

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            class_scores(one_hot_map(0, 2), [[one_hot_map(0, 2)]])

    def test_zero_shift_synthetic_all_correct(self):
        cfg = SynthConfig(seed=41, shift_strength=0.0, pixel_noise=0.0,
                          distractor_rate=0.0, part_noise=0.0, n_query=3,
                          height=6, width=6, channels=32)
        ep, _ = generate_episode(cfg)
        classes = [[raw_map(m) for m in grp] for grp in ep.support]
        labels = ep.scoring_labels()
        for q, img in enumerate(ep.query_target):
            result = class_scores(raw_map(img), classes)
            assert result.pos == labels[q]

    def test_rescaling_keeps_ranking(self):
        rng = np.random.default_rng(6)
        query = random_map(rng)
        classes = [[random_map(rng)] for _ in range(4)]
        base = class_scores(query, classes)
        scaled = SemanticFeatureMap(query.features * 37.5, query.grid_h, query.grid_w)
        again = class_scores(scaled, classes)
        assert (base.pos, base.neg) == (again.pos, again.neg)
        assert np.allclose(base.scores, again.scores, atol=1e-12)


class TestScoreSet:
    def test_agrees_with_reference_ops(self):
        rng = np.random.default_rng(7)
        queries = [random_map(rng) for _ in range(3)]
        classes = [[random_map(rng) for _ in range(2)] for _ in range(3)]
        table = score_maps(queries, classes)
        for q, query in enumerate(queries):
            for c, cls in enumerate(classes):
                pat = similarity_pattern(similarity_matrix(query, cls))
                assert np.allclose(table.patterns[c][q], pat.vector, atol=1e-12)
                assert table.scores[q, c] == pytest.approx(pat.score, abs=1e-12)


def assert_tables_close(got, want):
    assert got.scores.shape == want.scores.shape
    assert np.allclose(got.scores, want.scores, rtol=0.0, atol=1e-12)
    assert len(got.patterns) == len(want.patterns)
    for g, w in zip(got.patterns, want.patterns):
        assert g.shape == w.shape
        assert np.allclose(g, w, rtol=0.0, atol=1e-12)


@st.composite
def scoring_cases(draw):
    """A stack, its query rows and classes with uneven shot counts; rows
    sit in any order, and one image is shared by two classes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = draw(st.integers(2, 6))
    grid = draw(st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 3)]))
    n_queries = draw(st.integers(1, 5))
    shots = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    n = n_queries + sum(shots)
    stack = rng.uniform(-1, 1, size=(n, grid[0] * grid[1], channels))
    order = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    classes, at = [], n_queries
    for shot in shots:
        classes.append(order[at:at + shot])
        at += shot
    shared = classes[0][-1]
    classes[-1] = np.insert(classes[-1], draw(st.integers(0, len(classes[-1]))), shared)
    return stack, order[:n_queries], classes


@settings(max_examples=60, deadline=None)
@given(case=scoring_cases())
def test_array_path_matches_reference(case):
    stack, query_rows, classes = case
    assert_tables_close(
        score_set(PooledBlocks(stack, query_rows), classes),
        reference_scores(stack, query_rows, classes),
    )


@settings(max_examples=40, deadline=None)
@given(case=scoring_cases(), data=st.data())
def test_shared_cache_across_rounds_matches_reference(case, data):
    # a second round keeps some prototypes, drops others and promotes
    # queries, as self-training does; the cache serves both rounds
    stack, query_rows, classes = case
    blocks = PooledBlocks(stack, query_rows)
    first = score_set(blocks, classes)
    assert_tables_close(first, reference_scores(stack, query_rows, classes))
    second_round = []
    for group in classes:
        kept = data.draw(st.lists(st.sampled_from(group.tolist()), max_size=2, unique=True))
        promoted = data.draw(
            st.lists(st.sampled_from(query_rows.tolist()), max_size=2, unique=True)
        )
        second_round.append(kept + promoted or [int(group[0])])
    second = score_set(blocks, second_round)
    assert_tables_close(second, reference_scores(stack, query_rows, second_round))


@settings(max_examples=40, deadline=None)
@given(case=scoring_cases(), data=st.data())
def test_scores_invariant_to_query_order(case, data):
    stack, query_rows, classes = case
    order = data.draw(st.permutations(range(len(query_rows))))
    base = score_set(PooledBlocks(stack, query_rows), classes)
    permuted = score_set(PooledBlocks(stack, query_rows[order]), classes)
    assert np.allclose(permuted.scores, base.scores[order], rtol=0.0, atol=1e-12)
    for got, want in zip(permuted.patterns, base.patterns):
        assert np.allclose(got, want[order], rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(case=scoring_cases(), data=st.data())
def test_scores_equivariant_to_class_order(case, data):
    stack, query_rows, classes = case
    order = data.draw(st.permutations(range(len(classes))))
    base = score_set(PooledBlocks(stack, query_rows), classes)
    permuted = score_set(PooledBlocks(stack, query_rows), [classes[c] for c in order])
    assert np.allclose(permuted.scores, base.scores[:, order], rtol=0.0, atol=1e-12)
    for c, got in zip(order, permuted.patterns):
        assert np.allclose(got, base.patterns[c], rtol=0.0, atol=1e-12)


class TestPooledBlocks:
    def test_image_pooled_once_across_classes_and_calls(self, monkeypatch):
        stack = np.random.default_rng(13).uniform(-1, 1, size=(6, 9, 8))
        queries, shared = [0, 1, 2], 3
        classes = [[shared, 4], [5, shared]]
        pooled = []
        real = PooledBlocks._pool

        def recording(self, rows):
            pooled.extend(rows)
            return real(self, rows)

        monkeypatch.setattr(PooledBlocks, "_pool", recording)
        blocks = PooledBlocks(stack, queries)
        score_set(blocks, classes)
        score_set(blocks, [[shared, queries[0]], classes[1]])
        assert sorted(pooled) == [0, 3, 4, 5]

    def test_take_rows_views_a_consecutive_run(self):
        stack = np.arange(48.0).reshape(6, 2, 4)
        run = take_rows(stack, np.arange(2, 5))
        assert np.shares_memory(run, stack)
        assert np.array_equal(run, stack[2:5])
        for rows in ([4, 2, 3], [1, 3], [3, 4, 4], []):
            assert np.array_equal(take_rows(stack, rows), stack[np.asarray(rows, dtype=np.intp)])

    def test_top2_needs_two_classes(self):
        stack = np.random.default_rng(15).uniform(-1, 1, size=(2, 9, 8))
        table = score_set(PooledBlocks(stack, [0]), [[1]])
        with pytest.raises(ValueError):
            table.top2()

    def test_top2_ties_go_to_lowest_index(self):
        stack = np.random.default_rng(16).uniform(-1, 1, size=(2, 9, 8))
        query, other = 0, 1
        table = score_set(PooledBlocks(stack, [query]), [[other], [query], [query], [other]])
        pos, neg = table.top2()
        assert (pos[0], neg[0]) == (1, 2)


class PerGroup(PooledBlocks):
    """The cache pooling each class group's misses on their own, as
    before a table's misses were pooled together."""

    def pool(self, classes):
        for group in classes:
            super().pool([group])


def record_pooling(monkeypatch):
    """Record each pool call as (misses, _pool calls, products).  A
    _pool call is recorded as the elements of one query's block,
    S * S * m; a product as (its rows, its buffer's elements, that
    block)."""
    calls = []
    real_pool, real_inner, real_matmul = PooledBlocks.pool, PooledBlocks._pool, np.matmul

    def pool(self, classes):
        misses = {int(r) for group in classes for r in group} - set(self._blocks)
        calls.append((len(misses), [], []))
        return real_pool(self, classes)

    def inner(self, rows):
        calls[-1][1].append(self.stack.shape[1] ** 2 * len(rows))
        return real_inner(self, rows)

    def matmul(a, b, out):
        calls[-1][2].append((out.shape[0], out.base.size, calls[-1][1][-1]))
        return real_matmul(a, b, out=out)

    monkeypatch.setattr(PooledBlocks, "pool", pool)
    monkeypatch.setattr(PooledBlocks, "_pool", inner)
    monkeypatch.setattr(np, "matmul", matmul)
    return calls


@pytest.mark.parametrize("feature_mode", ["semantic", "raw_local"])
@pytest.mark.parametrize("k_shot", [1, 3])
def test_batched_pooling_equals_per_group_pooling(monkeypatch, feature_mode, k_shot):
    # the acceptance stream's first episode, both query sets, self-training
    # rounds included: pooling a table's misses in one pass over query
    # chunks agrees with pooling each group on its own within the
    # reassociation bound of a dot product of unit rows (channels * eps)
    # and ranks identically; each table with misses is pooled by one
    # _pool call, and no similarity buffer holds more elements than the
    # stack or one query's block
    ep, _ = generate_episode(SynthConfig(
        seed=20230, k_shot=k_shot, pixel_noise=0.15, shift_strength=0.6, distractor_rate=0.2,
    ))
    stack = embed_episode(ep, PipelineConfig(feature_mode=feature_mode)).stack

    def tables(cache):
        out = []
        for rows in (ep.qs_rows, ep.qt_rows):
            blocks = cache(stack, rows)
            out.append(score_set(blocks, ep.support_rows))
            result = promote_and_reclassify(blocks, ep.support_rows)
            out.append(result.table)
        return out, result.rounds_used

    want, _ = tables(PerGroup)
    calls = record_pooling(monkeypatch)
    got, rounds_used = tables(PooledBlocks)
    tol = stack.shape[2] * np.finfo(np.float64).eps
    for a, b in zip(got, want, strict=True):
        assert np.allclose(a.scores, b.scores, rtol=0.0, atol=tol)
        for x, y in zip(a.patterns, b.patterns, strict=True):
            assert np.allclose(x, y, rtol=0.0, atol=tol)
        for x, y in zip(a.top2(), b.top2(), strict=True):
            assert np.array_equal(x, y)
    assert all(len(pooled) == (misses > 0) for misses, pooled, _ in calls)
    products = [p for _, _, ps in calls for p in ps]
    assert products and all(size <= max(stack.size, block) for _, size, block in products)
    if feature_mode == "semantic":
        assert rounds_used >= 1  # target queries were promoted and pooled


@pytest.mark.parametrize("positions, channels, n_queries, n_classes, chunk_rows", [
    # chunks of 5 and then 2 queries; of 2, 2, 2 and 1 for the promoted table
    (4, 6, 7, 3, [[20, 8], [8, 8, 8, 4]]),
    # one query's block exceeds the stack, so a chunk is one query
    (9, 2, 2, 4, [[9, 9], [9, 9]]),
])
def test_query_chunks_match_reference(monkeypatch, positions, channels, n_queries,
                                      n_classes, chunk_rows):
    # the second table keeps one prototype and promotes every query, so
    # its misses are the query rows themselves
    stack = np.random.default_rng(17).uniform(
        -1, 1, size=(n_queries + n_classes, positions, channels))
    query_rows = np.arange(n_queries)
    classes = [[n_queries + c] for c in range(n_classes)]
    promoted = [[int(q) for q in query_rows[c::n_classes]] or [n_queries + c]
                for c in range(n_classes)]
    promoted[0] = classes[0] + promoted[0]
    calls = record_pooling(monkeypatch)
    blocks = PooledBlocks(stack, query_rows)
    for table in (classes, promoted):
        assert_tables_close(score_set(blocks, table), reference_scores(stack, query_rows, table))
    assert [[rows for rows, _, _ in products] for _, _, products in calls] == chunk_rows
    assert all(len(pooled) == 1 for _, pooled, _ in calls)


class TestClassificationLoss:
    def test_uniform_five_way_is_log5(self):
        query = one_hot_map(0, 8)
        same_class = [one_hot_map(7, 8)]  # orthogonal to the query
        classes = [list(same_class) for _ in range(5)]
        loss = classification_loss([query], [2], classes)
        assert loss == pytest.approx(math.log(5.0), abs=1e-9)

    def test_matches_logsumexp_oracle(self):
        rng = np.random.default_rng(9)
        queries = [random_map(rng) for _ in range(4)]
        classes = [[random_map(rng)] for _ in range(3)]
        labels = [0, 2, 1, 0]
        loss = classification_loss(queries, labels, classes)
        table = score_maps(queries, classes)
        want = 0.0
        for q, lab in enumerate(labels):
            s = table.scores[q]
            want += math.log(np.exp(s).sum()) - s[lab]
        want /= len(labels)
        assert loss == pytest.approx(want, abs=1e-12)

    def test_label_out_of_range(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            classification_loss([random_map(rng)], [5],
                                [[random_map(rng)], [random_map(rng)]])

    def test_identical_query_and_support(self):
        rng = np.random.default_rng(11)
        protos = [random_map(rng) for _ in range(3)]
        classes = [[m] for m in protos]
        loss = classification_loss(protos, [0, 1, 2], classes)
        assert loss <= math.log(3.0)
        table = score_maps(protos, classes)
        assert np.array_equal(table.predictions, [0, 1, 2])


class TestCrossEntropy:
    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        scores = rng.normal(size=(6, 5))
        labels = [0, 4, 2, 1, 3, 2]
        base = cross_entropy(scores, labels)
        assert cross_entropy(scores + 11.75, labels) == pytest.approx(base, abs=1e-12)

    def test_uniform_scores(self):
        assert cross_entropy(np.zeros((2, 7)), [3, 6]) == pytest.approx(
            math.log(7.0), abs=1e-12
        )

    @pytest.mark.parametrize("labels", [[], [0, 7], [-1, 0]])
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 7)), labels)
