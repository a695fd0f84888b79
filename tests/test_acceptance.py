"""Acceptance criteria, one test per criterion, each printing a PASS line.

The ablation and self-training criteria share one 100-episode paired
suite built by a module-scoped fixture; every variant sees byte-identical
episodes.
"""

import math
import time
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from fewshift.alignment import kl_gaussian, sfa_loss
from fewshift.engine import (
    PipelineConfig,
    SyntheticTaskStream,
    config_for_toggles,
    embed_episode,
    evaluate,
    run_episode,
)
from fewshift.numkit import cosine_matrix, farthest_first_init, kmeans, softmax
from fewshift.patterns import PooledBlocks, ScoreTable, cross_entropy
from fewshift.rng import SplitMix64
from fewshift.selftrain import (
    class_matching_loss,
    promote_and_reclassify,
)
from fewshift.semantic import block_split_concat
from fewshift.synthgen import SynthConfig, generate_episode

from oracles import (
    SemanticFeatureMap,
    class_scores,
    similarity_matrix,
    similarity_pattern,
)

ACCEPT_SEED = 20230
SUITE_EPISODES = 100
ABLATION_BASE = SynthConfig(
    seed=ACCEPT_SEED, n_way=5, k_shot=1, shift_strength=0.6,
    pixel_noise=0.15, distractor_rate=0.2,
)


# ---------------------------------------------------------------- criterion 1

def gaussian_logpdf(points, mean, cov):
    inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    diff = points - mean
    quad = (diff @ inv * diff).sum(axis=1)
    d = cov.shape[0]
    return -0.5 * (quad + logdet + d * math.log(2 * math.pi))


def test_criterion_1_kl_matches_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    n_samples = 1_000_000
    checked = 0
    for pair in range(100):
        d = [1, 2, 3][pair % 3]
        f = rng.normal(size=(d, d))
        sigma_a = f @ f.T + (0.3 + rng.uniform()) * np.eye(d)
        g = rng.normal(size=(d, d))
        sigma_b = g @ g.T + (0.3 + rng.uniform()) * np.eye(d)
        mean_a = rng.normal(size=d)
        mean_b = rng.normal(size=d)
        value = kl_gaussian(mean_a, sigma_a, mean_b, sigma_b)
        assert value >= -1e-10
        assert abs(kl_gaussian(mean_a, sigma_a, mean_a, sigma_a)) <= 1e-10

        x = rng.multivariate_normal(mean_b, sigma_b, size=n_samples)
        samples = gaussian_logpdf(x, mean_b, sigma_b) - gaussian_logpdf(x, mean_a, sigma_a)
        se = samples.std(ddof=1) / math.sqrt(n_samples)
        assert abs(value - samples.mean()) <= 3.0 * se, (
            f"pair {pair}: closed form {value}, MC {samples.mean()} +- {se}"
        )
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"MC oracle too slow: {elapsed:.1f}s"
    print(f"PASS criterion 1: KL matches Monte-Carlo on {checked} pairs "
          f"within 3 SE ({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 2

def naive_similarity(query, support_class):
    out = np.empty((len(support_class), query.positions, support_class[0].positions))
    for i, smap in enumerate(support_class):
        for a in range(query.positions):
            for b in range(smap.positions):
                qa, sb = query.features[a], smap.features[b]
                denom = np.linalg.norm(qa) * np.linalg.norm(sb)
                if denom == 0.0:
                    out[i, a, b] = 0.0
                else:
                    out[i, a, b] = max(-1.0, min(1.0, float(np.dot(qa, sb)) / denom))
    return out


def test_criterion_2_pattern_oracles_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    checks = 0
    for episode in range(50):
        classes = [
            [SemanticFeatureMap(rng.uniform(-1, 1, size=(36, 16)), 6, 6)
             for _ in range(2)]
            for _ in range(3)
        ]
        queries = [SemanticFeatureMap(rng.uniform(-1, 1, size=(36, 16)), 6, 6)
                   for _ in range(2)]
        for query in queries:
            for cls in classes:
                got = similarity_matrix(query, cls)
                want = naive_similarity(query, cls)
                assert np.array_equal(got, want)
                pattern = similarity_pattern(got)
                naive = np.empty((2, 36))
                for i in range(2):
                    for b in range(36):
                        naive[i, b] = max(got[i, a, b] for a in range(36))
                assert np.array_equal(pattern.vector, naive.reshape(-1))
                checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"pattern oracle too slow: {elapsed:.1f}s"
    print(f"PASS criterion 2: similarity ops match naive loops exactly on "
          f"{checks} query/class pairs ({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 3

def brute_force_two_clusters(points):
    n = len(points)
    best = math.inf
    for size in range(1, n // 2 + 1):
        for left in combinations(range(n), size):
            right = [i for i in range(n) if i not in left]
            inertia = 0.0
            for side in (list(left), right):
                chunk = points[side]
                inertia += ((chunk - chunk.mean(axis=0)) ** 2).sum()
            best = min(best, inertia)
    return best


def test_criterion_3_kmeans_micro_optimality():
    # instances: two noisy 3-point clusters at a random orientation
    rng = np.random.default_rng(303)
    optimal = 0
    for instance in range(100):
        direction = rng.normal(size=2)
        center = 2.0 * direction / np.linalg.norm(direction)
        points = np.vstack([
            0.6 * rng.normal(size=(3, 2)) + center,
            0.6 * rng.normal(size=(3, 2)) - center,
        ])
        init = farthest_first_init(points, 2, SplitMix64(instance))
        result = kmeans(points, 2, init)
        best = brute_force_two_clusters(points)
        if result.inertia <= best + 1e-9:
            optimal += 1
    assert optimal >= 95, f"only {optimal}/100 instances reached the optimum"
    print(f"PASS criterion 3: k-means reached the enumerated optimum on "
          f"{optimal}/100 micro instances")


# ------------------------------------------------------- criteria 4 and 5

VARIANTS = {
    "full": {"tse", "catt", "cs"},
    "tse_catt": {"tse", "catt"},
    "tse_only": {"tse"},
    "raw": set(),
}


@pytest.fixture(scope="module")
def ablation_suite():
    base_cfg = PipelineConfig()
    start = time.perf_counter()
    acc = {name: [] for name in VARIANTS}
    hashes = {name: [] for name in VARIANTS}
    histories = {name: None for name in VARIANTS}
    promoted_total = 0
    promoted_correct = 0
    for i in range(SUITE_EPISODES):
        cfg = replace(ABLATION_BASE, seed=ABLATION_BASE.seed ^ i)
        episode, _ = generate_episode(cfg)
        for name, toggles in VARIANTS.items():
            variant_cfg = config_for_toggles(base_cfg, toggles)
            report, cents = run_episode(
                episode, variant_cfg, histories[name], str(i)
            )
            acc[name].append(report.accuracy)
            hashes[name].append(report.episode_hash)
            if variant_cfg.use_catt:
                histories[name] = cents
        # promotion audit under the full configuration
        full_cfg = config_for_toggles(base_cfg, VARIANTS["full"])
        emb = embed_episode(episode, full_cfg, None)
        result = promote_and_reclassify(
            PooledBlocks(emb.stack, emb.qt_rows), emb.support_rows,
        )
        labels = episode.scoring_labels()
        for c, ids in enumerate(result.confident):
            for q in ids:
                promoted_total += 1
                promoted_correct += int(labels[q] == c)
    elapsed = time.perf_counter() - start
    reference = hashes["full"]
    assert all(hashes[name] == reference for name in VARIANTS)
    return {
        "acc": {name: np.array(vals) for name, vals in acc.items()},
        "promoted_total": promoted_total,
        "promoted_correct": promoted_correct,
        "elapsed": elapsed,
    }


def test_criterion_4_ablation_ordering(ablation_suite):
    acc = ablation_suite["acc"]
    full = acc["full"].mean()
    tse_catt = acc["tse_catt"].mean()
    tse_only = acc["tse_only"].mean()
    raw = acc["raw"].mean()
    assert full > tse_only, f"full {full:.4f} vs tse-only {tse_only:.4f}"
    assert tse_only > raw, f"tse-only {tse_only:.4f} vs raw {raw:.4f}"
    assert full - raw >= 0.05, f"full-raw gap {100 * (full - raw):.2f} pts"
    assert full - tse_catt >= 0.01, (
        f"self-training gain {100 * (full - tse_catt):.2f} pts"
    )
    assert ablation_suite["elapsed"] < 600.0
    print(
        "PASS criterion 4: full %.4f > tse-only %.4f > raw %.4f; "
        "full-raw %.1f pts, self-training gain %.2f pts (%.0fs)"
        % (full, tse_only, raw, 100 * (full - raw),
           100 * (full - tse_catt), ablation_suite["elapsed"])
    )


def test_criterion_5_self_training_safety(ablation_suite):
    total = ablation_suite["promoted_total"]
    correct = ablation_suite["promoted_correct"]
    assert total > 0, "self-training never promoted a sample"
    precision = correct / total
    assert precision >= 0.9, f"promotion precision {precision:.3f}"
    pre = ablation_suite["acc"]["tse_catt"].mean()
    post = ablation_suite["acc"]["full"].mean()
    assert post >= pre - 0.005, f"post {post:.4f} fell below pre {pre:.4f} - 0.5pt"
    print(
        "PASS criterion 5: %d/%d promoted samples correct (%.1f%%); "
        "post %.4f vs pre %.4f" % (correct, total, 100 * precision, post, pre)
    )


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_alignment_sensitivity():
    cfg = PipelineConfig()
    sfa = {0.0: [], 0.9: []}
    for i in range(50):
        for gamma in (0.0, 0.9):
            synth = SynthConfig(
                seed=606 ^ i, shift_strength=gamma, pixel_noise=0.15,
                distractor_rate=0.2, n_query=8, height=8, width=8, channels=48,
            )
            episode, _ = generate_episode(synth)
            report, _ = run_episode(episode, cfg, episode_id=str(i))
            sfa[gamma].append(report.l_sfa)
    lo, hi = np.mean(sfa[0.0]), np.mean(sfa[0.9])
    assert hi > lo, f"L_sfa at 0.9 ({hi:.3f}) not above L_sfa at 0 ({lo:.3f})"

    rng = np.random.default_rng(607)
    maps = [rng.normal(size=(9, 6)) for _ in range(6)]
    copies = [m.copy() for m in maps]
    self_loss = sfa_loss(maps, copies)
    assert abs(self_loss) <= 1e-8
    print(
        "PASS criterion 6: mean L_sfa %.2f at shift 0.9 vs %.2f at 0; "
        "identical sets give %.1e" % (hi, lo, self_loss)
    )


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_invariant_suite():
    rng = np.random.default_rng(707)

    # cosine bounds
    cos = cosine_matrix(rng.normal(size=(50, 7)), rng.normal(size=(40, 7)))
    assert cos.max() <= 1.0 and cos.min() >= -1.0

    # block-split bijection
    grid = rng.normal(size=(6, 6, 4))
    fmap = block_split_concat(grid)
    folded = fmap.reshape(3, 3, 16)
    rebuilt = np.empty_like(grid)
    rebuilt[:3, :3] = folded[:, :, 0:4]
    rebuilt[:3, 3:] = folded[:, :, 4:8]
    rebuilt[3:, :3] = folded[:, :, 8:12]
    rebuilt[3:, 3:] = folded[:, :, 12:16]
    assert np.array_equal(rebuilt, grid)

    # loss additivity on a real episode
    synth = SynthConfig(seed=71, shift_strength=0.5, pixel_noise=0.15,
                        distractor_rate=0.2, n_query=5, height=8, width=8,
                        channels=48)
    episode, _ = generate_episode(synth)
    cfg = PipelineConfig()
    report, _ = run_episode(episode, cfg)
    recomputed = (report.l_cls + cfg.lambda_sfa * report.l_sfa
                  + cfg.lambda_spa * report.l_spa + cfg.lambda_clm * report.l_clm)
    assert abs(report.total - recomputed) <= 1e-9

    # softmax shift invariance
    v = rng.normal(size=9)
    assert np.allclose(softmax(v + 123.0), softmax(v), atol=1e-12)

    # ranking invariance under positive feature rescaling
    def produce(scale):
        query = SemanticFeatureMap(rng2.uniform(-1, 1, size=(9, 8)) * scale, 3, 3)
        return class_scores(query, classes)

    rng2 = np.random.default_rng(708)
    classes = [[SemanticFeatureMap(rng2.uniform(-1, 1, size=(9, 8)), 3, 3)]
               for _ in range(4)]
    state = rng2.bit_generator.state
    base = produce(1.0)
    rng2.bit_generator.state = state
    scaled = produce(400.0)
    assert (base.pos, base.neg) == (scaled.pos, scaled.neg)

    # evaluate determinism: bitwise-equal CSV (timing column masked)
    stream_cfg = replace(synth, seed=72)
    def csv_without_wall():
        run = evaluate(SyntheticTaskStream(stream_cfg), 4, cfg)
        return [",".join(line.split(",")[:-1]) for line in run.to_csv().splitlines()]
    assert csv_without_wall() == csv_without_wall()

    print("PASS criterion 7: invariant suite green (cosine bounds, fold "
          "bijection, loss additivity, softmax shift, rescale ranking, "
          "deterministic evaluate)")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_closed_form_spot_values():
    uniform = cross_entropy(np.zeros((1, 5)), [0])
    assert abs(uniform - math.log(5.0)) <= 1e-9

    unit = np.array([[1.0]])
    assert abs(kl_gaussian(np.array([0.0]), unit, np.array([1.0]), unit) - 0.5) <= 1e-12

    # softmax probabilities (1, 0) of two classes: e^-1000 underflows to 0
    hinge = class_matching_loss(ScoreTable(np.array([[1000.0, 0.0]]), []), margin=1.5)
    assert abs(hinge - 0.5) <= 1e-12
    print("PASS criterion 8: ln 5 classification floor, 1-D KL 0.5, "
          "hinge term 0.5 all exact")
