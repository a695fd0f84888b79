"""Tests for the synthetic two-domain episode generator."""

import numpy as np
import pytest

from fewshift.engine import PipelineConfig, config_for_toggles, run_episode
from fewshift.errors import ConfigError
from fewshift.synthgen import (
    DomainTransform,
    SynthConfig,
    generate_episode,
    make_transform,
    quadrant_band_layout,
)

RAW_BASELINE = config_for_toggles(PipelineConfig(), set())

SMALL = dict(n_query=5, height=8, width=8, channels=48, pixel_noise=0.15,
             distractor_rate=0.2)


class TestMakeTransform:
    def test_gamma_zero_is_exact_identity(self):
        t = make_transform(3, 0.0, 8)
        assert np.array_equal(t.matrix, np.eye(8))
        assert np.array_equal(t.bias, np.zeros(8))

    def test_gamma_one_invertible(self):
        t = make_transform(7, 1.0, 16)
        err = np.abs(t.matrix @ np.linalg.inv(t.matrix) - np.eye(16)).max()
        assert err < 1e-5

    def test_deterministic(self):
        a = make_transform(99, 0.5, 12)
        b = make_transform(99, 0.5, 12)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.bias, b.bias)

    def test_condition_bound(self):
        for seed in range(5):
            t = make_transform(seed, 0.7, 24)
            sv = np.linalg.svd(t.matrix, compute_uv=False)
            assert sv[0] / sv[-1] <= 1e3

    def test_bias_norm_bound(self):
        t = make_transform(5, 0.4, 10)
        assert np.linalg.norm(t.bias) <= 0.4 + 1e-12

    def test_apply_shape(self):
        t = DomainTransform(np.eye(3) * 2.0, np.ones(3))
        out = t.apply(np.ones((4, 3)))
        assert np.array_equal(out, np.full((4, 3), 3.0))


class TestLayout:
    def test_quadrant_bands_cover_parts(self):
        layout = quadrant_band_layout(10, 10, 4)
        assert layout.shape == (100,)
        assert set(layout.tolist()) == {0, 1, 2, 3}

    def test_quadrant_siblings_share_part(self):
        h = w = 6
        layout = quadrant_band_layout(h, w, 3).reshape(h, w)
        for r in range(3):
            for c in range(3):
                vals = {layout[r, c], layout[r, c + 3], layout[r + 3, c], layout[r + 3, c + 3]}
                assert len(vals) == 1


class TestGenerateEpisode:
    def test_deterministic_bytes(self):
        cfg = SynthConfig(seed=7, shift_strength=0.6, **SMALL)
        a, _ = generate_episode(cfg)
        b, _ = generate_episode(cfg)
        assert a.content_hash() == b.content_hash()

    def test_different_seeds_differ(self):
        a, _ = generate_episode(SynthConfig(seed=1, **SMALL))
        b, _ = generate_episode(SynthConfig(seed=2, **SMALL))
        assert a.content_hash() != b.content_hash()

    def test_shapes_and_counts(self):
        cfg = SynthConfig(seed=5, n_way=4, k_shot=2, **SMALL)
        ep, truth = generate_episode(cfg)
        assert ep.n_way == 4
        assert ep.k_shot == 2
        assert len(ep.query_source) == 4 * 5
        assert len(ep.query_target) == 4 * 5
        assert ep.grid == (8, 8, 48)
        assert truth.prototypes.shape == (4, 2, 48)
        assert truth.parts.shape == (len(ep.images), 64)

    def test_zero_noise_nearest_class_mean_perfect(self):
        cfg = SynthConfig(seed=99, shift_strength=0.0, pixel_noise=0.0,
                          distractor_rate=0.0, part_noise=0.0, n_query=4,
                          height=6, width=6, channels=32)
        ep, _ = generate_episode(cfg)
        d = 32
        class_means = [
            np.mean([np.asarray(m, float).reshape(-1, d).mean(axis=0) for m in grp], axis=0)
            for grp in ep.support
        ]
        labels = ep.scoring_labels()
        for q, m in enumerate(ep.query_target):
            v = np.asarray(m, float).reshape(-1, d).mean(axis=0)
            pred = int(np.argmin([np.linalg.norm(v - mu) for mu in class_means]))
            assert pred == labels[q]

    def test_ground_truth_marks_decoys(self):
        cfg = SynthConfig(seed=12, distractor_rate=0.4, **{
            k: v for k, v in SMALL.items() if k != "distractor_rate"})
        ep, truth = generate_episode(cfg)
        layout = truth.layout
        target_parts = truth.parts[len(ep.images) - len(ep.query_target):]
        for parts in target_parts:
            clean = parts >= 0
            assert np.array_equal(parts[clean], layout[clean])
        # some decoys should exist at this rate
        assert (target_parts < 0).any()

    def test_support_rows_hold_no_decoys(self):
        # support shots are curated exemplars, even at the highest rate
        cfg = SynthConfig(seed=13, k_shot=3, distractor_rate=1.0, **{
            k: v for k, v in SMALL.items() if k != "distractor_rate"})
        _, truth = generate_episode(cfg)
        n_support = cfg.n_way * cfg.k_shot
        assert np.array_equal(truth.parts[:n_support],
                              np.tile(truth.layout, (n_support, 1)))
        assert (truth.parts[n_support:] < 0).any()

    def test_ground_truth_oracle_upper_bounds_pipeline(self):
        # matched-filter oracle built from generator internals
        cfg = SynthConfig(seed=44, shift_strength=0.6, **SMALL)
        ep, truth = generate_episode(cfg)
        d = cfg.channels
        templates = [
            truth.transform.apply(truth.prototypes[c][truth.layout])
            for c in range(cfg.n_way)
        ]
        oracle_correct = 0
        labels = ep.scoring_labels()
        for q, img in enumerate(ep.query_target):
            cells = np.asarray(img, float).reshape(-1, d)
            scores = [
                float(np.einsum("ij,ij->i", cells, t).sum()
                      / (np.linalg.norm(cells) * np.linalg.norm(t)))
                for t in templates
            ]
            oracle_correct += int(int(np.argmax(scores)) == labels[q])
        rep, _ = run_episode(ep, PipelineConfig(), episode_id="o")
        assert oracle_correct / len(labels) >= rep.accuracy - 1e-9

    def test_target_transform_applied(self):
        cfg = SynthConfig(seed=21, shift_strength=0.8, pixel_noise=0.0,
                          distractor_rate=0.0, part_noise=0.0, n_query=2,
                          height=4, width=4, channels=16, parts_per_class=2)
        ep, truth = generate_episode(cfg)
        cells = np.asarray(ep.query_target[0], float).reshape(-1, 16)
        parts = truth.parts[len(ep.images) - len(ep.query_target)]
        label = ep.scoring_labels()[0]
        expected = truth.transform.apply(truth.prototypes[label][parts])
        assert np.allclose(cells, expected, atol=1e-5)


class TestConfigValidation:
    def test_gamma_out_of_range_names_field(self):
        with pytest.raises(ConfigError) as err:
            SynthConfig(seed=1, shift_strength=1.5)
        assert err.value.field == "shift_strength"

    def test_distractor_rate_range(self):
        with pytest.raises(ConfigError):
            SynthConfig(seed=1, distractor_rate=-0.1)

    def test_grid_must_hold_parts(self):
        with pytest.raises(ConfigError) as err:
            SynthConfig(seed=1, height=2, width=2, parts_per_class=5)
        assert err.value.field == "parts_per_class"

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError) as err:
            SynthConfig.from_dict({"seed": 1, "bogus": 2})
        assert err.value.field == "bogus"

    def test_dict_round_trip(self):
        cfg = SynthConfig(seed=3, shift_strength=0.4)
        assert SynthConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.slow
class TestShiftMonotonicity:
    def test_raw_accuracy_non_increasing_in_gamma(self):
        gammas = [0.0, 0.3, 0.6, 0.9]
        means = []
        for gamma in gammas:
            accs = []
            for i in range(50):
                cfg = SynthConfig(seed=555 ^ i, shift_strength=gamma, **SMALL)
                ep, _ = generate_episode(cfg)
                rep, _ = run_episode(ep, RAW_BASELINE, episode_id=str(i))
                accs.append(rep.accuracy)
            means.append(float(np.mean(accs)))
        for lo, hi in zip(means[1:], means[:-1]):
            assert lo <= hi + 0.01, f"accuracy rose along gamma grid: {means}"

    def test_strong_shift_strictly_below_none(self):
        acc0, acc8 = [], []
        for i in range(50):
            base = dict(SMALL)
            base["pixel_noise"] = 0.2
            cfg0 = SynthConfig(seed=808 ^ i, shift_strength=0.0, **base)
            cfg8 = SynthConfig(seed=808 ^ i, shift_strength=0.8, **base)
            for cfg, out in ((cfg0, acc0), (cfg8, acc8)):
                ep, _ = generate_episode(cfg)
                rep, _ = run_episode(ep, RAW_BASELINE, episode_id=str(i))
                out.append(rep.accuracy)
        assert np.mean(acc8) < np.mean(acc0)
