"""Tests for the per-episode pipeline, evaluation, and ablation machinery."""

import ctypes
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fewshift import engine
from fewshift.engine import (
    CSV_COLUMNS,
    TOGGLES,
    ManifestTaskStream,
    PipelineConfig,
    SyntheticTaskStream,
    ablate,
    config_for_toggles,
    embed_episode,
    evaluate,
    forward_episode,
    row_label,
    run_episode,
)
from fewshift.errors import ConfigError
from fewshift.feature_store import Episode, save_episode
from fewshift.selftrain import class_matching_loss, promote_and_reclassify
from fewshift.synthgen import SynthConfig, generate_episode

SMALL = SynthConfig(seed=7, shift_strength=0.5, pixel_noise=0.15,
                    distractor_rate=0.2, n_query=5, height=8, width=8, channels=48)


class AllZero(SyntheticTaskStream):
    """Every episode has all-zero images, so every semantic run fails."""

    def episode(self, index):
        eid, ep = super().episode(index)
        return eid, Episode(np.zeros_like(ep.images), ep.n_way, ep.k_shot,
                            ep.query_source_labels, ep.scoring_labels())


class Flaky(SyntheticTaskStream):
    """Episode 1 has all-zero images: all-zero centroids, which the
    semantic pipeline rejects; raw locals run it."""

    def episode(self, index):
        eid, ep = super().episode(index)
        if index == 1:
            return eid, Episode(np.zeros_like(ep.images), ep.n_way, ep.k_shot,
                                ep.query_source_labels, ep.scoring_labels())
        return eid, ep


class Counting(SyntheticTaskStream):
    """Counts the episodes fetched from it."""

    fetched = 0

    def episode(self, index):
        self.fetched += 1
        return super().episode(index)


class Keeping(SyntheticTaskStream):
    """Keeps every episode it serves, by id."""

    def __init__(self, base):
        super().__init__(base)
        self.served = {}

    def episode(self, index):
        eid, ep = super().episode(index)
        self.served[eid] = ep
        return eid, ep


class Drifting(SyntheticTaskStream):
    """Raises its base seed by one on every call, so fetching an index
    again serves other bytes."""

    def episode(self, index):
        self.base = replace(self.base, seed=self.base.seed + 1)
        return super().episode(index)


def default_of(function, parameter):
    return inspect.signature(function).parameters[parameter].default


def strip_wall_ms(csv_text):
    lines = csv_text.strip().split("\n")
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestPipelineConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.lambda_sfa == 0.1
        assert cfg.lambda_spa == 0.05
        assert cfg.lambda_clm == 0.01
        assert default_of(promote_and_reclassify, "threshold") == 1.7
        assert default_of(class_matching_loss, "margin") == 1.5

    def test_every_field_is_an_ablation_toggle_or_a_loss_weight(self):
        # a knob stays only if an ablation row varies it or the total
        # weighs a loss with it
        rows = [config_for_toggles(PipelineConfig(), set(row))
                for n in range(len(TOGGLES) + 1) for row in combinations(TOGGLES, n)]
        varied = {f.name for f in fields(PipelineConfig)
                  if len({getattr(cfg, f.name) for cfg in rows}) > 1}
        weights = {"lambda_sfa", "lambda_spa", "lambda_clm"}
        assert {f.name for f in fields(PipelineConfig)} - varied - weights == set()

    def test_bad_values_name_field(self):
        with pytest.raises(ConfigError) as err:
            PipelineConfig(lambda_sfa=-1.0)
        assert err.value.field == "lambda_sfa"
        with pytest.raises(ConfigError) as err:
            PipelineConfig(feature_mode="bogus")
        assert err.value.field == "feature_mode"

    @pytest.mark.parametrize("raw", [[1, 2], "abc", None], ids=["list", "string", "null"])
    def test_non_object_rejected(self, raw):
        with pytest.raises(ConfigError, match="'PipelineConfig': must be a JSON object, got"):
            PipelineConfig.from_dict(raw)

    def test_unknown_key_rejected(self):
        # the retired knobs are unknown keys like any other
        for field in ("nonsense", "merge", "pooling", "normalize_scores",
                      "confidence_measure", "replace_mode", "attention_weights"):
            with pytest.raises(ConfigError) as err:
                PipelineConfig.from_dict({field: 1})
            assert err.value.field == field

    def test_file_round_trip(self, tmp_path):
        import json

        cfg = PipelineConfig(lambda_sfa=0.2, self_training=False)
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert PipelineConfig.from_file(path) == cfg


class TestRunEpisode:
    def test_lambda_zero_total_is_cls(self):
        ep, _ = generate_episode(SMALL)
        cfg = PipelineConfig(lambda_sfa=0.0, lambda_spa=0.0, lambda_clm=0.0)
        report = run_episode(ep, cfg)
        assert report.total == report.l_cls

    def test_zero_shift_perfect(self):
        cfg = SynthConfig(seed=3, shift_strength=0.0, pixel_noise=0.0,
                          distractor_rate=0.0, part_noise=0.0, n_query=4,
                          height=6, width=6, channels=32)
        ep, _ = generate_episode(cfg)
        report = run_episode(ep, PipelineConfig())
        assert report.accuracy == 1.0

    def test_loss_additivity(self):
        ep, _ = generate_episode(SMALL)
        cfg = PipelineConfig()
        report = run_episode(ep, cfg)
        want = (report.l_cls + cfg.lambda_sfa * report.l_sfa
                + cfg.lambda_spa * report.l_spa + cfg.lambda_clm * report.l_clm)
        assert abs(report.total - want) <= 1e-9

    def test_history_ignored_without_catt(self):
        ep, _ = generate_episode(SMALL)
        cfg = replace(PipelineConfig(), use_catt=False)
        base = run_episode(ep, cfg, history=None)
        again = run_episode(ep, cfg, history=base.centroids)
        assert np.array_equal(base.predictions, again.predictions)
        assert (base.l_cls, base.l_sfa, base.l_spa, base.l_clm) == (
            again.l_cls, again.l_sfa, again.l_spa, again.l_clm)

    def test_history_changes_catt_run(self):
        ep, _ = generate_episode(SMALL)
        ep2, _ = generate_episode(replace(SMALL, seed=8))
        cfg = PipelineConfig()
        cents = run_episode(ep2, cfg).centroids
        digest = ep.content_hash()
        run_episode(ep, cfg, history=None)
        warmed = run_episode(ep, cfg, history=cents)
        # a different warm start may move losses; it must not crash and
        # must leave the episode as it was
        assert ep.content_hash() == digest
        assert warmed.k >= 2

    def test_raw_mode_skips_embedding(self):
        ep, _ = generate_episode(SMALL)
        report = run_episode(ep, config_for_toggles(PipelineConfig(), {"cs"}))
        assert report.k == 0
        assert report.centroids is None

    def test_forward_never_reads_target_labels(self):
        ep, _ = generate_episode(SMALL)

        class Tripwire(Episode):
            def scoring_labels(self):
                raise AssertionError("pipeline read quarantined labels")

        trip = Tripwire(ep.images, ep.n_way, ep.k_shot, ep.query_source_labels,
                        [0] * len(ep.query_target))
        fwd = forward_episode(trip, PipelineConfig())
        assert len(fwd.predictions) == len(ep.query_target)
        with pytest.raises(AssertionError):
            run_episode(trip, PipelineConfig())

    def test_chain_is_a_run_episode_loop_threading_centroids(self):
        cfg = PipelineConfig()
        stream = SyntheticTaskStream(SMALL)
        chained = evaluate(stream, 3, cfg)
        history, manual = None, []
        for i in range(3):
            eid, ep = stream.episode(i)
            manual.append(run_episode(ep, cfg, history, eid))
            history = manual[-1].centroids
        # every CSV column but the last, wall_ms
        assert [r.csv_row()[:-1] for r in chained.reports] == [
            r.csv_row()[:-1] for r in manual]
        assert all(r.centroids.shape == (r.k, SMALL.channels) for r in manual)

    def test_report_csv_row(self):
        ep, _ = generate_episode(SMALL)
        report = run_episode(ep, PipelineConfig(), episode_id="ep7")
        row = report.csv_row()
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == "ep7"
        # wall_ms stays last, so masking the last column drops only timing
        assert CSV_COLUMNS[-2:] == ("spa_skipped", "wall_ms")
        assert row[-2] == str(report.spa_skipped)


class TestEmbedEpisode:
    def test_rows_partition_the_stack(self):
        ep, _ = generate_episode(SMALL)
        emb = embed_episode(ep, PipelineConfig())
        h, w, _ = ep.grid
        n = sum(len(g) for g in ep.support) + len(ep.query_source) + len(ep.query_target)
        assert emb.stack.shape == (n, h // 2 * (w // 2), 4 * emb.k)
        assert [len(rows) for rows in ep.support_rows] == [len(g) for g in ep.support]
        assert (len(ep.qs_rows), len(ep.qt_rows)) == (
            len(ep.query_source), len(ep.query_target))
        rows = np.concatenate([*ep.support_rows, ep.qs_rows, ep.qt_rows])
        assert np.array_equal(rows, np.arange(len(emb.stack)))
        assert emb.centroids.shape == (emb.k, ep.grid[2])

    def test_raw_local_stack_is_the_reshape(self):
        ep, _ = generate_episode(SMALL)
        emb = embed_episode(ep, config_for_toggles(PipelineConfig(), {"cs"}))
        h, w, d = ep.grid
        assert (emb.k, emb.centroids) == (0, None)
        for c, group in enumerate(ep.support):
            for row, img in zip(ep.support_rows[c], group):
                assert np.array_equal(emb.stack[row], np.reshape(img, (h * w, d)))
        for row, img in zip(ep.qt_rows, ep.query_target):
            assert np.array_equal(emb.stack[row], np.reshape(img, (h * w, d)))

    def test_no_target_queries_is_a_clear_error(self):
        ep, _ = generate_episode(SMALL)
        n_source = len(ep.images) - len(ep.qt_rows)
        blind = Episode(ep.images[:n_source], ep.n_way, ep.k_shot,
                        ep.query_source_labels, [])
        with pytest.raises(ValueError, match="both local pools need at least"):
            embed_episode(blind, PipelineConfig())


class TestEvaluate:
    def test_single_task_mean(self):
        stream = SyntheticTaskStream(SMALL)
        report = evaluate(stream, 1, PipelineConfig())
        assert report.mean_accuracy == report.reports[0].accuracy
        assert report.ci95 == 0.0

    def test_deterministic_runs(self):
        stream = SyntheticTaskStream(SMALL)
        cfg = PipelineConfig()
        a = evaluate(stream, 4, cfg)
        b = evaluate(SyntheticTaskStream(SMALL), 4, cfg)
        assert strip_wall_ms(a.to_csv()) == strip_wall_ms(b.to_csv())
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_tracks_config(self):
        stream = SyntheticTaskStream(SMALL)
        a = evaluate(stream, 1, PipelineConfig())
        b = evaluate(stream, 1, replace(PipelineConfig(), lambda_sfa=0.2))
        assert a.fingerprint != b.fingerprint

    def test_fingerprint_names_code_version(self, monkeypatch):
        from fewshift import engine

        cfg = replace(PipelineConfig(), use_catt=False)
        a = evaluate(SyntheticTaskStream(SMALL), 1, cfg)
        b = evaluate(SyntheticTaskStream(SMALL), 1, cfg)
        assert a.fingerprint == b.fingerprint  # one tree, one fingerprint
        assert len(engine._source_digest()) == 64
        monkeypatch.setattr(engine, "_source_digest", lambda: "0" * 64)
        patched = evaluate(SyntheticTaskStream(SMALL), 1, cfg)
        assert patched.fingerprint != a.fingerprint

    def test_episode_failure_logged_and_run_continues(self):
        report = evaluate(Flaky(SMALL), 3, PipelineConfig())
        assert len(report.failures) == 1
        assert report.failures[0][0] == "synth0001"
        assert len(report.reports) == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_load_failure_counted(self, threads):
        class Unreadable(SyntheticTaskStream):
            def episode(self, index):
                if index in (0, 2):
                    raise OSError(f"cannot read episode {index}")
                return super().episode(index)

        cfg = replace(PipelineConfig(), use_catt=False)
        report = evaluate(Unreadable(SMALL), 4, cfg, threads=threads)
        assert [eid for eid, _ in report.failures] == ["#0", "#2"]
        assert [r.episode_id for r in report.reports] == ["synth0001", "synth0003"]
        assert "failures: 2 of 4" in report.summary_text()

    @pytest.mark.parametrize("use_catt, threads", [(True, 1), (False, 2)])
    def test_all_failed_run_returns_its_failures(self, use_catt, threads):
        cfg = replace(PipelineConfig(), use_catt=use_catt)
        report = evaluate(AllZero(SMALL), 3, cfg, threads=threads)
        assert report.reports == []
        assert [eid for eid, _ in report.failures] == ["synth0000", "synth0001", "synth0002"]
        assert math.isnan(report.mean_accuracy) and math.isnan(report.ci95)
        assert report.to_csv() == ",".join(CSV_COLUMNS) + "\n"
        summary = report.summary_text()
        assert "episodes: 0\n" in summary and "failures: 3 of 3\n" in summary
        assert "mean_accuracy: nan\n" in summary

    def test_no_tasks_rejected_before_any_fetch(self):
        stream = Counting(SMALL)
        with pytest.raises(ValueError, match="n_tasks must be >= 1"):
            evaluate(stream, 0, PipelineConfig())
        assert stream.fetched == 0

    def test_threads_match_serial(self):
        cfg = replace(PipelineConfig(), use_catt=False)
        serial = evaluate(SyntheticTaskStream(SMALL), 4, cfg, threads=1)
        parallel = evaluate(SyntheticTaskStream(SMALL), 4, cfg, threads=4)
        assert strip_wall_ms(serial.to_csv()) == strip_wall_ms(parallel.to_csv())


# evaluate under the chain-full toggles and cs, and ablate over an
# unchained grid, serially and on two threads; prints predictions and
# the four losses (as float hex) per run and row
BLAS_PROBE = """
import json
from fewshift.engine import (
    PipelineConfig, SyntheticTaskStream, ablate, config_for_toggles, evaluate, row_label,
)
from fewshift.synthgen import SynthConfig

base = SynthConfig(seed=20230, shift_strength=0.6, pixel_noise=0.15, distractor_rate=0.2)

def outputs(report):
    assert not report.failures, report.failures
    return [
        [r.episode_id, r.predictions.tolist()]
        + [float(getattr(r, f)).hex() for f in ("l_cls", "l_sfa", "l_spa", "l_clm")]
        for r in report.reports
    ]

out = {}
grid = [set(), {"cs"}, {"tse"}, {"tse", "cs"}]
for threads in (1, 2):
    for name, toggles in (("chain-full", {"tse", "catt", "cs"}), ("cs", {"cs"})):
        cfg = config_for_toggles(PipelineConfig(), toggles)
        out[f"{name}/threads={threads}"] = outputs(
            evaluate(SyntheticTaskStream(base), 4, cfg, threads))
    reports = ablate(PipelineConfig(), grid, SyntheticTaskStream(base), 4, threads)
    for toggles, report in zip(grid, reports, strict=True):
        out[f"ablate:{row_label(toggles)}/threads={threads}"] = outputs(report)
print(json.dumps(out))
"""


def test_outputs_identical_across_blas_and_pool_threads():
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = {}
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        runs[blas] = json.loads(done.stdout)
    names = ["chain-full", "cs"] + [f"ablate:{row}" for row in ("baseline", "cs", "tse", "tse+cs")]
    for name in names:
        serial = runs["1"][f"{name}/threads=1"]
        assert len(serial) == 4
        for blas in ("1", "2"):
            for threads in (1, 2):
                assert runs[blas][f"{name}/threads={threads}"] == serial, (name, blas, threads)


# evaluate twice on 4 pre-generated chained acceptance-config episodes;
# prints the minor page faults per episode of the second call, and
# whether the heap policy was applied
FAULT_PROBE = """
import json, resource
from fewshift import engine
from fewshift.synthgen import SynthConfig, generate_episode

episodes = [generate_episode(SynthConfig(seed=20230 ^ i, shift_strength=0.6,
                                         pixel_noise=0.15, distractor_rate=0.2))[0]
            for i in range(4)]

class Stream:
    def episode(self, i):
        return f"e{i}", episodes[i]

    def descriptor(self):
        return "probe"

engine.evaluate(Stream(), 4, engine.PipelineConfig())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
report = engine.evaluate(Stream(), 4, engine.PipelineConfig())
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
assert not report.failures, report.failures
print(json.dumps({"kept": engine._keep_freed_heap(), "per_episode": faults / 4}))
"""


def test_serial_chain_does_not_refault_the_heap():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    if not probe["kept"]:
        pytest.skip("this C library or environment keeps its own malloc policy")
    # glibc's default thresholds give thousands of faults per episode here
    assert probe["per_episode"] <= 100, probe


class FakeMallopt:
    def __init__(self, result):
        self.result = result
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


class TestKeepFreedHeap:
    @pytest.fixture(autouse=True)
    def fresh_policy(self, monkeypatch):
        for name in engine._MALLOC_ENV + ("GLIBC_TUNABLES",):
            monkeypatch.delenv(name, raising=False)
        engine._keep_freed_heap.cache_clear()
        yield
        engine._keep_freed_heap.cache_clear()

    @pytest.mark.parametrize("tunables", [None, "glibc.cpu.hwcaps=-AVX2"])
    def test_pins_both_thresholds(self, monkeypatch, tunables):
        if tunables:
            monkeypatch.setenv("GLIBC_TUNABLES", tunables)
        mallopt = FakeMallopt(1)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert engine._keep_freed_heap() is True
        assert mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_no_mallopt_leaves_evaluate_working(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert engine._keep_freed_heap() is False
        report = evaluate(SyntheticTaskStream(SMALL), 2, PipelineConfig())
        assert len(report.reports) == 2 and not report.failures

    def test_refusing_mallopt_changes_nothing_more(self, monkeypatch):
        mallopt = FakeMallopt(0)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert engine._keep_freed_heap() is False
        assert len(mallopt.calls) == 1

    @pytest.mark.parametrize("name, value", [
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("MALLOC_TOP_PAD_", "0"),
        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
    ])
    def test_environment_policy_respected(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        mallopt = FakeMallopt(1)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert engine._keep_freed_heap() is False
        assert mallopt.calls == []


class TestScoreOnce:
    @pytest.mark.parametrize("self_training", [True, False])
    def test_no_block_pooled_twice(self, monkeypatch, self_training):
        from fewshift import patterns

        pooled = []  # (cache, stack row); holding the cache keeps its id unique
        real = patterns.PooledBlocks._pool

        def recording(self, rows):
            pooled.extend((self, r) for r in rows)
            return real(self, rows)

        monkeypatch.setattr(patterns.PooledBlocks, "_pool", recording)
        ep, _ = generate_episode(SMALL)
        cfg = replace(PipelineConfig(), self_training=self_training)
        fwd = forward_episode(ep, cfg)
        if self_training:
            assert fwd.rounds >= 1
        keys = [(id(cache), r) for cache, r in pooled]
        assert len(keys) == len(set(keys))
        # one cache per query set, each holding every support image; the
        # target set's cache adds the queries promoted during self-training
        caches = {id(cache): cache for cache, _ in pooled}
        assert len(caches) == 2
        n_support = sum(len(group) for group in ep.support)
        per_cache = [sum(1 for c, _ in pooled if c is cache) for cache in caches.values()]
        assert min(per_cache) == n_support
        assert (max(per_cache) > n_support) == self_training

    @pytest.mark.parametrize("toggles", [{"tse", "cs"}, {"tse"}])
    def test_target_round_zero_table_scored_once(self, monkeypatch, toggles):
        # one table for the source queries, one for the target queries
        # against the support, and one more per self-training round
        from fewshift import patterns, selftrain

        calls = []
        real = patterns.score_set

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(patterns, "score_set", counting)
        monkeypatch.setattr(selftrain, "score_set", counting)
        cfg = config_for_toggles(PipelineConfig(), toggles)
        stream = SyntheticTaskStream(SMALL)
        rounds = []
        for i in range(3):
            calls.clear()
            report = forward_episode(stream.episode(i)[1], cfg)
            assert len(calls) == 2 + report.rounds
            rounds.append(report.rounds)
        assert (max(rounds) >= 1) == ("cs" in toggles)


class TestAblate:
    def test_rows_paired_and_labeled(self):
        grid = [{"tse"}, {"cs"}, {"tse", "catt", "cs"}]
        reports = ablate(PipelineConfig(), grid, SyntheticTaskStream(SMALL), 3)
        assert [row_label(toggles) for toggles in grid] == ["tse", "cs", "tse+catt+cs"]
        assert row_label(set()) == "baseline"
        # one report per row, in grid order: only the cs row runs raw locals (k = 0)
        assert [r.reports[0].k > 0 for r in reports] == [True, False, True]
        hashes = [[e.episode_hash for e in r.reports] for r in reports]
        assert hashes[0] == hashes[1] == hashes[2]

    def test_failed_episodes_keep_the_pairing_and_are_reported(self):
        # the raw-local baseline runs the all-zero episode and tse does not
        reports = ablate(PipelineConfig(), [{"tse"}, set()], Flaky(SMALL), 3)
        assert [[eid for eid, _ in r.failures] for r in reports] == [["synth0001"], []]
        assert [len(r.reports) for r in reports] == [2, 3]
        # both rows fail it, and each says so
        reports = ablate(PipelineConfig(), [{"tse"}, {"tse", "cs"}], Flaky(SMALL), 3)
        assert [[eid for eid, _ in r.failures] for r in reports] == [["synth0001"]] * 2

    def test_all_failed_row_keeps_its_place(self):
        reports = ablate(PipelineConfig(), [{"tse"}, set()], AllZero(SMALL), 2)
        assert reports[0].reports == []
        assert [eid for eid, _ in reports[0].failures] == ["synth0000", "synth0001"]
        assert math.isnan(reports[0].mean_accuracy) and math.isnan(reports[0].ci95)
        assert len(reports[1].reports) == 2 and not reports[1].failures

    def test_bad_toggle_in_last_row_runs_no_episode(self):
        stream = Counting(SMALL)
        with pytest.raises(ConfigError, match="'grid': unknown toggle 'warp'"):
            ablate(PipelineConfig(), [{"tse"}, {"cs"}, {"cs", "warp"}], stream, 2)
        assert stream.fetched == 0

    def test_each_episode_fetched_once_for_the_grid(self):
        stream = Counting(SMALL)
        reports = ablate(PipelineConfig(), [{"tse"}, {"cs"}, {"tse", "catt", "cs"}], stream, 3)
        assert stream.fetched == 3
        assert all(len(r.reports) == 3 for r in reports)

    def test_drifting_stream_still_pairs_every_row(self):
        # a stream that serves new bytes on every call cannot unpair the
        # rows: each episode is fetched once and every row runs on it
        stream = Drifting(SMALL)
        reports = ablate(PipelineConfig(), [{"cs"}, set(), {"tse"}], stream, 2)
        hashes = [[e.episode_hash for e in r.reports] for r in reports]
        assert hashes[0] == hashes[1] == hashes[2] and "" not in hashes[0]
        assert stream.base.seed == SMALL.seed + 2  # one fetch per episode

    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_row_equals_evaluating_it_alone(self, threads):
        # the chained rows fail episode 1 and keep their history, the raw
        # rows run it, and the chain keeps this grid serial; the unchained
        # grid takes the pool at threads=2
        grid = [{"tse", "catt"}, set(), {"cs"}, {"tse", "catt", "cs"}]
        rows = ablate(PipelineConfig(), grid, Flaky(SMALL), 3, threads)
        assert [len(r.failures) for r in rows] == [1, 0, 0, 1]
        unchained = [set(), {"cs"}, {"tse", "cs"}]
        rows += ablate(PipelineConfig(), unchained, Flaky(SMALL), 3, threads)
        for toggles, row in zip(grid + unchained, rows):
            alone = evaluate(Flaky(SMALL), 3, config_for_toggles(PipelineConfig(), toggles),
                             threads)
            assert strip_wall_ms(row.to_csv()) == strip_wall_ms(alone.to_csv()), toggles
            assert row.failures == alone.failures
            assert [e.episode_hash for e in row.reports] == [
                e.episode_hash for e in alone.reports]
            assert (row.fingerprint, row.ci95) == (alone.fingerprint, alone.ci95)
            assert row.mean_accuracy == alone.mean_accuracy

    def test_failed_episode_leaves_each_chain_where_it_was(self):
        # both chained rows fail episode 1; each warm-starts episode 2
        # from its own episode-0 centroids
        grid = [{"tse", "catt"}, {"tse", "catt", "cs"}]
        rows = ablate(PipelineConfig(), grid, Flaky(SMALL), 3)
        stream = SyntheticTaskStream(SMALL)
        for toggles, row in zip(grid, rows):
            cfg = config_for_toggles(PipelineConfig(), toggles)
            first = run_episode(stream.episode(0)[1], cfg, None, "synth0000")
            last = run_episode(stream.episode(2)[1], cfg, first.centroids, "synth0002")
            assert [r.csv_row()[:-1] for r in row.reports] == [
                first.csv_row()[:-1], last.csv_row()[:-1]]

    def test_rows_leave_the_shared_episode_as_fetched(self):
        stream = Keeping(SMALL)
        grid = [{"tse"}, {"cs"}, {"tse", "catt"}, {"tse", "catt", "cs"}, set()]
        reports = ablate(PipelineConfig(), grid, stream, 3)
        assert sorted(stream.served) == ["synth0000", "synth0001", "synth0002"]
        for r in reports:
            assert len(r.reports) == 3
            for e in r.reports:
                assert e.episode_hash == stream.served[e.episode_id].content_hash()

    def test_empty_grid(self):
        assert ablate(PipelineConfig(), [], SyntheticTaskStream(SMALL), 2) == []

    def test_toggle_mapping(self):
        base = PipelineConfig()
        raw = config_for_toggles(base, set())
        assert raw.feature_mode == "raw_local"
        assert not raw.self_training
        assert not raw.use_catt
        full = config_for_toggles(base, {"tse", "catt", "cs"})
        assert full.feature_mode == "semantic"
        assert full.use_catt and full.self_training
        with pytest.raises(ValueError):
            config_for_toggles(base, {"bogus"})


class TestManifestStream:
    def test_side_by_side_manifests_named_by_file(self, monkeypatch):
        # ablate pairs episodes by id, so one directory's manifests need their own
        monkeypatch.setattr(engine, "EpisodeManifest", SimpleNamespace(load=str))
        monkeypatch.setattr(engine, "load_episode", lambda manifest, root: None)
        stream = ManifestTaskStream(["eps/manifest_a.json", "eps/manifest_b.json",
                                     "eps/e1/manifest.json", "manifest.json"])
        assert [stream.episode(i)[0] for i in range(4)] == [
            "manifest_a", "manifest_b", "e1", "manifest"]

    @pytest.mark.parametrize("cfg", [config_for_toggles(PipelineConfig(), set()),
                                     PipelineConfig()], ids=["baseline", "defaults"])
    def test_loaded_episodes_run_as_in_memory(self, tmp_path, cfg):
        # loading reads each tensor straight into the stack; on one
        # thread or two it must hand the pipeline the generated bytes
        memory = SyntheticTaskStream(SynthConfig(
            seed=20230, shift_strength=0.6, pixel_noise=0.15, distractor_rate=0.2))
        saved = [memory.episode(i) for i in range(4)]
        disk = ManifestTaskStream([save_episode(ep, tmp_path / eid) for eid, ep in saved])
        want = strip_wall_ms(evaluate(memory, 4, cfg).to_csv())
        for threads in (1, 2):
            report = evaluate(disk, 4, cfg, threads=threads)
            assert strip_wall_ms(report.to_csv()) == want
            assert [r.episode_hash for r in report.reports] == [
                ep.content_hash() for _, ep in saved]

    def test_loads_generated_episodes(self, tmp_path):
        from fewshift.cli import main

        config = dict(SMALL.to_dict())
        config["episodes"] = 2
        import json

        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "eps")]) == 0
        paths = sorted((tmp_path / "eps").glob("*/manifest.json"))
        stream = ManifestTaskStream(paths)
        assert len(stream) == 2
        eid, ep = stream.episode(0)
        assert eid == "episode_000"
        direct, _ = generate_episode(replace(SMALL, seed=SMALL.seed ^ 0))
        assert ep.content_hash() == direct.content_hash()
