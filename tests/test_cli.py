"""Tests for the command-line interface and its exit-code contract."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fewshift
from fewshift import cli
from fewshift.cli import main
from fewshift.engine import SyntheticTaskStream
from fewshift.feature_store import Episode, read_tensor_file

SYNTH = {
    "seed": 11, "n_way": 3, "k_shot": 1, "n_query": 4,
    "height": 6, "width": 6, "channels": 32, "parts_per_class": 2,
    "part_noise": 0.05, "pixel_noise": 0.15,
    "shift_strength": 0.5, "distractor_rate": 0.2,
}


@pytest.fixture
def synth_config(tmp_path):
    path = tmp_path / "synth.json"
    record = dict(SYNTH)
    record["episodes"] = 3
    path.write_text(json.dumps(record))
    return path


@pytest.fixture
def episodes_dir(tmp_path, synth_config):
    out = tmp_path / "episodes"
    assert main(["gen", "--config", str(synth_config), "--out", str(out)]) == 0
    return out


def truncate_first_tensors(root):
    """Cut each episode's first tensor file under root inside its header,
    so every episode fails to load; the cut files, in episode order."""
    victims = [sorted(d.glob("*.ftns"))[0] for d in sorted(root.glob("episode_*"))]
    for victim in victims:
        victim.write_bytes(victim.read_bytes()[:10])
    return victims


def tree_digest(root):
    """sha256 over the sorted (relative path, file bytes) pairs under root."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestGen:
    def test_writes_manifests(self, episodes_dir):
        manifests = sorted(episodes_dir.glob("*/manifest.json"))
        assert len(manifests) == 3

    def test_deterministic_files(self, tmp_path, synth_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["gen", "--config", str(synth_config), "--out", str(a)]) == 0
        assert main(["gen", "--config", str(synth_config), "--out", str(b)]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_files_are_pinned(self, tmp_path):
        # two 3-way 2-shot episodes, digest recorded before the writer
        # moved into feature_store.save_episode
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({**SYNTH, "k_shot": 2, "episodes": 2}))
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "eps")]) == 0
        assert tree_digest(tmp_path / "eps") == (
            "c5efc09233c61f49b00aa9fa8368e0a89efdfc324ea7f135f03052af25075b59"
        )

    def test_invalid_gamma_exits_2(self, tmp_path, capsys):
        bad = dict(SYNTH)
        bad["shift_strength"] = 2.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["gen", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "shift_strength" in capsys.readouterr().err


class TestRun:
    def test_single_episode_from_manifest(self, episodes_dir, capsys):
        manifest = sorted(episodes_dir.glob("*/manifest.json"))[0]
        assert main(["run", "--episode", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "l_sfa" in out

    def test_single_episode_from_synth(self, synth_config, capsys):
        assert main(["run", "--synth", str(synth_config)]) == 0
        assert "losses" in capsys.readouterr().out


class TestEval:
    def test_synth_csv_rows(self, tmp_path, synth_config):
        out = tmp_path / "report.csv"
        code = main(["eval", "--synth", str(synth_config), "--tasks", "3",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("episode_id,accuracy,")
        summary = out.with_suffix(".summary.txt").read_text()
        assert "mean_accuracy" in summary

    def test_episode_dir_input(self, tmp_path, episodes_dir):
        out = tmp_path / "r.csv"
        assert main(["eval", "--episodes", str(episodes_dir), "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 4
        assert "failures: 0 of 3" in out.with_suffix(".summary.txt").read_text()

    def test_variant_labeled_in_summary(self, tmp_path, synth_config):
        pipeline = tmp_path / "pipe.json"
        pipeline.write_text(json.dumps({"feature_mode": "raw_local"}))
        out = tmp_path / "raw.csv"
        code = main(["eval", "--synth", str(synth_config), "--tasks", "2",
                     "--pipeline", str(pipeline), "--out", str(out)])
        assert code == 0
        assert "raw_local" in out.with_suffix(".summary.txt").read_text()

    def test_missing_pipeline_exits_2(self, tmp_path, synth_config):
        code = main(["eval", "--synth", str(synth_config), "--tasks", "1",
                     "--pipeline", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("retired", [
        {"pooling": "query"}, {"replace_mode": "union"}, {"attention_weights": "attn.ftns"},
        {"margin": 1.5}, {"tau_rel": 0.1}, {"k_min": 2}, {"k_max": 0},
        {"confidence_threshold": 1.7}, {"max_rounds": 3}, {"ridge": 0.0},
    ])
    def test_retired_pipeline_field_exits_2(self, tmp_path, synth_config, capsys, retired):
        pipeline = tmp_path / "pipe.json"
        pipeline.write_text(json.dumps(retired))
        code = main(["eval", "--synth", str(synth_config), "--tasks", "1",
                     "--pipeline", str(pipeline), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert f"'{next(iter(retired))}'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("use_catt", "false"), ("self_training", 0), ("lambda_sfa", "0.1"),
        ("lambda_spa", True), ("lambda_clm", None),
    ])
    def test_mistyped_pipeline_field_exits_2(self, tmp_path, synth_config, capsys, field, value):
        # "false" is truthy: kept as a string it would switch the chain on
        pipeline = tmp_path / "pipe.json"
        pipeline.write_text(json.dumps({field: value}))
        code = main(["eval", "--synth", str(synth_config), "--tasks", "1",
                     "--pipeline", str(pipeline), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("n_way", "5"), ("n_way", True), ("seed", 1.5), ("k_shot", 2.0),
        ("pixel_noise", "0.1"), ("shift_strength", False), ("episodes", 2.7),
        ("episodes", "2"), ("episodes", True),
    ])
    def test_mistyped_synth_field_exits_2(self, tmp_path, capsys, field, value):
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps({**SYNTH, "episodes": 2, field: value}))
        code = main(["eval", "--synth", str(synth), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag", ["--synth", "--pipeline"], ids=["synth", "pipeline"])
    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "must be a JSON object, got list"),
        ('"abc"', "must be a JSON object, got str"),
        ("null", "must be a JSON object, got NoneType"),
        ('{"seed": 1,', "not valid JSON"),
    ], ids=["list", "string", "null", "truncated"])
    def test_config_not_an_object_exits_2(self, tmp_path, synth_config, capsys,
                                          flag, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        synth = bad if flag == "--synth" else synth_config
        argv = ["eval", "--synth", str(synth), "--tasks", "1", "--out", str(tmp_path / "r.csv")]
        if flag == "--pipeline":
            argv += ["--pipeline", str(bad)]
        assert main(argv) == 2
        assert f"error: config field '{bad}': {message}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_zero_episodes_exits_2(self, tmp_path, capsys):
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps({**SYNTH, "episodes": 0}))
        assert main(["eval", "--synth", str(synth), "--out", str(tmp_path / "r.csv")]) == 2
        assert "config field 'episodes': must be >= 1" in capsys.readouterr().err

    def test_directory_without_manifests_exits_2(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(["eval", "--episodes", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert f"error: no manifests under {tmp_path / 'empty'}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_single_episode_directory(self, tmp_path, episodes_dir):
        # no */manifest.json below it, so its own manifest*.json files run
        out = tmp_path / "one.csv"
        assert main(["eval", "--episodes", str(episodes_dir / "episode_001"),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("episode_001,")

    def test_every_episode_failed_exits_1(self, tmp_path, episodes_dir, capsys):
        victims = truncate_first_tensors(episodes_dir)
        out = tmp_path / "r.csv"
        assert main(["eval", "--episodes", str(episodes_dir), "--out", str(out)]) == 1
        assert out.read_text().startswith("episode_id,") and out.read_text().count("\n") == 1
        summary = out.with_suffix(".summary.txt").read_text()
        assert "episodes: 0\n" in summary and "failures: 3 of 3\n" in summary
        err = capsys.readouterr().err
        for i, victim in enumerate(victims):
            assert (f"episode #{i} failed: "
                    f"TruncatedError('{victim}: stream ended inside the dims')") in err

    def test_seed_override_reproducible(self, tmp_path, synth_config):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert main(["--seed", "99", "eval", "--synth", str(synth_config),
                         "--tasks", "2", "--out", str(out)]) == 0
            rows = [",".join(line.split(",")[:-1])
                    for line in out.read_text().strip().split("\n")]
            outs.append(rows)
        assert outs[0] == outs[1]


    def test_failed_episode_exits_1(self, tmp_path, episodes_dir, capsys):
        victim = sorted((episodes_dir / "episode_001").glob("*.ftns"))[0]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        out = tmp_path / "r.csv"
        code = main(["eval", "--episodes", str(episodes_dir), "--out", str(out)])
        assert code == 1
        summary = out.with_suffix(".summary.txt").read_text()
        assert "failures: 1 of 3" in summary
        assert len(out.read_text().strip().split("\n")) == 3  # header + 2 episodes
        # the load failed before the stream named the episode: index 1
        err = capsys.readouterr().err
        assert "episode #1 failed: TruncatedError" in err
        assert victim.name in err  # the message names the bad file


class TestAblate:
    def test_grid_table(self, tmp_path, synth_config, capsys):
        out = tmp_path / "ablation.csv"
        code = main(["ablate", "--synth", str(synth_config), "--tasks", "2",
                     "--grid", "tse+cs,tse,baseline", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "variant,mean_accuracy,ci95"
        assert [line.split(",")[0] for line in lines[1:]] == ["tse+cs", "tse", "baseline"]

    def test_failed_episode_exits_1(self, tmp_path, synth_config, capsys, monkeypatch):
        class Flaky(SyntheticTaskStream):
            def episode(self, index):  # episode 1 all zero: no semantic centroids
                eid, ep = super().episode(index)
                if index == 1:
                    ep = Episode(np.zeros_like(ep.images), ep.n_way, ep.k_shot,
                                 ep.query_source_labels, ep.scoring_labels())
                return eid, ep

        monkeypatch.setattr(cli, "SyntheticTaskStream", Flaky)
        out = tmp_path / "ablation.csv"
        code = main(["ablate", "--synth", str(synth_config), "--tasks", "3",
                     "--grid", "tse,baseline", "--out", str(out)])
        assert code == 1
        assert [line.split(",")[0] for line in out.read_text().strip().split("\n")] == [
            "variant", "tse", "baseline"]
        err = capsys.readouterr().err
        assert "tse: episode synth0001 failed: ValueError" in err
        assert "baseline: episode" not in err

    def test_all_failed_row_stays_in_the_table(self, tmp_path, synth_config, capsys,
                                               monkeypatch):
        class AllZero(SyntheticTaskStream):
            def episode(self, index):  # no semantic centroids for any episode
                eid, ep = super().episode(index)
                return eid, Episode(np.zeros_like(ep.images), ep.n_way, ep.k_shot,
                                    ep.query_source_labels, ep.scoring_labels())

        monkeypatch.setattr(cli, "SyntheticTaskStream", AllZero)
        out = tmp_path / "ablation.csv"
        code = main(["ablate", "--synth", str(synth_config), "--tasks", "2",
                     "--grid", "tse,baseline", "--out", str(out)])
        assert code == 1
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "tse,nan,nan"
        assert lines[2].startswith("baseline,") and "nan" not in lines[2]
        err = capsys.readouterr().err
        assert "tse: episode synth0000 failed: ValueError" in err
        assert "tse: episode synth0001 failed: ValueError" in err
        assert "baseline: episode" not in err

    def test_unknown_toggle_exits_2(self, synth_config, tmp_path):
        code = main(["ablate", "--synth", str(synth_config), "--tasks", "1",
                     "--grid", "warp", "--out", str(tmp_path / "x.csv")])
        assert code == 2


def dump(manifest, stage, out, *extra):
    """Run dump for one stage; returns the names of the files it wrote."""
    code = main(["dump", "--episode", str(manifest), "--stage", stage,
                 "--out", str(out), *extra])
    assert code == 0
    return sorted(path.name for path in out.iterdir())


class TestDump:
    def test_semantic_stage(self, tmp_path, episodes_dir):
        from fewshift.engine import PipelineConfig, embed_episode
        from fewshift.feature_store import EpisodeManifest, load_episode

        manifest = sorted(episodes_dir.glob("*/manifest.json"))[0]
        episode = load_episode(EpisodeManifest.load(manifest), manifest.parent)
        pipeline = tmp_path / "raw.json"
        pipeline.write_text(json.dumps({"feature_mode": "raw_local"}))
        n_images = 3 + 3 * 4 * 2  # support + both query sets
        # the quadrant fold halves the 6x6 grid; raw locals keep it
        for mode, extra, grid in (("semantic", [], (3, 3)),
                                  ("raw_local", ["--pipeline", str(pipeline)], (6, 6))):
            out = tmp_path / mode
            assert dump(manifest, "semantic", out, *extra) == ["semantic.ftns"]
            maps = read_tensor_file(out / "semantic.ftns")
            stack = embed_episode(episode, PipelineConfig(feature_mode=mode)).stack
            assert maps.shape[:3] == (n_images, *grid)
            for i, row in enumerate(stack):
                assert np.array_equal(maps[i], row.reshape(*grid, -1).astype(np.float32))

    def test_scores_stage(self, tmp_path, episodes_dir):
        manifest = sorted(episodes_dir.glob("*/manifest.json"))[0]
        out = tmp_path / "scores"
        assert dump(manifest, "scores", out) == ["scores_qs.ftns", "scores_qt.ftns"]
        for name in ("scores_qs.ftns", "scores_qt.ftns"):
            assert read_tensor_file(out / name).shape == (3 * 4, 3)  # queries x classes

    def test_patterns_stage(self, tmp_path, episodes_dir):
        from fewshift.engine import PipelineConfig, embed_episode
        from fewshift.feature_store import EpisodeManifest, load_episode
        from oracles import row_map, similarity_matrix, similarity_pattern

        manifest = sorted(episodes_dir.glob("*/manifest.json"))[0]
        out = tmp_path / "patterns"
        assert dump(manifest, "patterns", out) == ["patterns_qs.ftns", "patterns_qt.ftns"]
        dump(manifest, "scores", out)
        episode = load_episode(EpisodeManifest.load(manifest), manifest.parent)
        emb = embed_episode(episode, PipelineConfig())
        for prefix, query_rows in (("qs", episode.qs_rows), ("qt", episode.qt_rows)):
            patterns = read_tensor_file(out / f"patterns_{prefix}.ftns")
            scores = read_tensor_file(out / f"scores_{prefix}.ftns")
            # queries x classes x folded 3x3 grid
            assert patterns.shape == (len(query_rows), 3, 9)
            for q, row in enumerate(query_rows):
                want = np.vstack([
                    similarity_pattern(similarity_matrix(
                        row_map(emb.stack, row), [row_map(emb.stack, r) for r in group]
                    )).vector
                    for group in episode.support_rows
                ])
                assert np.allclose(patterns[q], want, rtol=0.0, atol=1e-6)
            assert np.allclose(patterns.mean(axis=2), scores, rtol=0.0, atol=1e-6)

    def test_centroids_stage(self, tmp_path, episodes_dir):
        manifest = sorted(episodes_dir.glob("*/manifest.json"))[0]
        out = tmp_path / "cents"
        assert dump(manifest, "centroids", out) == ["centroids.ftns"]
        cents = read_tensor_file(out / "centroids.ftns")
        assert cents.shape[1] == 32

    def test_raw_local_centroids_exit_2(self, tmp_path, episodes_dir, capsys):
        manifest = sorted(episodes_dir.glob("*/manifest.json"))[0]
        pipeline = tmp_path / "raw.json"
        pipeline.write_text(json.dumps({"feature_mode": "raw_local"}))
        code = main(["dump", "--episode", str(manifest), "--stage", "centroids",
                     "--pipeline", str(pipeline), "--out", str(tmp_path / "cents")])
        assert code == 2
        assert "raw_local mode has no centroids" in capsys.readouterr().err
        assert not (tmp_path / "cents").exists()

    def test_unknown_stage_exits_2(self, tmp_path, episodes_dir, capsys):
        manifest = sorted(episodes_dir.glob("*/manifest.json"))[0]
        with pytest.raises(SystemExit) as err:
            main(["dump", "--episode", str(manifest), "--stage", "foo",
                  "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert "centroids" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestRuntimeErrors:
    def test_truncated_tensor_exits_1(self, episodes_dir, capsys):
        manifest = episodes_dir / "episode_000" / "manifest.json"
        victim = sorted(manifest.parent.glob("*.ftns"))[0]
        victim.write_bytes(victim.read_bytes()[:10])
        assert main(["run", "--episode", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {victim}: stream ended inside the dims")

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw.update(n_way=2.9), "n_way must be an integer, got 2.9"),
        (lambda raw: raw.update(k_shot=True), "k_shot must be an integer, got True"),
        (lambda raw: raw.update(n_query="1"), "n_query must be an integer, got '1'"),
        (lambda raw: raw["support"][0].update({"class": 0.7}),
         "support entry 'support_c0_s0.ftns' class must be an integer, got 0.7"),
        (lambda raw: raw["query_source"][0].update({"class": "1"}),
         "query_source entry 'query_source_000.ftns' class must be an integer, got '1'"),
        (lambda raw: raw["query_target"][0].update({"class": False}),
         "query_target entry 'query_target_000.ftns' class must be an integer, got False"),
    ], ids=["n_way", "k_shot", "n_query", "support", "query_source", "query_target"])
    def test_non_integer_manifest_field_exits_1(self, episodes_dir, capsys, edit, message):
        manifest = episodes_dir / "episode_000" / "manifest.json"
        raw = json.loads(manifest.read_text())
        edit(raw)
        manifest.write_text(json.dumps(raw))
        assert main(["run", "--episode", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: {message}\n"

    def test_manifest_error_names_the_file_in_eval(self, episodes_dir, tmp_path, capsys):
        manifest = episodes_dir / "episode_001" / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["n_way"] = 2.9
        manifest.write_text(json.dumps(raw))
        assert main(["--threads", "1", "eval", "--episodes", str(episodes_dir),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert f"{manifest}: n_way must be an integer, got 2.9" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"n_way": 3,}', "not valid JSON: Expecting property name"),
        ("[1, 2]", "must be a JSON object, got list"),
    ], ids=["not-json", "list"])
    def test_bad_manifest_file_named_exits_1(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert main(["run", "--episode", str(manifest)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}: {message}")


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, synth_config, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--synth", str(synth_config), "--bogus", "1",
                  "--out", str(tmp_path / "o.csv")])
        assert err.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_threads_below_one_exits_2(self, synth_config, tmp_path, threads):
        with pytest.raises(SystemExit) as err:
            main(["--threads", threads, "eval", "--synth", str(synth_config),
                  "--out", str(tmp_path / "o.csv")])
        assert err.value.code == 2
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    @pytest.mark.parametrize("tasks", ["0", "-3"])
    def test_tasks_below_one_exits_2(self, synth_config, tmp_path, command, tasks):
        with pytest.raises(SystemExit) as err:
            main([command, "--synth", str(synth_config), "--tasks", tasks,
                  "--out", str(tmp_path / "o.csv")])
        assert err.value.code == 2
        assert list(tmp_path.glob("o.*")) == []

    def test_one_class_config_exits_2(self, tmp_path, capsys):
        # rejected before any episode runs: no output file is written
        synth = tmp_path / "one_class.json"
        synth.write_text(json.dumps({**SYNTH, "n_way": 1, "episodes": 3}))
        assert main(["eval", "--synth", str(synth), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: config field 'n_way': must be >= 2, or no query can be ranked\n"
        )
        assert list(tmp_path.glob("r.*")) == []

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


@pytest.mark.parametrize("command, code, stream, expected", [
    (["eval", "--synth", "{synth}"], 0, "stdout", "failures: 0 of 1"),
    (["ablate", "--grid", "tse,warp", "--synth", "{synth}"], 2, "stderr",
     "unknown toggle 'warp'"),
    (["eval", "--episodes", "{episodes}"], 1, "stderr", "episode #0 failed: TruncatedError("),
], ids=["eval", "unknown-toggle", "every-episode-failed"])
def test_module_exit_codes(tmp_path, command, code, stream, expected):
    # the process exit code is main()'s return value; the one episode
    # under {episodes} fails to load
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({**SYNTH, "episodes": 1}))
    episodes = tmp_path / "episodes"
    assert main(["gen", "--config", str(synth), "--out", str(episodes)]) == 0
    truncate_first_tensors(episodes)
    src = str(Path(fewshift.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "fewshift.cli", "--threads", "1",
            *[arg.format(synth=synth, episodes=episodes) for arg in command],
            "--out", str(tmp_path / "r.csv")]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    assert expected in getattr(done, stream)
