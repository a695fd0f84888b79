"""The benchmark wraps pipeline entry points by module and name; these
tests fail when a rename or removal would leave one of them dangling."""

import ast
import importlib
import json
from pathlib import Path

import numpy as np

from fewshift import numkit, selftrain, semantic
from fewshift.cli import main
from fewshift.engine import ManifestTaskStream, PipelineConfig, evaluate, forward_episode
from fewshift.patterns import PooledBlocks
from fewshift.rng import SplitMix64
from fewshift.selftrain import promote_and_reclassify
from fewshift.synthgen import SynthConfig, generate_episode

RUNNER = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
# the acceptance stream of the benchmark: 5-way 1-shot, 15+15 queries,
# 10x10x64, shift 0.6
STREAM = {
    "seed": 20230, "n_way": 5, "k_shot": 1, "n_query": 15, "height": 10, "width": 10,
    "channels": 64, "parts_per_class": 2, "part_noise": 0.05, "pixel_noise": 0.15,
    "shift_strength": 0.6, "distractor_rate": 0.2,
}


def wrap_targets(tree=None):
    """(module, attribute) of every t.wrap(<module>, "<attr>", ...) call
    under tree, the whole runner by default."""
    targets = []
    for node in ast.walk(tree or ast.parse(RUNNER.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
        ):
            targets.append((node.args[0].id, node.args[1].value))
    return targets


def pipeline_wrap_targets():
    """The targets the traced run wraps around each episode."""
    tree = ast.parse(RUNNER.read_text())
    install = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "install_pipeline_spans"
    )
    return wrap_targets(install)


def test_every_wrapped_entry_point_resolves():
    targets = wrap_targets()
    assert len(targets) >= 10
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"fewshift.{module}"), attr, None))
    ]
    assert missing == []


def test_every_pipeline_span_is_reached(tmp_path, monkeypatch):
    # each entry point the traced run wraps, in the namespace it wraps it
    # in, must be called by one default episode read from disk; a call
    # that bypasses that namespace would leave its span empty
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({**STREAM, "episodes": 1}))
    assert main(["gen", "--config", str(synth), "--out", str(tmp_path / "eps")]) == 0
    calls = {}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapper

    targets = pipeline_wrap_targets()
    assert len(targets) >= 10
    for module, attr in targets:
        namespace = importlib.import_module(f"fewshift.{module}")
        name = f"{module}.{attr}"
        monkeypatch.setattr(namespace, attr, counted(name, getattr(namespace, attr)))
    stream = ManifestTaskStream(sorted((tmp_path / "eps").glob("*/manifest.json")))
    report = evaluate(stream, 1, PipelineConfig())
    assert report.failures == []
    assert [f"{m}.{a}" for m, a in targets if f"{m}.{a}" not in calls] == []


def test_confident_ids_are_query_positions(monkeypatch):
    # the benchmark's promotion precision indexes the target labels with
    # SelfTrainResult.confident, so it must hold query positions, not
    # stack rows
    results = []
    real = selftrain.promote_and_reclassify

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(selftrain, "promote_and_reclassify", recording)
    episode, _ = generate_episode(SynthConfig(**STREAM))
    forward_episode(episode, PipelineConfig())
    n_query = len(episode.query_target)
    (result,) = results
    ids = [q for per_class in result.confident for q in per_class]
    assert ids and all(0 <= q < n_query for q in ids)
    assert result.confident_count == len(ids)


def test_self_training_result_fields():
    # the benchmark counts rounds and promotions from these; each query
    # matches its own class exactly, so both are promoted in round 1 and
    # round 2 repeats the selection
    stack = np.eye(2)[:, None, :]  # two one-position images
    result = promote_and_reclassify(PooledBlocks(stack, [0, 1]), [[0], [1]])
    assert result.rounds_used == 1
    assert result.confident_count == 2
    assert result.confident == [[0], [1]]


def test_kmeans_hook():
    # numkit.kmeans_ms and numkit.kmeans_iters wrap semantic.kmeans and
    # read the iteration count off its result
    assert semantic.kmeans is numkit.kmeans
    points = np.random.default_rng(0).normal(size=(40, 3))
    init = numkit.farthest_first_init(points, 3, SplitMix64(1))
    result = semantic.kmeans(points, 3, init)
    assert isinstance(result.iterations, int) and result.iterations >= 1
