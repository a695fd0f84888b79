"""The benchmark wraps pipeline entry points by module and name; these
tests fail when a rename or removal would leave one of them dangling."""

import ast
import importlib
from pathlib import Path

import numpy as np

from fewshift import numkit, semantic
from fewshift.rng import SplitMix64
from fewshift.selftrain import ConfidenceRule, PrototypeSet, promote_and_reclassify
from fewshift.semantic import SemanticFeatureMap

RUNNER = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def wrap_targets():
    """(module, attribute) of every t.wrap(<module>, "<attr>", ...) call."""
    targets = []
    for node in ast.walk(ast.parse(RUNNER.read_text())):
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


def test_every_wrapped_entry_point_resolves():
    targets = wrap_targets()
    assert len(targets) >= 10
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"fewshift.{module}"), attr, None))
    ]
    assert missing == []


def test_self_training_result_fields():
    # the benchmark counts rounds and promotions from these; each query
    # matches its own class exactly, so both are promoted in round 1 and
    # round 2 repeats the selection
    maps = [SemanticFeatureMap(np.eye(2)[[c]], 1, 1) for c in (0, 1)]
    protos = PrototypeSet.from_support([[m] for m in maps])
    result = promote_and_reclassify(maps, protos, ConfidenceRule())
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
