"""fewshift benchmark: paired episode workloads driven through engine.evaluate.

    python3 perfbench/run.py --workload chain-full [--seed 20230] \
        [--seconds 30] [--trace 0|1]

One caller runs a closed loop: it calls ``engine.evaluate`` on a
benchmark-owned task stream of EPISODES finished episodes and calls it
again until ``--seconds`` have passed.  The episodes are generated in
set-up from ``--seed``, so the program only ever receives finished
episodes; every workload sees the same byte-identical stream.

Every pass is checked.  A seed recorded in reference.json is held to its
reference; any other seed selects its own stream, whose passes must agree
with each other and with the benchmark's own scoring, and the run ends
with an untimed pass on the DEFAULT_SEED stream held to its reference.

``--trace 0`` reports the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced passes; the traced ones wrap
each layer's public entry points (see tracing.py) and the run reports
per-episode medians of each layer's time and counts.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
same metrics plus sample counts and provenance.  See README.md.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()

# Pin BLAS and OpenMP to one thread before numpy is imported: the only
# parallelism a workload has is its own evaluate(threads=...).
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import scipy
    import fewshift
    from fewshift import alignment, engine, feature_store, patterns, selftrain, semantic
    from fewshift.feature_store import EpisodeManifest, ManifestEntry
    from fewshift.synthgen import SynthConfig
except ImportError as exc:
    sys.exit(f"perfbench: cannot import fewshift from {SRC}: {exc}")
if Path(fewshift.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: fewshift was imported from {fewshift.__file__}, not {SRC}")

IMPORTED = time.perf_counter()

DEFAULT_SEED = 20230
HELD_OUT_SEED = 40231          # for claim checks only; see README.md, Seeds
EPISODES = 12                  # episodes per evaluate call (one pass)
SETUP_REPEATS = 3
# the acceptance config: 5-way 1-shot, 15+15 queries, 10x10x64, shift 0.6
SYNTH = {
    "n_way": 5, "k_shot": 1, "n_query": 15, "height": 10, "width": 10,
    "channels": 64, "parts_per_class": 2, "part_noise": 0.05,
    "pixel_noise": 0.15, "shift_strength": 0.6, "distractor_rate": 0.2,
}
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    name: str
    toggles: frozenset      # ablation toggles, see engine.config_for_toggles
    threads: int            # evaluate(threads=...), capped by usable cpus
    disk: bool              # episodes go through FTNS files and manifests

    def config(self) -> engine.PipelineConfig:
        return engine.config_for_toggles(engine.PipelineConfig(), set(self.toggles))

    def evaluate_threads(self) -> int:
        return max(1, min(self.threads, len(os.sched_getaffinity(0))))


WORKLOADS = {
    w.name: w
    for w in (
        # PipelineConfig() defaults: semantic features, warm-start chain,
        # self-training; the chain forces a serial run
        Workload("chain-full", frozenset({"tse", "catt", "cs"}), 1, False),
        # raw locals plus self-training on the thread pool; no clustering
        Workload("raw-threads", frozenset({"cs"}), 2, False),
        # the baseline row, loaded from disk through ManifestTaskStream; on
        # two threads, since a serial run follows the load on the one core
        # it happens to run on (see README.md)
        Workload("disk-baseline", frozenset(), 2, True),
    )
}


@dataclass
class Source:
    """Finished episodes of one run, in memory or on disk."""

    ids: list[str]
    labels: list[tuple[int, ...]]     # quarantined target labels, for scoring
    fetch: Callable[[int], tuple]     # index -> (episode id, Episode)
    descriptor: str
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass  # another run still holds a directory there


class BenchStream:
    """The TaskStream handed to evaluate.

    Stamps the time each episode is requested and loaded, per thread: an
    episode's latency, loading included, runs from its request to the
    next request on the same thread.  Nothing outside the program sees a
    thread's last episode end (on a thread-pool run, evaluate returns
    only when the other worker is done too), so that one is its load
    time plus the episode's own ``wall_ms`` from its report.
    """

    def __init__(self, source: Source, tracer: Tracer | None = None):
        self.source = source
        self.tracer = tracer
        self.requests: list[tuple[int, float, float, int]] = []

    def episode(self, index: int):
        requested = time.perf_counter()
        if self.tracer is not None:
            self.tracer.enter_episode(index)
        out = self.source.fetch(index)
        self.requests.append((threading.get_ident(), requested, time.perf_counter(), index))
        return out

    def descriptor(self) -> str:
        return self.source.descriptor

    def latencies_ms(self, wall_ms: dict[int, float]) -> list[float]:
        """Latencies of the episodes; wall_ms maps index to report.wall_ms."""
        per_thread: dict[int, list[tuple[float, float, int]]] = {}
        for ident, requested, loaded, index in self.requests:
            per_thread.setdefault(ident, []).append((requested, loaded, index))
        out = []
        for stamps in per_thread.values():
            stamps.sort()
            out += [(b[0] - a[0]) * 1e3 for a, b in zip(stamps, stamps[1:])]
            requested, loaded, index = stamps[-1]
            if index in wall_ms:  # a failed episode has no report
                out.append((loaded - requested) * 1e3 + wall_ms[index])
        return out


def generate(seed: int, tracer: Tracer | None = None) -> list:
    """EPISODES episodes of the synthetic stream with base seed `seed`."""
    stream = engine.SyntheticTaskStream(SynthConfig(seed=seed, **SYNTH))
    episodes = []
    for i in range(EPISODES):
        if tracer is not None:
            tracer.enter_episode(i)
        episodes.append(stream.episode(i))
    return episodes


def write_episode(episode, out_dir: Path) -> Path:
    """FTNS files plus manifest.json for one episode; returns the manifest."""
    out_dir.mkdir(parents=True)

    def entries(arrays, labels, stem, domain):
        out = []
        for i, (arr, label) in enumerate(zip(arrays, labels)):
            name = f"{stem}_{i:03d}.ftns"
            feature_store.write_tensor_file(arr, out_dir / name)
            out.append(ManifestEntry(name, int(label), domain))
        return tuple(out)

    support = [arr for group in episode.support for arr in group]
    support_labels = [c for c, group in enumerate(episode.support) for _ in group]
    h, w, d = episode.grid
    manifest = EpisodeManifest(
        n_way=episode.n_way, k_shot=episode.k_shot, n_query=SYNTH["n_query"],
        height=h, width=w, channels=d,
        support=entries(support, support_labels, "support", "source"),
        query_source=entries(
            episode.query_source, episode.query_source_labels, "query_source", "source"
        ),
        query_target=entries(
            episode.query_target, episode.scoring_labels(), "query_target", "target"
        ),
    )
    path = out_dir / "manifest.json"
    manifest.save(path)
    return path


def make_source(workload: Workload, episodes: list, workdir: Path,
                tracer: Tracer | None = None) -> Source:
    ids = [eid for eid, _ in episodes]
    labels = [ep.scoring_labels() for _, ep in episodes]
    if not workload.disk:
        return Source(ids, labels, episodes.__getitem__, "perfbench:" + ",".join(ids))
    paths = []
    for i, (eid, ep) in enumerate(episodes):
        if tracer is not None:
            tracer.enter_episode(i)
        paths.append(write_episode(ep, workdir / eid))
    stream = engine.ManifestTaskStream(paths)
    return Source(ids, labels, stream.episode, stream.descriptor(), workdir)


def set_up(workload: Workload, seed: int, tracer: Tracer | None = None):
    """Generate (and for disk, write) the episodes SETUP_REPEATS times.

    Returns the last source and the median set-up time in seconds.
    """
    times = []
    source = None
    for r in range(SETUP_REPEATS):
        if source is not None:
            source.close()
        if tracer is not None:
            tracer.pass_label = f"setup{r}"
        workdir = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}-{r}"
        start = time.perf_counter()
        source = make_source(workload, generate(seed, tracer), workdir, tracer)
        times.append(time.perf_counter() - start)
    return source, statistics.median(times)


@dataclass
class Pass:
    """Outputs and timings of one evaluate call."""

    label: str
    traced: bool
    wall_s: float
    latencies_ms: list[float]
    predictions: list[str | None]    # digest per episode index; None if it failed
    accuracy: float | None           # RunReport.mean_accuracy, None if any failed
    scored: float | None             # the same, scored here from the predictions
    losses: list[float]              # l_cls, l_sfa, l_spa, l_clm summed over episodes
    stream: str                      # digest of the episodes' content hashes
    errors: list[str] = field(default_factory=list)
    failed: int = 0                  # failures plus reference mismatches

    @property
    def digest(self) -> str:
        joined = "|".join(p if p is not None else "-" for p in self.predictions)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]


def stream_digest(episode_hashes) -> str:
    return hashlib.sha256("".join(episode_hashes).encode()).hexdigest()[:16]


def run_pass(workload: Workload, source: Source, label: str,
             tracer: Tracer | None = None) -> Pass:
    cfg = workload.config()
    threads = workload.evaluate_threads()
    stream = BenchStream(source, tracer)
    if tracer is not None:
        tracer.pass_label = label
        install_pipeline_spans(tracer)
    try:
        start = time.perf_counter()
        try:
            report = engine.evaluate(stream, EPISODES, cfg, threads)
        except RuntimeError as exc:  # evaluate raises this when every episode failed
            end = time.perf_counter()
            return Pass(label, tracer is not None, end - start, [], [None] * EPISODES,
                        None, None, [math.nan] * 4, "", [repr(exc)], EPISODES)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.remove()
    by_id = {r.episode_id: r for r in report.reports}
    done = [by_id.get(eid) for eid in source.ids]
    predictions = [
        hashlib.sha256(np.asarray(r.predictions, dtype="<i8").tobytes()).hexdigest()[:12]
        if r is not None else None
        for r in done
    ]
    losses = [
        math.fsum(getattr(r, name) for r in report.reports)
        for name in ("l_cls", "l_sfa", "l_spa", "l_clm")
    ]
    scored = None
    if not report.failures:
        scored = float(np.mean([
            score(r.predictions, labels)
            for r, labels in zip(done, source.labels)
        ]))
    wall_ms = {i: r.wall_ms for i, r in enumerate(done) if r is not None}
    return Pass(
        label, tracer is not None, end - start,
        stream.latencies_ms(wall_ms), predictions,
        report.mean_accuracy if not report.failures else None, scored, losses,
        stream_digest(r.episode_hash for r in report.reports),
        [f"{eid}: {msg}" for eid, msg in report.failures], len(report.failures),
    )


def score(predictions, labels) -> float:
    """Accuracy of one episode's predictions; nan if any is not a class."""
    pred = np.asarray(predictions)
    if pred.shape != (len(labels),) or not np.isin(pred, range(SYNTH["n_way"])).all():
        return math.nan
    return float((pred == np.asarray(labels)).mean())


# --- correctness gate -------------------------------------------------------

def load_reference() -> dict:
    refs = json.loads(REFERENCE.read_text())
    if refs["synth"] != SYNTH or refs["episodes"] != EPISODES:
        sys.exit("perfbench: reference.json was recorded for another stream definition")
    return refs


def check_scoring(p: Pass) -> None:
    """Fail a pass whose reported accuracy is not that of its predictions."""
    if p.failed or math.isclose(p.accuracy, p.scored, rel_tol=1e-12):
        return
    p.errors.append(f"accuracy {p.accuracy!r}, scored from the predictions {p.scored!r}")
    p.failed = EPISODES


def check_agreement(passes: list[Pass], rtol: float) -> None:
    """Fail every pass whose outputs differ from the first pass's."""
    first = passes[0]
    for p in passes[1:]:
        if p.failed or first.failed:
            continue
        if p.digest != first.digest:
            p.errors.append(f"predictions of {'a traced' if p.traced else 'an'} "
                            "pass differ from the first pass")
        elif not all(math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)
                     for a, b in zip(p.losses, first.losses)):
            p.errors.append(f"losses {p.losses} differ from the first pass {first.losses}")
        else:
            continue
        p.failed = EPISODES


def gate(p: Pass, expected: dict, stream: str, rtol: float) -> None:
    """Count the episodes of a pass that failed or differ from the reference."""
    mismatched = sum(
        1 for got, want in zip(p.predictions, expected["predictions"])
        if got is not None and got != want
    )
    if mismatched:
        p.errors.append(f"predictions of {mismatched} episodes differ from the reference")
    p.failed += mismatched
    if p.failed:
        return
    if p.stream != stream:
        p.errors.append(f"episode stream {p.stream}, reference {stream}")
    elif p.accuracy != expected["accuracy"]:
        p.errors.append(f"accuracy {p.accuracy!r}, reference {expected['accuracy']!r}")
    elif not all(
        math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12)
        for got, want in zip(p.losses, expected["losses"])
    ):
        p.errors.append(f"losses {p.losses}, reference {expected['losses']}")
    else:
        return
    p.failed = EPISODES  # a pass-level mismatch cannot be pinned to one episode


# --- traced run ---------------------------------------------------------------

def install_pipeline_spans(t: Tracer) -> None:
    """Wrap each layer entry point in the namespace that calls it."""
    t.wrap(engine, "forward_episode", "engine.forward_episode")
    t.wrap(engine, "load_episode", "feature_store.load_episode")
    t.wrap(feature_store, "read_tensor_file", "feature_store.read_tensor_file",
           lambda a, k, r: {"bytes": 6 + 4 * r.ndim + 4 * r.size})
    t.wrap(semantic, "select_cluster_count", "semantic.select_cluster_count",
           lambda a, k, r: {"k": r})
    t.wrap(semantic, "cluster_task", "semantic.cluster_task")
    t.wrap(semantic, "farthest_first_init", "numkit.farthest_first_init")
    t.wrap(semantic, "kmeans", "numkit.kmeans", lambda a, k, r: {"iters": r.iterations})
    t.wrap(semantic, "semantic_map", "semantic.semantic_map")
    t.wrap(semantic, "block_split_concat", "semantic.block_split_concat")
    t.wrap(patterns, "score_set", "patterns.score_set")
    t.wrap(selftrain, "score_set", "patterns.score_set")
    t.wrap(selftrain, "promote_and_reclassify", "selftrain.promote_and_reclassify",
           lambda a, k, r: {"rounds": r.rounds_used, "promoted": r.confident_count,
                            "confident": r.confident})
    t.wrap(selftrain, "class_matching_loss", "selftrain.class_matching_loss")
    t.wrap(alignment, "sfa_loss", "alignment.sfa_loss")
    t.wrap(alignment, "spa_loss", "alignment.spa_loss", lambda a, k, r: {"skipped": r[1]})


def install_setup_spans(t: Tracer) -> None:
    t.wrap(engine, "generate_episode", "synthgen.generate_episode")
    t.wrap(feature_store, "write_tensor_file", "feature_store.write_tensor_file")


# metric -> (span names, measure); measure is "total" or "self" time in ms,
# "calls", or a count key the span recorded
SETUP_METRICS = {
    "synthgen.generate_ms": (("synthgen.generate_episode",), "total"),
    "feature_store.write_ms": (("feature_store.write_tensor_file",), "total"),
}
PIPELINE_METRICS = {
    "feature_store.load_ms": (("feature_store.load_episode",), "total"),
    "feature_store.bytes_read": (("feature_store.read_tensor_file",), "bytes"),
    "semantic.select_k_ms": (("semantic.select_cluster_count",), "total"),
    "semantic.k": (("semantic.select_cluster_count",), "k"),
    "semantic.cluster_self_ms": (("semantic.cluster_task",), "self"),
    "numkit.kmeans_ms": (("numkit.kmeans",), "total"),
    "numkit.kmeans_iters": (("numkit.kmeans",), "iters"),
    "numkit.init_ms": (("numkit.farthest_first_init",), "total"),
    "semantic.embed_ms": (("semantic.semantic_map", "semantic.block_split_concat"), "total"),
    "patterns.score_set_ms": (("patterns.score_set",), "total"),
    "patterns.score_set_calls": (("patterns.score_set",), "calls"),
    "selftrain.promote_self_ms": (("selftrain.promote_and_reclassify",), "self"),
    "selftrain.rounds": (("selftrain.promote_and_reclassify",), "rounds"),
    "selftrain.promoted": (("selftrain.promote_and_reclassify",), "promoted"),
    "selftrain.clm_self_ms": (("selftrain.class_matching_loss",), "self"),
    "alignment.sfa_ms": (("alignment.sfa_loss",), "total"),
    "alignment.spa_ms": (("alignment.spa_loss",), "total"),
    "alignment.spa_skipped": (("alignment.spa_loss",), "skipped"),
    "engine.self_ms": (("engine.forward_episode",), "self"),
}


def _measure(spans, names, measure) -> float:
    chosen = [s for s in spans if s.name in names]
    if measure == "total":
        return sum(s.total_s for s in chosen) * 1e3
    if measure == "self":
        return sum(s.self_s for s in chosen) * 1e3
    if measure == "calls":
        return float(len(chosen))
    return float(sum(s.counts[measure] for s in chosen))


def _unit(measure: str) -> str:
    if measure in ("total", "self"):
        return "ms"
    return "bytes" if measure == "bytes" else "count"


def layer_metrics(tracer: Tracer, setup_labels, traced_labels, labels, overhead_ms) -> dict:
    """Per-episode medians of each layer's time and counts."""
    out = {}
    traced = tracer.per_episode(traced_labels)
    for table, episodes in ((SETUP_METRICS, tracer.per_episode(setup_labels)),
                            (PIPELINE_METRICS, traced)):
        for metric, (names, measure) in table.items():
            value = statistics.median(_measure(s, names, measure) for s in episodes.values())
            out[metric] = {"value": value, "unit": _unit(measure)}
    promoted = hits = 0
    for (_, index), spans in traced.items():
        for s in spans:
            if s.name == "selftrain.promote_and_reclassify":
                for c, ids in enumerate(s.counts["confident"]):
                    promoted += len(ids)
                    hits += sum(1 for q in ids if labels[index][q] == c)
    out["selftrain.promotion_precision"] = {
        "value": hits / promoted if promoted else 0.0, "unit": "ratio",
    }
    out["trace.overhead_ms"] = {"value": overhead_ms, "unit": "ms"}
    return out


# --- provenance ---------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if one is loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    })
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fewshift").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload: Workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "evaluate_threads": workload.evaluate_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fewshift": fewshift.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


# --- the run ----------------------------------------------------------------

def reference_pass(workload: Workload, refs: dict) -> Pass:
    """One untimed pass on the DEFAULT_SEED stream, held to its reference."""
    expected = refs["seeds"][str(DEFAULT_SEED)]
    workdir = WORK_ROOT / f"{workload.name}-check-{os.getpid()}"
    source = make_source(workload, generate(DEFAULT_SEED), workdir)
    try:
        p = run_pass(workload, source, "check")
    finally:
        source.close()
    check_scoring(p)
    gate(p, expected[workload.name], expected["stream"], refs["loss_rtol"])
    return p


def measure(workload: Workload, source: Source, seconds: float,
            tracer: Tracer | None) -> list[Pass]:
    """Closed loop: one evaluate call after another for `seconds`.

    With a tracer, even passes run untraced and odd passes traced.
    """
    passes: list[Pass] = []
    least = 2 if tracer is not None else 1
    start = time.perf_counter()
    while len(passes) < least or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(workload, source, f"p{len(passes)}",
                               tracer if traced else None))
    return passes


def end_to_end_metrics(clean: list[Pass], setup_s: float, peak_rss_mb: float) -> dict:
    latencies = [x for p in clean for x in p.latencies_ms]
    p50, p90 = np.percentile(latencies, [50, 90])
    return {
        "episodes_per_s": {"value": EPISODES * len(clean) / math.fsum(p.wall_s for p in clean),
                           "unit": "1/s"},
        "episode_ms_p50": {"value": float(p50), "unit": "ms"},
        "episode_ms_p90": {"value": float(p90), "unit": "ms"},
        "accuracy": {"value": clean[0].accuracy, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    refs = load_reference()
    expected = refs["seeds"].get(str(args.seed))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_setup_spans(tracer)
    try:
        source, setup_median = set_up(workload, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    setup_s = (IMPORTED - PROCESS_START) + setup_median
    try:
        passes = measure(workload, source, args.seconds, tracer)
    finally:
        source.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for p in passes:
        check_scoring(p)
        if expected is not None:
            gate(p, expected[workload.name], expected["stream"], refs["loss_rtol"])
    # every pass, traced or not, must compute the same outputs
    check_agreement(passes, refs["loss_rtol"])
    # a seed without a reference of its own is backed by one on DEFAULT_SEED
    check = reference_pass(workload, refs) if expected is None else None
    checked = passes + ([check] if check is not None else [])
    attempted = EPISODES * len(checked)
    failed = sum(p.failed for p in checked)
    for err in sorted({err for p in checked for err in p.errors})[:5]:
        print(f"perfbench: {err}", file=sys.stderr)
    if check is not None and check.failed:
        print(f"perfbench: the check pass on seed {DEFAULT_SEED} differs from the "
              "reference; no speed is reported", file=sys.stderr)
        return 1
    clean = [p for p in passes if p.failed == 0]
    if {p.traced for p in clean} != ({False, True} if tracer else {False}):
        print(f"perfbench: {failed} of {attempted} episodes failed or differ from "
              "the reference, in every pass of a kind; no speed is reported",
              file=sys.stderr)
        return 1

    if tracer is None:
        metrics = end_to_end_metrics(clean, setup_s, peak_rss_mb)
    else:
        untraced = [x for p in clean if not p.traced for x in p.latencies_ms]
        traced = [x for p in clean if p.traced for x in p.latencies_ms]
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics = layer_metrics(
            tracer, {f"setup{r}" for r in range(SETUP_REPEATS)},
            {p.label for p in clean if p.traced}, source.labels, overhead,
        )
    print(json.dumps({
        "workload": workload.name, "seed": args.seed,
        "checked_against": (f"reference for seed {args.seed}" if expected is not None
                            else f"reference for seed {DEFAULT_SEED}, one check pass"),
        "trace": args.trace, "passes": len(passes),
        "latency_samples": sum(len(p.latencies_ms) for p in clean if not p.traced),
        "failed_frac": failed / attempted, "predictions_digest": passes[0].digest,
        "provenance": provenance(workload), "metrics": metrics,
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
