"""Per-episode pipeline orchestration, suite evaluation, and ablation.

run_episode wires the stages together: cluster-count selection, task
clustering (optionally warm-started from the previous task's centroids),
semantic projection and quadrant fold, pattern scoring, cross-domain
self-training, and the four loss terms combined as

    total = l_cls + lambda_sfa * l_sfa + lambda_spa * l_spa + lambda_clm * l_clm

Nothing is trained; losses are outputs.  Predictions are produced by a
label-blind forward pass and only afterwards scored against the
episode's quarantined target labels.

evaluate (one config) and ablate (a grid of them) share one loop: each
episode is fetched and hashed once, on the thread that runs it, and
every config runs on that one Episode, a chained one on its own history.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from . import alignment, patterns, selftrain, semantic
from .errors import ConfigError, check_field_types, read_config, require_object
from .feature_store import Episode, EpisodeManifest, load_episode
from .numkit import squared_norms
from .rng import derive_seed
from .synthgen import SynthConfig, generate_episode

FEATURE_MODES = ("semantic", "raw_local")
CSV_COLUMNS = (
    "episode_id", "accuracy", "l_cls", "l_sfa", "l_spa", "l_clm",
    "total", "k", "rounds", "confident_count", "spa_skipped", "wall_ms",
)


@dataclass(frozen=True)
class PipelineConfig:
    lambda_sfa: float = 0.1
    lambda_spa: float = 0.05
    lambda_clm: float = 0.01
    use_catt: bool = True
    self_training: bool = True
    feature_mode: str = "semantic"

    def __post_init__(self):
        check_field_types(self)
        for name in ("lambda_sfa", "lambda_spa", "lambda_clm"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be >= 0")
        if self.feature_mode not in FEATURE_MODES:
            raise ConfigError("feature_mode", f"must be one of {FEATURE_MODES}")

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(require_object(raw, cls.__name__)) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_config(path))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class EpisodeReport:
    """One episode's outputs.  forward_episode fills the fields through
    centroids (the next task's warm start, None for raw locals),
    run_episode stamps the id, accuracy and wall_ms once the predictions
    are scored, and evaluate and ablate stamp the episode_hash."""

    predictions: np.ndarray
    l_cls: float
    l_sfa: float
    l_spa: float
    l_clm: float
    total: float
    k: int
    rounds: int
    confident_per_class: list[int]
    spa_skipped: int
    centroids: np.ndarray | None
    episode_id: str = ""
    accuracy: float = math.nan
    wall_ms: float = math.nan
    episode_hash: str = ""

    @property
    def confident_count(self) -> int:
        return sum(self.confident_per_class)

    def csv_row(self) -> list[str]:
        """The CSV_COLUMNS fields: counts as ints, the rest as float reprs."""
        counts = ("k", "rounds", "confident_count", "spa_skipped")
        return [self.episode_id] + [
            str(getattr(self, c)) if c in counts else repr(float(getattr(self, c)))
            for c in CSV_COLUMNS[1:]
        ]


class EpisodeEmbedding(NamedTuple):
    """An episode's images embedded in one stack, row for row of episode.images."""

    stack: np.ndarray               # (n, positions, channels)
    k: int                          # 0 for raw locals
    centroids: np.ndarray | None    # (k, d), None for raw locals


def embed_episode(
    episode: Episode,
    cfg: PipelineConfig,
    history: np.ndarray | None = None,
) -> EpisodeEmbedding:
    """Embed every image into one stack, row for row of episode.images.

    The locals the clustering sees are views of the raw stack, and their
    squared norms are computed once, for both K-means sides and the
    cosines.  The semantic embedding is one cosine product over the stack
    followed by one quadrant fold.  Raw-local mode keeps the raw locals,
    (n, h * w, d).
    """
    h, w, d = episode.grid
    raw = episode.images.astype(np.float64)  # (n, h, w, d)

    if cfg.feature_mode == "raw_local":
        stack, k, cents = raw.reshape(len(raw), h * w, d), 0, None
    else:
        all_locals = raw.reshape(-1, d)
        sq_norms = squared_norms(all_locals)
        k = semantic.select_cluster_count(all_locals, k_max=min(d // 2, 64))
        warm = history if cfg.use_catt else None
        split = (len(raw) - len(episode.qt_rows)) * h * w  # source side, then target
        cents = semantic.cluster_task(
            all_locals[:split], all_locals[split:], k, warm,
            sq_norms=(sq_norms[:split], sq_norms[split:]),
        )
        stack = semantic.block_split_concat(semantic.semantic_map(raw, cents, sq_norms))
    return EpisodeEmbedding(stack, k, cents)


def forward_episode(
    episode: Episode,
    cfg: PipelineConfig,
    history: np.ndarray | None = None,
) -> EpisodeReport:
    """Label-blind pass: embeddings, losses, and target predictions.

    Target labels are untouched; scoring happens in run_episode.  Each
    query set keeps one PooledBlocks cache for the whole episode, so
    self-training, L_clm and L_spa only gather blocks already pooled.
    Every row runs promote_and_reclassify; with self_training off its
    budget is zero rounds, so the round-0 table is the final one.
    """
    emb = embed_episode(episode, cfg, history)

    # the source-query cache is dropped after one table; only its patterns
    # are needed later
    qs_table = patterns.score_set(
        patterns.PooledBlocks(emb.stack, episode.qs_rows), episode.support_rows
    )
    l_cls = patterns.cross_entropy(qs_table.scores, episode.query_source_labels)
    result = selftrain.promote_and_reclassify(
        patterns.PooledBlocks(emb.stack, episode.qt_rows), episode.support_rows,
        max_rounds=selftrain.MAX_ROUNDS if cfg.self_training else 0,
    )

    # the final table scores the target queries against the final prototypes
    l_clm = selftrain.class_matching_loss(result.table)
    l_sfa = alignment.sfa_loss(
        patterns.take_rows(emb.stack, episode.qs_rows),
        patterns.take_rows(emb.stack, episode.qt_rows),
    )

    # pattern alignment uses the support-based (round-0) patterns on both
    # sides so the per-class vectors share one length
    l_spa, skipped = alignment.spa_loss(qs_table.patterns, result.initial.patterns)
    total = l_cls + cfg.lambda_sfa * l_sfa + cfg.lambda_spa * l_spa + cfg.lambda_clm * l_clm
    return EpisodeReport(
        result.table.predictions, l_cls, l_sfa, l_spa, l_clm, total, emb.k, result.rounds_used,
        [len(ids) for ids in result.confident], skipped, emb.centroids,
    )


def run_episode(
    episode: Episode,
    cfg: PipelineConfig,
    history: np.ndarray | None = None,
    episode_id: str = "0",
) -> EpisodeReport:
    """Forward pass plus scoring; report.centroids is what the next task
    may warm-start from."""
    start = time.perf_counter()
    report = forward_episode(episode, cfg, history)
    labels = np.asarray(episode.scoring_labels())
    report.episode_id = episode_id
    report.accuracy = float((report.predictions == labels).mean())
    report.wall_ms = (time.perf_counter() - start) * 1e3
    return report


class TaskStream(Protocol):
    """Random-access source of episodes for a run."""

    def episode(self, index: int) -> tuple[str, Episode]: ...

    def descriptor(self) -> str: ...


class SyntheticTaskStream:
    """Episodes generated on demand; episode i uses seed base ^ i."""

    def __init__(self, base: SynthConfig):
        self.base = base

    def episode(self, index: int) -> tuple[str, Episode]:
        cfg = replace(self.base, seed=derive_seed(self.base.seed, index))
        ep, _ = generate_episode(cfg)
        return f"synth{index:04d}", ep

    def descriptor(self) -> str:
        return "synth:" + json.dumps(self.base.to_dict(), sort_keys=True)


class ManifestTaskStream:
    """Episodes loaded from manifest files on disk."""

    def __init__(self, manifest_paths: Sequence[str | Path]):
        self.paths = [Path(p) for p in manifest_paths]

    def __len__(self) -> int:
        return len(self.paths)

    def episode(self, index: int) -> tuple[str, Episode]:
        path = self.paths[index]
        ep = load_episode(EpisodeManifest.load(path), path.parent)
        name = path.parent.name if path.name == "manifest.json" else path.stem
        return name or path.stem, ep

    def descriptor(self) -> str:
        return "manifests:" + ",".join(str(p) for p in self.paths)


@dataclass
class RunReport:
    reports: list[EpisodeReport]
    mean_accuracy: float
    ci95: float
    fingerprint: str
    failures: list[tuple[str, str]]

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(r.csv_row()) for r in self.reports]
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = [
            f"episodes: {len(self.reports)}",
            f"mean_accuracy: {self.mean_accuracy:.4f}",
            f"ci95_half_width: {self.ci95:.4f}",
            f"fingerprint: {self.fingerprint}",
            f"failures: {len(self.failures)} of {len(self.reports) + len(self.failures)}",
        ]
        return "\n".join(lines) + "\n"


@functools.cache
def _source_digest() -> str:
    """sha256 of the package's Python sources, computed once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _fingerprint(cfg: PipelineConfig, descriptor: str, n_tasks: int) -> str:
    """Names the config, the episode stream and the code version."""
    from . import __version__  # set by the package after it imports this module

    blob = json.dumps(
        {
            "config": cfg.to_dict(), "stream": descriptor, "tasks": n_tasks,
            "version": __version__, "source": _source_digest(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _run(stream: TaskStream, n_tasks: int, configs: list, threads: int) -> list[RunReport]:
    """One RunReport per config (row).  Episodes fan out over threads
    unless a row chains centroids; a failed fetch fails every row."""
    if not configs:
        return []
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    _keep_freed_heap()
    # first, so the first call's one-time work (reading the sources for the
    # digest) is not carved out of the heap the episodes free on the way
    fingerprints = [_fingerprint(cfg, stream.descriptor(), n_tasks) for cfg in configs]
    histories = {r: None for r, cfg in enumerate(configs)  # one per chained row
                 if cfg.use_catt and cfg.feature_mode == "semantic"}

    def one(i: int) -> list:
        """(report, failure) per row for episode i; loading counts too."""
        eid = f"#{i}"  # until the stream has named the episode
        try:
            eid, ep = stream.episode(i)
            digest = ep.content_hash()
        except Exception as exc:  # a fetch failure fails the episode in every row
            return [(None, (eid, repr(exc)))] * len(configs)
        outcomes = []
        for r, cfg in enumerate(configs):
            try:
                report = run_episode(ep, cfg, histories.get(r), eid)
            except Exception as exc:  # fails this row only; its history stays
                outcomes.append((None, (eid, repr(exc))))
                continue
            report.episode_hash = digest
            if r in histories:
                histories[r] = report.centroids
            outcomes.append((report, None))
        return outcomes

    if threads <= 1 or histories:
        per_episode = [one(i) for i in range(n_tasks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_episode = list(pool.map(one, range(n_tasks)))
    runs = []
    for fingerprint, outcomes in zip(fingerprints, zip(*per_episode)):
        done = [report for report, _ in outcomes if report is not None]
        mean = ci = math.nan
        if done:
            accs = np.array([r.accuracy for r in done])
            mean = float(accs.mean())
            ci = 1.96 * float(accs.std(ddof=1)) / math.sqrt(len(accs)) if len(accs) > 1 else 0.0
        failures = [fail for _, fail in outcomes if fail is not None]
        runs.append(RunReport(done, mean, ci, fingerprint, failures))
    return runs


def evaluate(stream: TaskStream, n_tasks: int, cfg: PipelineConfig, threads: int = 1) -> RunReport:
    """Run n_tasks episodes and aggregate mean accuracy with a 95% CI.

    The one-row case of ablate's loop: episodes run serially when cfg
    chains centroids, so each inherits the previous one's; otherwise they
    may fan out over threads.  Failed episodes stay in failures; if all
    fail, the mean and CI are nan."""
    return _run(stream, n_tasks, [cfg], threads)[0]


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_")


@functools.cache
def _keep_freed_heap() -> bool:
    """Keep freed episode buffers in the C heap for the next episode.

    glibc serves blocks above its mmap threshold with fresh mappings and
    trims the heap top above its trim threshold, so every episode's
    temporaries are unmapped on free and faulted in again by the next
    episode.  This pins both thresholds once per process at the ceilings
    glibc's own dynamic rule would reach on 64-bit: 32 MiB for mmap, and
    twice that for trimming.  It returns False and changes nothing when
    the C library has no mallopt (macOS), when mallopt refuses (musl), or
    when the environment already tunes malloc.
    """
    if any(name in os.environ for name in _MALLOC_ENV) or (
        "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")
    ):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if not mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        return False
    return bool(mallopt(_M_TRIM_THRESHOLD, 64 << 20))


TOGGLES = ("tse", "catt", "cs")


def config_for_toggles(base: PipelineConfig, toggles: set[str]) -> PipelineConfig:
    """Map an ablation row's module toggles onto a config."""
    unknown = toggles - set(TOGGLES)
    if unknown:
        raise ConfigError("grid", f"unknown toggle '{sorted(unknown)[0]}'")
    return replace(
        base,
        feature_mode="semantic" if "tse" in toggles else "raw_local",
        use_catt="catt" in toggles and "tse" in toggles,
        self_training="cs" in toggles,
    )


def row_label(toggles: set[str]) -> str:
    """An ablation row's name: its toggles in TOGGLES order, or baseline."""
    return "+".join(t for t in TOGGLES if t in toggles) or "baseline"


def ablate(
    base: PipelineConfig, grid: Sequence[set[str]], stream: TaskStream, n_tasks: int,
    threads: int = 1,
) -> list[RunReport]:
    """Evaluate every toggle set on identical episodes (paired design).

    One RunReport per grid row, in grid order; every config is built
    before any episode is fetched.  Each episode is fetched and hashed
    once and every row runs on that one Episode, so the pairing holds by
    construction; the episodes run serially when any row chains
    centroids.  Failed episodes stay in each row's failures, even when
    they are all of its episodes."""
    configs = [config_for_toggles(base, set(toggles)) for toggles in grid]
    return _run(stream, n_tasks, configs, threads)
