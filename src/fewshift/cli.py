"""Command-line front door.

Subcommands: gen (write synthetic episodes to disk), run (one episode),
eval (a suite with CSV + summary), ablate (paired toggle grid), dump
(intermediate tensors for external plotting).  Exit codes: 0 success,
1 runtime failure (for eval and ablate, any failed episode), 2 usage
or config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import engine
from .engine import (
    ManifestTaskStream,
    PipelineConfig,
    SyntheticTaskStream,
    ablate,
    evaluate,
    run_episode,
)
from .errors import ConfigError, read_config
from .feature_store import save_episode, write_tensor_file
from .patterns import PooledBlocks, score_set
from .synthgen import SynthConfig

DUMP_STAGES = ("centroids", "semantic", "patterns", "scores")


def _load_synth_config(path: str, seed_override: int | None) -> tuple[SynthConfig, int]:
    raw = read_config(path)
    episodes = raw.pop("episodes", 1)
    if not isinstance(episodes, int) or isinstance(episodes, bool):
        raise ConfigError("episodes", f"must be an integer, got {episodes!r}")
    if episodes < 1:
        raise ConfigError("episodes", "must be >= 1")
    if seed_override is not None:
        raw["seed"] = seed_override
    return SynthConfig.from_dict(raw), episodes


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig.from_file(args.pipeline) if args.pipeline else PipelineConfig()


def _manifest_paths(episodes_dir: str) -> list[Path]:
    root = Path(episodes_dir)
    paths = sorted(root.glob("*/manifest.json")) or sorted(root.glob("manifest*.json"))
    if not paths:
        raise FileNotFoundError(f"no manifests under {root}")
    return paths


def cmd_gen(args) -> int:
    base, episodes = _load_synth_config(args.config, args.seed)
    out = Path(args.out)
    stream = SyntheticTaskStream(base)
    for i in range(episodes):
        _, episode = stream.episode(i)
        save_episode(episode, out / f"episode_{i:03d}")
    print(f"wrote {episodes} episodes under {out} (base seed {base.seed})")
    return 0


def cmd_run(args) -> int:
    cfg = _pipeline_config(args)
    if args.synth:
        stream = SyntheticTaskStream(_load_synth_config(args.synth, args.seed)[0])
    else:
        stream = ManifestTaskStream([args.episode])
    eid, episode = stream.episode(0)
    report = run_episode(episode, cfg, episode_id=eid)
    print(f"episode {report.episode_id}: accuracy {report.accuracy:.4f}")
    print(
        f"losses: l_cls {report.l_cls:.6f}  l_sfa {report.l_sfa:.6f}  "
        f"l_spa {report.l_spa:.6f}  l_clm {report.l_clm:.6f}  total {report.total:.6f}"
    )
    print(
        f"k {report.k}  rounds {report.rounds}  "
        f"confident {report.confident_count}  wall_ms {report.wall_ms:.1f}"
    )
    return 0


def cmd_eval(args) -> int:
    cfg = _pipeline_config(args)
    if args.synth:
        base, episodes = _load_synth_config(args.synth, args.seed)
        stream = SyntheticTaskStream(base)
    else:
        stream = ManifestTaskStream(_manifest_paths(args.episodes))
        episodes = len(stream)
    report = evaluate(stream, args.tasks or episodes, cfg, threads=args.threads)
    out = Path(args.out)
    out.write_text(report.to_csv())
    summary = report.summary_text() + f"feature_mode: {cfg.feature_mode}\n"
    out.with_suffix(".summary.txt").write_text(summary)
    print(summary, end="")
    for eid, err in report.failures:
        print(f"episode {eid} failed: {err}", file=sys.stderr)
    return 1 if report.failures else 0


def _parse_grid(text: str) -> list[set[str]]:
    tokens = [token.strip() for token in text.split(",")]
    return [set() if t in ("", "none", "baseline") else set(t.split("+")) for t in tokens]


def cmd_ablate(args) -> int:
    cfg = _pipeline_config(args)
    base, episodes = _load_synth_config(args.synth, args.seed)
    n_tasks = args.tasks or episodes
    grid = _parse_grid(args.grid)
    reports = ablate(cfg, grid, SyntheticTaskStream(base), n_tasks, args.threads)
    rows = list(zip(map(engine.row_label, grid), reports))
    lines = ["variant,mean_accuracy,ci95"]
    lines += [f"{label},{r.mean_accuracy!r},{r.ci95!r}" for label, r in rows]
    table = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(table)
    print(table, end="")
    failed = [(label, fail) for label, report in rows for fail in report.failures]
    for label, (eid, err) in failed:
        print(f"{label}: episode {eid} failed: {err}", file=sys.stderr)
    return 1 if failed else 0


def cmd_dump(args) -> int:
    cfg = _pipeline_config(args)
    if args.stage == "centroids" and cfg.feature_mode == "raw_local":
        print("raw_local mode has no centroids", file=sys.stderr)
        return 2
    _, episode = ManifestTaskStream([args.episode]).episode(0)
    emb = engine.embed_episode(episode, cfg)
    # every tensor's rows follow episode.images or its query rows
    if args.stage == "centroids":
        tensors = {"centroids": emb.centroids}
    elif args.stage == "semantic":
        h, w, _ = episode.grid
        if cfg.feature_mode == "semantic":
            h, w = h // 2, w // 2  # the quadrant fold halves the grid
        tensors = {"semantic": emb.stack.reshape(len(emb.stack), h, w, -1)}
    else:
        tensors = {}
        for prefix, rows in (("qs", episode.qs_rows), ("qt", episode.qt_rows)):
            table = score_set(PooledBlocks(emb.stack, rows), episode.support_rows)
            tensors[f"{args.stage}_{prefix}"] = (
                table.scores if args.stage == "scores" else np.stack(table.patterns, axis=1)
            )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, tensor in tensors.items():
        write_tensor_file(tensor.astype(np.float32), out / f"{name}.ftns")
        print(f"wrote {name}.ftns {tensor.shape}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewshift",
        description="Few-shot cross-domain episode pipeline",
    )
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--threads", type=_positive_int, default=os.cpu_count() or 1,
        help="episode-level parallelism; serial when any row chains centroids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate synthetic episodes on disk")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run one episode and print its report")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--episode", help="path to a manifest.json")
    src.add_argument("--synth", help="path to a generator config")
    p_run.add_argument("--pipeline")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate a suite, write CSV + summary")
    src = p_eval.add_mutually_exclusive_group(required=True)
    src.add_argument("--episodes", help="directory of generated episodes")
    src.add_argument("--synth", help="path to a generator config")
    p_eval.add_argument("--pipeline")
    p_eval.add_argument("--tasks", type=_positive_int, help="episodes to run (default: all)")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_abl = sub.add_parser("ablate", help="paired toggle grid over one episode stream")
    p_abl.add_argument("--synth", required=True)
    p_abl.add_argument("--pipeline")
    p_abl.add_argument("--tasks", type=_positive_int, help="episodes per row (default: all)")
    p_abl.add_argument(
        "--grid", default="tse,cs,tse+catt,tse+cs,tse+catt+cs",
        help="comma-separated variants, toggles joined by '+'",
    )
    p_abl.add_argument("--out")
    p_abl.set_defaults(func=cmd_ablate)

    p_dump = sub.add_parser("dump", help="write intermediate tensors to disk")
    p_dump.add_argument("--episode", required=True, help="path to a manifest.json")
    p_dump.add_argument("--stage", required=True, choices=DUMP_STAGES)
    p_dump.add_argument("--pipeline")
    p_dump.add_argument("--out", required=True)
    p_dump.set_defaults(func=cmd_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
