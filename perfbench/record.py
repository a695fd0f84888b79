"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record.py

For the default seed 20230 and the held-out seed 40231 it generates the
stream once, runs one pass of every workload through the same code the
benchmark times, and stores the per-episode predictions, the mean
accuracy and the four loss sums in reference.json.

Record only at a commit whose outputs are trusted: the reference pins
them, and a later change that moves a prediction fails the gate.
"""

from __future__ import annotations

import json
import sys

import run

LOSS_RTOL = 1e-6  # relative tolerance on each loss sum; predictions must match exactly
SEEDS = (run.DEFAULT_SEED, run.HELD_OUT_SEED)


def record_seed(seed: int) -> dict:
    episodes = run.generate(seed)
    entry = {"stream": run.stream_digest(ep.content_hash() for _, ep in episodes)}
    for workload in run.WORKLOADS.values():
        workdir = run.WORK_ROOT / f"record-{workload.name}-{seed}"
        source = run.make_source(workload, episodes, workdir)
        try:
            p = run.run_pass(workload, source, "record")
        finally:
            source.close()
        run.check_scoring(p)
        if p.failed or p.stream != entry["stream"]:
            sys.exit(f"record: seed {seed} {workload.name} failed: {p.errors}")
        entry[workload.name] = {
            "predictions": p.predictions, "accuracy": p.accuracy, "losses": p.losses,
        }
    return entry


def main() -> int:
    # the benchmark's stream is the one `fewshift eval --synth` would see
    base = run.SynthConfig(seed=run.DEFAULT_SEED, **run.SYNTH)
    check = run.engine.evaluate(
        run.engine.SyntheticTaskStream(base), run.EPISODES, run.engine.PipelineConfig()
    )

    refs = {"synth": run.SYNTH, "episodes": run.EPISODES, "loss_rtol": LOSS_RTOL,
            "seeds": {}}
    for seed in SEEDS:
        refs["seeds"][str(seed)] = record_seed(seed)
        print(f"seed {seed}: " + ", ".join(
            f"{name} {refs['seeds'][str(seed)][name]['accuracy']:.4f}"
            for name in run.WORKLOADS), flush=True)
    got = refs["seeds"][str(run.DEFAULT_SEED)]["chain-full"]["accuracy"]
    if got != check.mean_accuracy:
        sys.exit(f"record: chain-full accuracy {got!r} differs from evaluate's "
                 f"{check.mean_accuracy!r} on the same stream")
    run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE} ({len(SEEDS)} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
