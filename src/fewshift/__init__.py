"""Few-shot cross-domain episode classification toolkit.

Classifies unlabeled target-domain queries from a handful of labeled
source-domain shots: task-specific semantic features from per-task
clustering, image-to-class similarity patterns, confident-sample
self-training in the target domain, and Gaussian-KL alignment losses.
"""

from .engine import (
    EpisodeReport,
    ManifestTaskStream,
    PipelineConfig,
    RunReport,
    SyntheticTaskStream,
    ablate,
    embed_episode,
    evaluate,
    forward_episode,
    run_episode,
)
from .feature_store import (
    Episode,
    EpisodeManifest,
    load_episode,
    read_tensor,
    read_tensor_file,
    save_episode,
    write_tensor,
    write_tensor_file,
)
from .synthgen import SynthConfig, generate_episode, make_transform

__all__ = [
    "Episode",
    "EpisodeManifest",
    "EpisodeReport",
    "ManifestTaskStream",
    "PipelineConfig",
    "RunReport",
    "SynthConfig",
    "SyntheticTaskStream",
    "ablate",
    "embed_episode",
    "evaluate",
    "forward_episode",
    "generate_episode",
    "load_episode",
    "make_transform",
    "read_tensor",
    "read_tensor_file",
    "run_episode",
    "save_episode",
    "write_tensor",
    "write_tensor_file",
]

__version__ = "0.1.0"
