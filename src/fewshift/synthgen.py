"""Deterministic synthetic two-domain episodes with controllable shift.

Construction per episode:

  * every class draws its own part prototypes (scaled random directions,
    so the pinned per-coordinate noise level stays moderate relative to
    the signal);
  * a class-agnostic layout assigns part index to grid cell: parts form
    bands inside each image quadrant and the pattern repeats across the
    four quadrants, so spatially coherent regions carry one part;
  * each image adds per-part jitter and per-cell pixel noise, and a
    distractor fraction of cells is replaced by decoys: perturbed copies
    of randomly chosen prototypes of random classes.  Decoys are class
    agnostic and reward classifiers that respect spatial structure over
    bag-of-cells matching;
  * target-domain images push every cell through a global linear
    transform plus bias whose strength is the shift parameter.

Draw order is fixed (prototypes, transform seed, then images in
support / query-source / query-target class-major order) so equal
configs reproduce equal episodes bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .feature_store import Episode
from .rng import SplitMix64

_TRANSFORM_REDRAWS = 32
_MAX_CONDITION = 1e3

# prototype norm relative to the unit noise scale; large enough that the
# part subspace dominates the singular spectrum at default channel count
PART_SCALE = 24.0
# relative size of a decoy cell's deviation from the prototype it mimics
DECOY_DEVIATION = 0.35


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_way: int = 5
    k_shot: int = 1
    n_query: int = 15
    height: int = 10
    width: int = 10
    channels: int = 64
    parts_per_class: int = 2
    part_noise: float = 0.05
    pixel_noise: float = 0.1
    shift_strength: float = 0.0
    distractor_rate: float = 0.0

    def __post_init__(self):
        for name in ("n_way", "k_shot", "n_query", "height", "width",
                     "channels", "parts_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        if self.height * self.width < self.parts_per_class:
            raise ConfigError("parts_per_class", "grid has fewer cells than parts")
        for name in ("part_noise", "pixel_noise"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(name, "must be finite and >= 0")
        if not 0.0 <= self.shift_strength <= 1.0:
            raise ConfigError("shift_strength", "must lie in [0, 1]")
        if not 0.0 <= self.distractor_rate <= 1.0:
            raise ConfigError("distractor_rate", "must lie in [0, 1]")

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        if "seed" not in raw:
            raise ConfigError("seed", "required field missing")
        return cls(**raw)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class DomainTransform:
    """Global per-cell map x -> A x + b modelling the target domain."""

    matrix: np.ndarray  # (d, d)
    bias: np.ndarray    # (d,)

    def apply(self, cells: np.ndarray) -> np.ndarray:
        return cells @ self.matrix.T + self.bias


def make_transform(seed: int, gamma: float, dim: int) -> DomainTransform:
    """A = (1-gamma) I + gamma R S with R a random rotation and S diagonal
    scales in [0.5, 2]; b = gamma * random vector of norm <= 1.

    gamma = 0 yields the exact identity.  The rotation is redrawn if the
    blend is ill-conditioned, which bounds the condition number by 1e3.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError("shift_strength", "must lie in [0, 1]")
    rng = SplitMix64(seed)
    scales = 0.5 + 1.5 * rng.uniforms(dim)
    direction = rng.gaussians(dim)
    norm = np.linalg.norm(direction)
    radius = rng.uniforms(1)[0]
    bias = gamma * radius * (direction / norm if norm > 0 else direction)
    eye = np.eye(dim)
    for _ in range(_TRANSFORM_REDRAWS):
        raw = rng.gaussians(dim * dim).reshape(dim, dim)
        q, r = np.linalg.qr(raw)
        q = q * np.sign(np.diag(r))  # fix signs for a proper deterministic Q
        matrix = (1.0 - gamma) * eye + gamma * (q * scales[None, :])
        sv = np.linalg.svd(matrix, compute_uv=False)
        if sv[-1] > 0 and sv[0] / sv[-1] <= _MAX_CONDITION:
            return DomainTransform(matrix, bias)
    raise RuntimeError("could not draw a well-conditioned domain transform")


def quadrant_band_layout(height: int, width: int, parts: int) -> np.ndarray:
    """Part index per cell: bands inside a quadrant, repeated per quadrant.

    With the 2x2 quadrant fold downstream, the four cells of a folded
    position then share one part, so classes differ by coherent regions
    rather than isolated cells.
    """
    q_h, q_w = max(height // 2, 1), max(width // 2, 1)
    rows, cols = np.divmod(np.arange(height * width), width)
    within = (rows % q_h) * q_w + (cols % q_w)
    return (within * parts) // (q_h * q_w)


@dataclass(frozen=True)
class SynthGroundTruth:
    """Generator-side truth used only by tests and upper-bound oracles."""

    prototypes: np.ndarray            # (n_way, parts, d)
    layout: np.ndarray                # (h*w,) part index per cell
    transform: DomainTransform
    parts: np.ndarray                 # (n, h*w) per row of episode.images, -1 where decoy


def generate_episode(cfg: SynthConfig) -> tuple[Episode, SynthGroundTruth]:
    """Build one episode plus its ground truth, fully determined by cfg."""
    rng = SplitMix64(cfg.seed)
    n, p, d = cfg.n_way, cfg.parts_per_class, cfg.channels
    hw = cfg.height * cfg.width

    transform = make_transform(rng.next_u64(), cfg.shift_strength, d)
    directions = rng.unit_vectors(n * p, d)
    if n * p <= d:
        # orthonormalize so distinct parts are exactly uncorrelated
        q, r = np.linalg.qr(directions.T)
        directions = (q * np.sign(np.diag(r))).T
    # deal parts to classes in order of how well they survive the domain
    # transform, so no class is systematically luckier under the shift
    shifted = transform.apply(directions)
    shifted_norms = np.linalg.norm(shifted, axis=1)
    anchors = (directions * shifted).sum(axis=1) / np.where(
        shifted_norms == 0.0, 1.0, shifted_norms
    )
    order = np.argsort(anchors, kind="stable")
    dealt = np.vstack([order[c::n] for c in range(n)])
    prototypes = PART_SCALE * directions[dealt.reshape(-1)].reshape(n, p, d)
    layout = quadrant_band_layout(cfg.height, cfg.width, p)
    flat_prototypes = prototypes.reshape(n * p, d)

    rows, cols = np.divmod(np.arange(hw), cfg.width)
    q_h, q_w = max(cfg.height // 2, 1), max(cfg.width // 2, 1)
    # cells sharing a within-quadrant position collapse into one folded
    # block downstream; coherent decoys corrupt such groups together
    block_of_cell = (rows % q_h) * q_w + (cols % q_w)
    n_blocks = q_h * q_w

    def span_deviation(m: int) -> np.ndarray:
        # decoy deviations stay inside the prototype span so decoy cells
        # join existing part clusters instead of spawning their own
        coeffs = rng.gaussians(m * n * p).reshape(m, n * p)
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        return DECOY_DEVIATION * (coeffs @ flat_prototypes)

    draws = [(c, False, True) for c in range(n) for _ in range(cfg.k_shot)]
    draws += [
        (c, target, False)
        for target in (False, True) for c in range(n) for _ in range(cfg.n_query)
    ]
    images = np.empty((len(draws), cfg.height, cfg.width, d), np.float32)
    parts = np.tile(layout, (len(draws), 1))

    def build_image(row: int, class_id: int, target: bool, support: bool) -> None:
        """Draws one image into images[row] and marks its decoy cells in parts[row]."""
        jitter = rng.gaussians(p * d).reshape(p, d) * cfg.part_noise
        noise = rng.gaussians(hw * d).reshape(hw, d) * cfg.pixel_noise
        # query corruption level has mean distractor_rate and a fat tail:
        # most images are nearly clean, a few heavily corrupted.  Support
        # shots are curated exemplars and stay decoy-free.
        u = rng.uniforms(1)[0]
        rate = 4.0 * cfg.distractor_rate * u**3
        cells = prototypes[class_id][layout] + jitter[layout] + noise

        # coherent decoys: whole folded blocks carry one random class's
        # parts in their proper bands, mimicking a look-alike region
        impostor = rng.randint(n)
        block_rate = 0.0 if support else rate / 2.0
        block_mask = (rng.uniforms(n_blocks) < block_rate)[block_of_cell]
        if block_mask.any():
            m = int(block_mask.sum())
            cells[block_mask] = (
                prototypes[impostor, layout[block_mask]]
                + span_deviation(m)
                + noise[block_mask]
            )
            parts[row, block_mask] = -1
        # scattered decoys: lone cells carrying random classes' parts in
        # the wrong bands, bait for matching that ignores spatial layout
        cell_rate = 0.0 if support else rate / 2.0
        cell_mask = rng.uniforms(hw) < cell_rate
        if cell_mask.any():
            m = int(cell_mask.sum())
            picks = (rng.u64(m) % np.uint64(n)).astype(np.int64)
            band_shift = 1 + (rng.u64(m) % np.uint64(max(p - 1, 1))).astype(np.int64)
            shifted = (layout[cell_mask] + band_shift) % p
            cells[cell_mask] = (
                prototypes[picks, shifted] + span_deviation(m) + noise[cell_mask]
            )
            parts[row, cell_mask] = -1

        if target:
            cells = transform.apply(cells)
        images[row] = cells.reshape(cfg.height, cfg.width, d)

    for row, draw in enumerate(draws):
        build_image(row, *draw)
    labels = [c for c in range(n) for _ in range(cfg.n_query)]

    episode = Episode(images, n, cfg.k_shot, labels, labels)
    return episode, SynthGroundTruth(prototypes, layout, transform, parts)
