"""Portable seeded random number generator (splitmix64 core).

Every stochastic choice in the package flows through this generator so
that a seed reproduces the identical stream on any platform.  The core
is counter-based: output i is a fixed 64-bit mix of seed + i * GOLDEN,
which lets batches be produced with vectorized uint64 arithmetic while
staying bit-identical to scalar draws.

Batches are computed in place: the mix runs on the counter array with one
scratch buffer, and the Box-Muller transform writes into its output.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MANTISSA_SHIFT = np.uint64(11)
# scales a 53-bit integer into [0, 1); a power of two, so the product is
# exactly the quotient by 2**53
_UNIT = 2.0**-53
_TWO_PI = 2.0 * np.pi


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, applied to the uint64 array z in place."""
    scratch = np.empty_like(z)
    for shift, multiplier in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= multiplier
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


class SplitMix64:
    """Deterministic uint64 stream with vectorized batch draws."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._count = 0

    def u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs."""
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z *= _GOLDEN
        z += self._seed
        return _mix(z)

    def next_u64(self) -> int:
        return int(self.u64(1)[0])

    def randint(self, bound: int) -> int:
        """Integer in [0, bound). Modulo bias is acceptable here."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return unit_floats(self.u64(n))

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller on uniform pairs.

        Consumes 2*ceil(n/2) raw outputs; for odd n the trailing sin
        branch is discarded, so draw sizes are part of the recipe.  The
        first half of the output holds r cos(theta), the second r sin(theta).
        """
        pairs = (n + 1) // 2
        raw = self.u64(2 * pairs)
        raw >>= _MANTISSA_SHIFT
        out = np.empty(2 * pairs)
        r, theta = out[:pairs], out[pairs:]
        # u1 in (0, 1] so the log is finite
        np.add(raw[:pairs], 1.0, out=r)
        r *= _UNIT
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        np.multiply(raw[pairs:], _UNIT, out=theta)
        theta *= _TWO_PI
        # the raw words are spent; their first half holds cos(theta)
        cos = np.cos(theta, out=raw[:pairs].view(np.float64))
        np.sin(theta, out=theta)
        theta *= r
        r *= cos
        return out[:n]

    def unit_vectors(self, n: int, dim: int) -> np.ndarray:
        """n rows drawn uniformly on the unit sphere in R^dim."""
        v = self.gaussians(n * dim).reshape(n, dim)
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return v / norms


def unit_floats(raw: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw outputs, one per word: the top 53 bits
    scaled by 2**-53.  raw is overwritten."""
    raw >>= _MANTISSA_SHIFT
    return np.multiply(raw, _UNIT)


def derive_seed(base: int, index: int) -> int:
    """Per-episode seed: base XOR episode index."""
    return (base ^ index) & 0xFFFFFFFFFFFFFFFF
