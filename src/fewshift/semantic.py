"""Task-specific semantic feature embedding.

Pipeline per task: pick a cluster count from the singular-value profile
of the pooled local features, run K-means separately on the source-side
and target-side locals, optionally warm-start both runs by cross-attending
the fresh initialization to the previous task's centroids, merge the two
clusterings into one centroid set, project every local feature onto the
centroids by cosine, and fold each image's 2x2 spatial quadrants into the
channel axis.
"""

from __future__ import annotations

import math

import numpy as np

from .numkit import (
    cosine_matrix,
    farthest_first_init,
    kmeans,
    min_cost_assignment,
    softmax,
    squared_norms,
    unit_rows,
)
from .rng import SplitMix64

# fixed seed for farthest-first initialization: clustering must be
# reproducible without threading an RNG through the whole pipeline
_INIT_SEED = 0x5EED_C1A5


def select_cluster_count(
    locals_matrix: np.ndarray,
    tau_rel: float = 0.1,
    k_min: int = 2,
    k_max: int = 64,
) -> int:
    """Cluster count = number of singular values of the mean-centered
    locals that reach tau_rel times the largest one, clamped to bounds.

    The singular values are the square roots of the eigenvalues of the
    d x d Gram matrix of the centered locals, which costs one n x d x d
    product instead of an n x d SVD.  Squaring limits their resolution to
    about sqrt(eps) * sigma_1 (1.5e-8 relative), far below any useful
    tau_rel.  A value that reaches tau_rel * sigma_1 counts; at an exact
    tie last-bit rounding decides, and the Gram and SVD routes may
    decide it differently, one count apart.

    The Gram is formed as X^T X - n mu mu^T, without a centered copy of
    the n x d locals.  X^T X rounds at about eps sqrt(n) n |mu|^2, and
    the subtraction leaves that in the spectrum: with a common offset
    |mu| of 1e4 times the spread of the top direction, a ratio at
    tau_rel = 0.02 moved by up to 1e-6 (7e-9 at 1e3).  So when n |mu|^2
    exceeds 1e5 times the centered sum of squares (the Gram's trace), an
    offset past about 300 spreads, the Gram is formed from the centered
    copy instead; that also covers rows that are all equal, whose
    uncentered Gram is rounding noise rather than zero.
    """
    if not 0.0 < tau_rel < 1.0:
        raise ValueError("tau_rel must lie in (0, 1)")
    if k_min > k_max:
        raise ValueError("k_min exceeds k_max")
    locals_matrix = np.asarray(locals_matrix, dtype=np.float64)
    if locals_matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    mu = locals_matrix.mean(axis=0)
    gram = locals_matrix.T @ locals_matrix
    gram -= len(locals_matrix) * np.outer(mu, mu)
    if not np.trace(gram) * 1e5 >= len(locals_matrix) * (mu @ mu):  # or not finite
        centered = locals_matrix - mu
        gram = centered.T @ centered
    # a non-finite entry makes the test above fail; the centered Gram's
    # diagonal then sums the squared entries, so short of overflow (|x|
    # near 1e150) the Gram is finite exactly when the locals are
    if not np.isfinite(gram).all():
        raise ValueError("matrix contains non-finite entries")
    eig = np.linalg.eigvalsh(gram)  # ascending
    sv = np.sqrt(np.maximum(eig[::-1], 0.0))
    # the largest |entry| without an |x| temporary of the whole matrix
    scale = (
        max(float(locals_matrix.max()), -float(locals_matrix.min()))
        if locals_matrix.size
        else 0.0
    )
    if sv[0] <= 1e-10 * max(1.0, scale):
        return k_min  # degenerate: all rows equal
    count = int((sv >= tau_rel * sv[0]).sum())
    return min(max(count, k_min), k_max)


def fuse_centroids(c_init: np.ndarray, c_prev: np.ndarray) -> np.ndarray:
    """Cross-attend a fresh initialization to the previous task's centroids.

    A = softmax_rows(C_init C_prev^T / sqrt(d)); the output is the
    row-normalized C_init + A C_prev.
    """
    c_init = np.asarray(c_init, dtype=np.float64)
    c_prev = np.asarray(c_prev, dtype=np.float64)
    d = c_init.shape[1]
    logits = c_init @ c_prev.T / math.sqrt(d)
    attn = softmax(logits)
    fused = c_init + attn @ c_prev
    return unit_rows(fused)


def _merge_match_average(c_support: np.ndarray, c_query: np.ndarray) -> np.ndarray:
    """One-to-one cosine match, averaged pairs rescaled to the mean norm.

    Rescaling restores the magnitude lost when averaging misaligned
    directions; a near-cancelling pair falls back to the support row.
    """
    cos = cosine_matrix(c_support, c_query)
    merged = np.empty_like(c_support)
    for i, j in enumerate(min_cost_assignment(-cos)):
        avg = (c_support[i] + c_query[j]) / 2.0
        target_norm = (np.linalg.norm(c_support[i]) + np.linalg.norm(c_query[j])) / 2.0
        norm = np.linalg.norm(avg)
        if norm <= 1e-12 * max(1.0, target_norm):
            merged[i] = c_support[i]
        else:
            merged[i] = avg * (target_norm / norm)
    return merged


def cluster_task(
    support_locals: np.ndarray,
    query_locals: np.ndarray,
    k: int,
    warm: np.ndarray | None = None,
    sq_norms: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Cluster the two local-feature pools separately and merge.

    Each side runs K-means from a farthest-first initialization (fused
    with the warm (k, d) centroids, when given); the two k-centroid sets
    are paired one-to-one by cosine and averaged into the task centroids,
    a (k, d) float64 array with k >= 2 and no zero row.  sq_norms, when
    given, holds the squared_norms of the two pools; initialization and
    K-means of a side share them.
    """
    support_locals = np.asarray(support_locals, dtype=np.float64)
    query_locals = np.asarray(query_locals, dtype=np.float64)
    if k < 2:
        raise ValueError("need at least 2 centroid rows")
    if support_locals.shape[0] < k or query_locals.shape[0] < k:
        raise ValueError(f"both local pools need at least k={k} rows")

    if sq_norms is None:
        sq_norms = squared_norms(support_locals), squared_norms(query_locals)

    def side(points: np.ndarray, norms: np.ndarray) -> np.ndarray:
        init = farthest_first_init(points, k, SplitMix64(_INIT_SEED), sq_norms=norms)
        if warm is not None:
            init = fuse_centroids(init, warm)
        return kmeans(points, k, init, sq_norms=norms).centroids

    merged = _merge_match_average(
        side(support_locals, sq_norms[0]), side(query_locals, sq_norms[1])
    )
    if (np.linalg.norm(merged, axis=1) == 0.0).any():
        raise ValueError("centroid rows must be non-zero")
    return merged


def semantic_map(
    images: np.ndarray, centroids: np.ndarray, sq_norms: np.ndarray | None = None
) -> np.ndarray:
    """Per-position cosine of each local vector against each centroid.

    images is one (h, w, d) image or a stack (n, h, w, d) and centroids a
    (k, d) array; the output keeps the leading axes with the centroids as
    the last one.  A stack costs one matrix product.  sq_norms, when
    given, holds the squared_norms of the local vectors in row-major
    order; the result equals cosine_matrix's bit for bit either way.
    """
    images = np.asarray(images, dtype=np.float64)
    k, d = np.shape(centroids)
    if images.shape[-1] != d:
        raise ValueError(f"local dim {images.shape[-1]} does not match centroid dim {d}")
    flat = images.reshape(-1, d)
    cos = unit_rows(flat, sq_norms) @ unit_rows(centroids).T
    return np.clip(cos, -1.0, 1.0, out=cos).reshape(*images.shape[:-1], k)


def block_split_concat(cosine_grid: np.ndarray) -> np.ndarray:
    """Fold the four spatial quadrants into the channel axis.

    The grid must have even height and width.  Position (i, j) of the
    half-resolution output concatenates the top-left, top-right,
    bottom-left, bottom-right quadrant values, in that order, giving 4k
    channels.  The mapping is a bijection on the values.

    A stack (n, h, w, k) folds in one pass to (n, h/2 * w/2, 4k), each
    image's rows row-major over its folded grid.
    """
    grids = np.asarray(cosine_grid, dtype=np.float64)
    n, h, w, k = grids.shape
    if h % 2 or w % 2:
        raise ValueError(f"grid must have even height and width, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    # axes (image, row half, row, column half, column, k): moving the two
    # halves next to k makes the channel blocks TL, TR, BL, BR
    quads = grids.reshape(n, 2, h2, 2, w2, k).transpose(0, 2, 4, 1, 3, 5)
    return quads.reshape(n, h2 * w2, 4 * k)
