"""Static-aware overlap abstraction and confidence-weighted registration.

The closed-form weighted solvers here (similarity and rigid) are also
reused by the dynamic fusion stage and the trajectory metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chunking import OverlapView
from .errors import DegenerateConfiguration, NotEnoughPoints
from .model import PipelineConfig, SimilarityTransform, norm3

RANK_TOL = 1e-12
# gamma_c: a pixel takes part in registration and association only with a
# mean confidence over the overlap above this, in both chunks
GAMMA_C = 0.5


@dataclass(frozen=True, eq=False)
class OverlapAbstraction:
    """Static anchors and dynamic supports of one overlap.

    Static anchors pass the confidence test (mean over the overlap above
    GAMMA_C in both chunks) and the rigidity test (max pairwise temporal
    displacement below the chunk's gamma_stat, ``gamma_stat_frac`` times
    its own scale, in its own gauge). Dynamic supports pass confidence but
    fail rigidity. Pixels failing confidence belong to neither set.
    ``scene_scale`` and ``gamma_stat`` refer to chunk i, whose gauge is the
    pair's working frame; ``gamma_stat_j`` is chunk j's own.
    """

    static_mask: np.ndarray
    dynamic_mask: np.ndarray
    gamma_stat: float
    scene_scale: float
    gamma_stat_j: float

    def __post_init__(self):
        if (self.static_mask & self.dynamic_mask).any():
            raise ValueError("static and dynamic sets must be disjoint")

    @property
    def num_static(self) -> int:
        return int(self.static_mask.sum())

    @property
    def num_dynamic(self) -> int:
        return int(self.dynamic_mask.sum())


def _median_distance(points: np.ndarray, confidence: np.ndarray, centers: np.ndarray) -> float:
    d = norm3(points - centers[:, None, None, :])
    kept = d[confidence > 0]
    if kept.size == 0:
        kept = d.ravel()
    kept = kept[np.isfinite(kept)]
    return float(np.median(kept)) if kept.size else 1.0


def _max_pairwise_displacement(points: np.ndarray) -> np.ndarray:
    """Exact max over frame pairs of per-pixel displacement, (H, W).

    O(T^2) over overlap frames; exact for the small overlaps this pipeline
    uses (T <= 8 by default).
    """
    T = points.shape[0]
    out = np.zeros(points.shape[1:3])
    for a in range(T):
        for b in range(a + 1, T):
            d = norm3(points[a] - points[b])
            np.maximum(out, d, out=out)
    return out


def select_anchors(overlap: OverlapView, cfg: PipelineConfig) -> OverlapAbstraction:
    """Split overlap pixels into static anchors and dynamic supports; the one
    place each chunk's scene scale and rigidity threshold are resolved."""
    if len(overlap) < 2:
        raise ValueError("anchor selection needs an overlap of at least 2 frames")
    pts_i, cnf_i = overlap.points_i, overlap.conf_i
    pts_j, cnf_j = overlap.points_j, overlap.conf_j
    c_i = np.stack([p.center for p in overlap.poses_i])
    c_j = np.stack([p.center for p in overlap.poses_j])
    scale_i = _median_distance(pts_i, cnf_i, c_i)
    scale_j = _median_distance(pts_j, cnf_j, c_j)
    gamma_i = cfg.gamma_stat_frac * scale_i
    gamma_j = cfg.gamma_stat_frac * scale_j

    mean_i = cnf_i.mean(axis=0)
    mean_j = cnf_j.mean(axis=0)
    confident = (mean_i > GAMMA_C) & (mean_j > GAMMA_C)

    with np.errstate(invalid="ignore"):
        disp_i = _max_pairwise_displacement(pts_i)
        disp_j = _max_pairwise_displacement(pts_j)
        rigid = (disp_i < gamma_i) & (disp_j < gamma_j)

    static_mask = confident & rigid
    dynamic_mask = confident & ~static_mask
    return OverlapAbstraction(
        static_mask=static_mask,
        dynamic_mask=dynamic_mask,
        gamma_stat=gamma_i,
        scene_scale=scale_i,
        gamma_stat_j=gamma_j,
    )


def _column_sum(x: np.ndarray) -> float:
    """One column's share of ``a.sum(axis=0)`` of an (N, 3) array ``a``;
    overwrites ``x`` with its running sums.

    numpy reduces an (N, 3) array over axis 0 row by row onto a zero
    start; a pairwise ``x.sum()`` would round differently.
    """
    return 0.0 + np.add.accumulate(x, out=x)[-1]


def _unit_column_sum(x: np.ndarray, j: int, buf: np.ndarray) -> float:
    """:func:`_column_sum` of column ``j`` of the (..., 3) array ``x``, its
    points in row-major order; column ``j`` of the (n, 3) ``buf`` takes the
    running sums. A C-contiguous ``x`` is summed straight from its flat
    column; any other layout is copied into the buffer column first."""
    col = buf[:, j]
    if x.flags.c_contiguous:
        return 0.0 + np.add.accumulate(x.reshape(-1, 3)[:, j], out=col)[-1]
    # the buffer column in x's leading shape: its stride is uniform, so the
    # reshape is a view to write through
    np.copyto(col.reshape(x.shape[:-1]), x[..., j])
    return _column_sum(col)


def _weighted_moments(src, dst, weights):
    """Weighted centroids and second moments of a correspondence set.

    ``src`` and ``dst`` are (..., 3) arrays of one shape, strided views
    included, and ``weights`` holds one weight per point (a broadcast array
    included), or is None for unit weights; the points are taken in
    row-major order, as ``x.reshape(-1, 3)`` would list them. Returns
    ``(mu_src, mu_dst, cov, src_cov, var_src)`` with the bits of the array
    expressions on those (n, 3) rows:

        mu = (w[:, None] * x).sum(axis=0) / wsum
        cov = (dst_c * w[:, None]).T @ src_c / wsum
        src_cov = (src_c * w[:, None]).T @ src_c / wsum
        var_src = (w * (src_c**2).sum(axis=1)).sum() / wsum

    The solve allocates two contiguous (n, 3) buffers, the gemm operands:
    the centred sources and the weighted centred targets. Each column is
    read once per pass (``x[..., j]``); its weighted sum runs in the buffer
    column that the centring then overwrites, and the squares for
    ``var_src`` go into the weighted buffer once both products are done.

    ``None`` gives the bits of ``np.ones`` weights without a multiply by
    1.0, which is exact: a C-contiguous input is summed straight from its
    flat column, and the second product's left operand is a copy of the
    centred sources. Both products keep the (n, 3) operands and layouts of
    the expressions above, on which BLAS rounding depends: a planar (3, n)
    operand rounds differently at some sizes.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.shape[-1:] != (3,):
        raise ValueError("src, dst and weights must have the same length")
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.size != src.size // 3:
            raise ValueError("src, dst and weights must have the same length")
        w = w.reshape(src.shape[:-1])
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        if not (w > 0).all():  # no mask is held through the solve unless one is needed
            keep = w > 0
            src, dst, w = src[keep], dst[keep], w[keep]
    n = src.size // 3
    if n < 3:
        raise NotEnoughPoints(f"need >= 3 positive-weight correspondences, got {n}")
    # a sum of ones is exact, so n is the bits of w.sum() for unit weights
    wsum = float(n) if w is None else w.sum()
    src_c = np.empty((n, 3))
    weighted = np.empty((n, 3))
    mu_src = np.empty(3)
    mu_dst = np.empty(3)
    for j in range(3):
        if w is None:
            mu_src[j] = _unit_column_sum(src, j, src_c) / wsum
            mu_dst[j] = _unit_column_sum(dst, j, weighted) / wsum
        else:
            np.multiply(w, src[..., j], out=src_c[:, j].reshape(w.shape))
            mu_src[j] = _column_sum(src_c[:, j]) / wsum
            np.multiply(w, dst[..., j], out=weighted[:, j].reshape(w.shape))
            mu_dst[j] = _column_sum(weighted[:, j]) / wsum

    # column j of each buffer in the inputs' leading shape: its stride is
    # uniform, so the reshape is a view to write through
    shape = src.shape[:-1]
    src_cols = [src_c[:, j].reshape(shape) for j in range(3)]
    weighted_cols = [weighted[:, j].reshape(shape) for j in range(3)]
    for j in range(3):
        np.subtract(src[..., j], mu_src[j], out=src_cols[j])
        np.subtract(dst[..., j], mu_dst[j], out=weighted_cols[j])
        if w is not None:
            weighted_cols[j] *= w
    cov = weighted.T @ src_c / wsum
    if w is None:
        # a copy, not src_c itself: numpy would take a product of an array
        # with its own transpose by syrk, which rounds unlike gemm
        np.copyto(weighted, src_c)
    else:
        for j in range(3):
            np.multiply(src_cols[j], w, out=weighted_cols[j])
    src_cov = weighted.T @ src_c / wsum
    sq = np.multiply(src_c, src_c, out=weighted)[:, 0]
    sq += weighted[:, 1]
    sq += weighted[:, 2]
    if w is not None:
        weighted_cols[0] *= w
    return mu_src, mu_dst, cov, src_cov, float(sq.sum() / wsum)


def nearest_rotation(M: np.ndarray):
    """The rotation nearest to the 3x3 matrix ``M``, with the singular
    values ``D`` of ``M`` and the signs ``S`` that keep det(R) = +1: the
    smallest singular direction flips when det(U Vt) < 0."""
    U, D, Vt = np.linalg.svd(M)
    S = np.ones(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[-1] = -1.0
    return (U * S) @ Vt, D, S


def _rotation_from_cov(cov: np.ndarray, src_cov: np.ndarray):
    # Rank check on the weighted source covariance: collinear or coincident
    # sources leave the rotation under-determined.
    svals = np.linalg.svd(src_cov, compute_uv=False)
    if svals[1] < RANK_TOL * max(svals[0], RANK_TOL):
        raise DegenerateConfiguration(
            "weighted source covariance has rank < 2 (collinear or coincident points)"
        )
    return nearest_rotation(cov)


def similarity_from_moments(mu_src, mu_dst, cov, src_cov, var_src) -> SimilarityTransform:
    """The closed-form similarity of the moments :func:`_weighted_moments`
    returns: DegenerateConfiguration for a source covariance of rank < 2
    or a scale that is not positive and finite."""
    R, D, S = _rotation_from_cov(cov, src_cov)
    scale = float((D * S).sum() / var_src)
    if scale <= 0 or not np.isfinite(scale):
        raise DegenerateConfiguration(f"non-positive recovered scale {scale}")
    return SimilarityTransform(scale, R, mu_dst - scale * (R @ mu_src))


def solve_weighted_similarity(src, dst, weights) -> SimilarityTransform:
    """Global minimizer of sum w_i ||s R src_i + t - dst_i||^2.

    Weighted closed form: weighted centroids, weighted 3x3 cross-covariance,
    SVD with determinant correction (the smallest singular direction flips
    sign when det(U Vt) < 0), scale from the corrected singular-value trace
    over the weighted source variance, translation from the centroids.
    ``weights=None`` means unit weights.
    """
    return similarity_from_moments(*_weighted_moments(src, dst, weights))


def solve_weighted_rigid(src, dst, weights, scale: float = 1.0) -> SimilarityTransform:
    """Weighted Kabsch with a fixed scale: minimizes over (R, t) only."""
    src = np.asarray(src, dtype=np.float64) * scale
    mu_src, mu_dst, cov, src_cov, _ = _weighted_moments(src, dst, weights)
    R, _, _ = _rotation_from_cov(cov, src_cov)
    t = mu_dst - R @ mu_src
    return SimilarityTransform(scale, R, t)


def registration_residual_rms(
    T: SimilarityTransform, src: np.ndarray, dst: np.ndarray, weights: np.ndarray
) -> float:
    r = norm3(T.apply(src) - dst)
    wsum = weights.sum()
    if wsum <= 0:
        return float("nan")
    return float(np.sqrt((weights * r**2).sum() / wsum))


def static_correspondences(overlap: OverlapView, abstraction: OverlapAbstraction):
    """One correspondence per (overlap frame, static anchor), chunk j -> i.

    Weights are the per-sample geometric mean sqrt(c_i * c_j).
    """
    mask = abstraction.static_mask
    src = overlap.points_j[:, mask, :].reshape(-1, 3)
    dst = overlap.points_i[:, mask, :].reshape(-1, 3)
    w = np.sqrt(overlap.conf_i[:, mask] * overlap.conf_j[:, mask]).ravel()
    return src, dst, w


def register_pair(
    overlap: OverlapView, abstraction: OverlapAbstraction
) -> tuple[SimilarityTransform, float]:
    """Confidence-weighted similarity registration on the static anchors:
    the transform and its weighted residual RMS on those anchors.

    Maps chunk j's gauge into chunk i's. Dynamic supports are excluded
    entirely, so corrupt them as you like: the result cannot change.
    Raises NotEnoughPoints / DegenerateConfiguration for the caller's
    fallback logic rather than aborting.
    """
    src, dst, w = static_correspondences(overlap, abstraction)
    T = solve_weighted_similarity(src, dst, w)
    return T, registration_residual_rms(T, src, dst, w)
