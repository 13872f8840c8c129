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
    pair's working frame; ``gamma_stat_j`` is chunk j's own. A chunk's
    scale is its median camera-to-point distance over the overlap, so
    ``gamma_stat / gamma_stat_j`` is the scale from chunk j's gauge to
    chunk i's, which the camera tier takes
    (:func:`~chunkfuse.fusion.camera_scale`).
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


def _weighted_moments(src, dst, weights):
    """Weighted centroids and second moments of a correspondence set.

    ``src`` and ``dst`` are (..., 3) arrays of one shape, read as (n, 3)
    rows in row-major order, and ``weights`` holds one weight per point, or
    is None for unit weights. Points of weight 0 are dropped. Returns
    ``(mu_src, mu_dst, cov, src_cov, var_src)``:

        mu = (w[:, None] * x).sum(axis=0) / wsum
        cov = (dst_c * w[:, None]).T @ src_c / wsum
        src_cov = (src_c * w[:, None]).T @ src_c / wsum
        var_src = (w * (src_c**2).sum(axis=1)).sum() / wsum
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.shape[-1:] != (3,):
        raise ValueError("src, dst and weights must have the same length")
    src, dst = src.reshape(-1, 3), dst.reshape(-1, 3)
    w = np.ones(len(src)) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    if len(w) != len(src):
        raise ValueError("src, dst and weights must have the same length")
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    keep = w > 0
    if not keep.all():
        src, dst, w = src[keep], dst[keep], w[keep]
    if len(src) < 3:
        raise NotEnoughPoints(f"need >= 3 positive-weight correspondences, got {len(src)}")
    wsum = w.sum()
    mu_src = (w[:, None] * src).sum(axis=0) / wsum
    mu_dst = (w[:, None] * dst).sum(axis=0) / wsum
    src_c = src - mu_src
    dst_c = dst - mu_dst
    cov = (dst_c * w[:, None]).T @ src_c / wsum
    src_cov = (src_c * w[:, None]).T @ src_c / wsum
    # the bits of .sum(axis=1), as norm3 adds them, without numpy's slow
    # reduction over a length-3 axis
    s = src_c * src_c
    var_src = float((w * (s[:, 0] + s[:, 1] + s[:, 2])).sum() / wsum)
    return mu_src, mu_dst, cov, src_cov, var_src


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
    fallback logic rather than aborting; NotEnoughPoints also for fewer
    than 3 static anchors, since the samples of one or two pixels over
    time carry no rotation.
    """
    if abstraction.num_static < 3:
        raise NotEnoughPoints(f"need >= 3 static anchors, got {abstraction.num_static}")
    src, dst, w = static_correspondences(overlap, abstraction)
    T = solve_weighted_similarity(src, dst, w)
    return T, registration_residual_rms(T, src, dst, w)
