"""Earlier implementations kept as bit-for-bit references.

The dense seed-pixel tables (``model.TrackTable``) replaced per-pixel
dicts, ``registration._weighted_moments`` and ``SimilarityTransform.apply``
replaced whole-array expressions by column-wise, in-place passes, and
``association.assign`` replaced two ``np.unique`` calls per connected
component by one ordering of all kept vertices. ``metrics.junction_prf``
replaced the same-pixel association score that ``chunkfuse evaluate``
built inline. ``association.build_tracklets`` takes the rigidity
threshold ``select_anchors`` resolved, where it re-derived it from the
chunk's own scene scale. ``metrics.rpe`` replaced a loop of per-pose
inverses and compositions, each a checked ``Pose``, by stacked products,
and ``metrics.rotation_angle_deg`` takes a stack. ``fusion._Stitcher``
replaced per-trajectory builders keyed by pixel tuples by lists indexed
by trajectory id and a grid of the open ids. ``synthetic.generate`` casts
visibility for blocks of frames, where it cast one frame at a time.
``association.pair_cost`` gathers each set's velocities and speeds, where
it formed them per candidate pair, and ``fusion.fuse_sequence`` maps each
chunk's frames as one stack, where it mapped them one frame at a time.
``io.write_trajectories`` writes an index of start frames and lengths and
a float64 positions sidecar, where it wrote every coordinate as decimal
text after its frame. ``fusion.reconstruct_boundary`` returns the window
it solves, where it returned a tracklet set over the whole span of both
sources, with blended confidences. ``metrics.dense_epe`` reads its
samples frame by frame and aligns them by a solve in two streaming passes;
``dense_epe`` here is the whole-array solve it replaced, which the EPE
now matches within a stated tolerance, not to the bit. The functions here
are the replaced code, so the tests can check that every output bit
stayed the same; ``streamed_dense_epe`` is a frozen plain copy of the
streaming EPE, to which ``metrics.dense_epe`` is pinned bit for bit.
"""

import math
from itertools import islice
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from chunkfuse.association import VEL_EPS, MatchSet
from chunkfuse.errors import (
    DegenerateConfiguration,
    InvalidSpec,
    KeyMismatch,
    MalformedContainer,
    NotEnoughPoints,
    WindowTooShort,
)
from chunkfuse.fusion import Trajectory, _pixel_tracks, blend_weights, solve_tridiagonal
from chunkfuse.model import (
    Chunk,
    FramePrediction,
    PipelineConfig,
    Pose,
    SimilarityTransform,
    TrackletSet,
    finite3,
    norm3,
)
from chunkfuse.registration import GAMMA_C, RANK_TOL, _median_distance
from chunkfuse.synthetic import (
    GroundTruth,
    _cast_all,
    _focal,
    _look_at_rotations,
    _object_offsets,
    _pixel_directions,
)


def same_bits(a, b) -> bool:
    """Equal shapes, NaN at the same places, and identical bytes elsewhere
    (so -0.0 and 0.0 differ)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def apply(T: SimilarityTransform, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return T.scale * (x @ T.rotation.T) + T.translation


def inverse(p: Pose) -> Pose:
    Rt = p.rotation.T
    return Pose(Rt, -Rt @ p.translation, _tol=max(p._tol, 1e-8))


def compose(a: Pose, b: Pose) -> Pose:
    """Pose equivalent to applying ``b`` first, then ``a``."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation,
                _tol=max(a._tol, b._tol, 1e-8))


def rotation_angle_deg(R) -> float:
    arg = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.degrees(np.arccos(arg)))


def rpe(pred, gt, delta: int = 1) -> tuple[float, float]:
    if len(pred) != len(gt):
        raise ValueError(f"pose lists differ in length: {len(pred)} vs {len(gt)}")
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if len(pred) <= delta:
        raise NotEnoughPoints(f"need more than delta={delta} poses, got {len(pred)}")
    trans_sq, rot_sq = [], []
    for t in range(len(pred) - delta):
        rel_pred = compose(inverse(pred[t]), pred[t + delta])
        rel_gt = compose(inverse(gt[t]), gt[t + delta])
        err = compose(inverse(rel_gt), rel_pred)
        trans_sq.append((err.translation**2).sum())
        rot_sq.append(rotation_angle_deg(err.rotation) ** 2)
    return float(np.sqrt(np.mean(trans_sq))), float(np.sqrt(np.mean(rot_sq)))


def weighted_moments(src, dst, weights):
    src = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    w = np.asarray(weights, dtype=np.float64).ravel()
    if not (len(src) == len(dst) == len(w)):
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
    var_src = float((w * (src_c**2).sum(axis=1)).sum() / wsum)
    return src_c, dst_c, w, wsum, mu_src, mu_dst, cov, var_src


def rotation_from_cov(cov, src_c, w, wsum):
    src_cov = (src_c * w[:, None]).T @ src_c / wsum
    svals = np.linalg.svd(src_cov, compute_uv=False)
    if svals[1] < RANK_TOL * max(svals[0], RANK_TOL):
        raise DegenerateConfiguration("rank < 2")
    U, D, Vt = np.linalg.svd(cov)
    S = np.ones(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[-1] = -1.0
    return (U * S) @ Vt, D, S


def solve_weighted_similarity(src, dst, weights) -> SimilarityTransform:
    src_c, _, w, wsum, mu_src, mu_dst, cov, var_src = weighted_moments(src, dst, weights)
    R, D, S = rotation_from_cov(cov, src_c, w, wsum)
    scale = float((D * S).sum() / var_src)
    if scale <= 0 or not np.isfinite(scale):
        raise DegenerateConfiguration(f"non-positive recovered scale {scale}")
    return SimilarityTransform(scale, R, mu_dst - scale * (R @ mu_src))


def solve_weighted_rigid(src, dst, weights, scale: float = 1.0) -> SimilarityTransform:
    src = np.asarray(src, dtype=np.float64) * scale
    src_c, _, w, wsum, mu_src, mu_dst, cov, _ = weighted_moments(src, dst, weights)
    R, _, _ = rotation_from_cov(cov, src_c, w, wsum)
    return SimilarityTransform(scale, R, mu_dst - R @ mu_src)


def trajectory_table(points) -> dict:
    """``GroundTruth.trajectory_table`` over a (T, H, W, 3) stack."""
    _, H, W, _ = points.shape
    return {(r, c): points[:, r, c, :] for r in range(H) for c in range(W)}


def build_fused_table(fused) -> dict:
    points = np.stack([fp.points for fp in fused.frames])
    table = trajectory_table(points)
    for tr in getattr(fused, "trajectories", []):
        if not tr.sources:
            continue
        root = tr.sources[0][2]
        if root in table:
            track = table[root].copy()
            track[list(tr.frames)] = tr.positions
            table[root] = track
    return table


def stack_tables(pred, gt):
    if set(pred.keys()) != set(gt.keys()):
        raise KeyMismatch("trajectory tables disagree on seed pixels")
    keys = sorted(pred.keys())
    p = np.concatenate([np.asarray(pred[k], dtype=np.float64) for k in keys])
    g = np.concatenate([np.asarray(gt[k], dtype=np.float64) for k in keys])
    if p.shape != g.shape:
        raise KeyMismatch(f"trajectory tables disagree on shapes: {p.shape} vs {g.shape}")
    ok = np.isfinite(p).all(axis=1) & np.isfinite(g).all(axis=1)
    return p[ok], g[ok]


def dense_epe(pred, gt, align: bool = True) -> float:
    p, g = stack_tables(pred, gt)
    if len(p) == 0:
        raise NotEnoughPoints("no finite trajectory samples to compare")
    if align:
        p = apply(solve_weighted_similarity(p, g, np.ones(len(p))), p)
    return float(np.linalg.norm(p - g, axis=1).mean())


# the rows of each block of the streamed solve
BLOCK_ROWS = 4096


def streamed_samples(pred, gt):
    """Both tables' samples over the sorted keys as (n, 3) arrays:
    frame-major (frame by frame, key by key) when every track of both has
    one (T, 3) shape, else key by key."""
    if set(pred.keys()) != set(gt.keys()):
        raise KeyMismatch("trajectory tables disagree on seed pixels")
    keys = sorted(pred.keys())
    sides = [[np.asarray(table[k], dtype=np.float64) for k in keys] for table in (pred, gt)]
    shapes = {track.shape for side in sides for track in side}
    if len(shapes) == 1 and len(sides[0][0].shape) == 2 and sides[0][0].shape[1] == 3:
        p, g = (np.stack(side, axis=1).reshape(-1, 3) for side in sides)
    else:
        p, g = (np.concatenate(side) for side in sides)
    if p.shape != g.shape:
        raise KeyMismatch(f"trajectory tables disagree on shapes: {p.shape} vs {g.shape}")
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError("tracks must be (T, 3) arrays")
    return p, g


def shifted_blocks(p, g):
    """``[p - p[0], 1, g - g[0]]`` for each block of rows, in Fortran
    order: numpy hands BLAS a product's operands by their layout, and the
    rounding of a small product depends on it."""
    for i in range(0, len(p), BLOCK_ROWS):
        a, b = p[i:i + BLOCK_ROWS] - p[0], g[i:i + BLOCK_ROWS] - g[0]
        yield np.asfortranarray(np.column_stack([a, np.ones(len(a)), b]))


def streamed_similarity(p, g, finite: bool):
    n = len(p)
    if n < 3:
        raise NotEnoughPoints(f"need >= 3 samples to align, got {n}")
    m = np.zeros((7, 4))
    for x in shifted_blocks(p, g):
        m += x.T @ x[:, :4]
    if not (finite or np.isfinite(m).all()):
        return None
    mu_a, mu_b = m[:3, 3] / n, m[4:, 3] / n
    src_cov = m[:3, :3] / n - np.outer(mu_a, mu_a)
    cov = m[4:, :3] / n - np.outer(mu_b, mu_a)
    svals = np.linalg.svd(src_cov, compute_uv=False)
    if svals[1] < RANK_TOL * max(svals[0], RANK_TOL):
        raise DegenerateConfiguration("rank < 2")
    U, D, Vt = np.linalg.svd(cov)
    S = np.ones(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[-1] = -1.0
    R = (U * S) @ Vt
    scale = float((D * S).sum() / float(np.trace(src_cov)))
    if scale <= 0 or not np.isfinite(scale):
        raise DegenerateConfiguration(f"non-positive recovered scale {scale}")
    return SimilarityTransform(scale, R, mu_b - scale * (R @ mu_a))


def norm_sum(d) -> float:
    return float(np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]).sum())


def streamed_mean_error(p, g, align: bool, finite: bool) -> float:
    if len(p) == 0:
        raise NotEnoughPoints("no finite trajectory samples to compare")
    total = 0.0
    if align:
        T = streamed_similarity(p, g, finite)
        if T is None:
            return float("nan")
        M = np.concatenate([T.scale * T.rotation.T, T.translation[None]])
        for x in shifted_blocks(p, g):
            # the product into a Fortran-ordered result, as dense_epe forms it
            d = np.matmul(x[:, :4], M, out=np.empty((len(x), 3), order="F"))
            total += norm_sum(d - x[:, 4:])
    else:
        for i in range(0, len(p), BLOCK_ROWS):
            total += norm_sum(p[i:i + BLOCK_ROWS] - g[i:i + BLOCK_ROWS])
    return total / len(p)


def streamed_dense_epe(pred, gt, align: bool = True) -> float:
    """``metrics.dense_epe`` with the samples in frame-major order and the
    solve in two streaming passes: the moments of the samples shifted by
    the first one, summed block by block, then the residual norms."""
    p, g = streamed_samples(pred, gt)
    epe = streamed_mean_error(p, g, align, finite=False)
    if not np.isfinite(epe):
        ok = finite3(p) & finite3(g)
        epe = streamed_mean_error(p[ok], g[ok], align, finite=True)
    return epe


def dense_epe_tolerance(pred, gt, align: bool, epe: float) -> float:
    """A bound on the gap between ``metrics.dense_epe`` and ``dense_epe``
    here, the streamed and the whole-array solve, where the latter gives
    ``epe``:

        2^6 u (kappa L + log2(n + 1) epe),  u = 2^-53,

    over the n samples finite in both tables. L is the largest term the
    whole-array solve forms a residual from: a coordinate of the scaled
    prediction, of the translation, of ``gt`` or of the aligned prediction
    (of the prediction and ``gt`` without ``align``); kappa is the
    condition number sqrt(lmax / lmin) of the predicted samples' covariance
    (1 without ``align``).

    The bound is derived, not fitted, per solve: (a) a residual component is
    formed from terms of up to L in at most six rounded operations, so a
    norm moves by at most sqrt(3) 6 u L, about 10 u L; (b) the rounding of
    the centroids and moments moves the translation by a few u L and the
    rotation and scale by at most kappa times their relative error, about
    16 u kappa L in a residual; (c) the mean of the norms rounds within
    log2(n + 1) u epe for a pairwise sum, and the streamed solve's
    sequential sum of its block totals adds n / 4096 terms, fewer than
    2^6 log2(n + 1) for any n. Twice (a) plus twice (b) is 53 u kappa L,
    which 2^6 covers.
    """
    p, g = stack_tables(pred, gt)
    kappa, terms = 1.0, [p, g]
    if align:
        eig = np.linalg.eigvalsh(np.cov(p.T, bias=True))
        kappa = math.sqrt(eig[-1] / eig[0]) if eig[0] > 0 else math.inf
        T = solve_weighted_similarity(p, g, np.ones(len(p)))
        terms = [T.scale * p, T.translation, g, apply(T, p)]
    L = max(np.abs(t).max() for t in terms)
    return 2.0**6 * 2.0**-53 * (kappa * L + math.log2(len(p) + 1) * epe)


def assign(candidates, costs, n_i: int, n_j: int, cfg) -> MatchSet:
    pairs = np.asarray(candidates, dtype=np.intp).reshape(-1, 2)
    costs = np.asarray(costs, dtype=np.float64)
    keep = np.isfinite(costs) & (costs >= 0.0) & (costs <= cfg.cost_max)
    a, b, c = pairs[keep, 0], pairs[keep, 1], costs[keep]
    matched = []
    if len(a):
        n = n_i + n_j
        graph = coo_matrix((np.ones(len(a)), (a, n_i + b)), shape=(n, n))
        _, label = connected_components(graph, directed=False)
        comp = label[a]
        order = np.argsort(comp, kind="stable")
        for edges in np.split(order, np.flatnonzero(np.diff(comp[order])) + 1):
            rows, ra = np.unique(a[edges], return_inverse=True)
            cols, cb = np.unique(b[edges], return_inverse=True)
            nr, nc = len(rows), len(cols)
            M = np.full((nr + nc, nc + nr), np.inf)
            M[ra, cb] = c[edges]
            M[np.arange(nr), nc + np.arange(nr)] = cfg.cost_max
            M[nr + np.arange(nc), np.arange(nc)] = cfg.cost_max
            M[nr:, nc:] = 0.0
            rr, cc = linear_sum_assignment(M)
            real = (rr < nr) & (cc < nc)
            rr, cc = rr[real], cc[real]
            matched += zip(rows[rr].tolist(), cols[cc].tolist(), M[rr, cc].tolist())
    matched.sort()
    taken_i = np.zeros(n_i, dtype=bool)
    taken_j = np.zeros(n_j, dtype=bool)
    taken_i[[m[0] for m in matched]] = True
    taken_j[[m[1] for m in matched]] = True
    return MatchSet(
        matches=tuple(matched),
        unmatched_i=tuple(np.flatnonzero(~taken_i).tolist()),
        unmatched_j=tuple(np.flatnonzero(~taken_j).tolist()),
    )


def pair_cost(tracklets_i, tracklets_j, candidates, cfg, scene_scale) -> np.ndarray:
    if tracklets_i.frames != tracklets_j.frames:
        raise ValueError("pair costs need both tracklet sets over the same frames")
    pa = tracklets_i.positions[candidates[:, 0]]
    pb = tracklets_j.positions[candidates[:, 1]]

    l_traj = norm3(pa - pb).mean(axis=-1) / scene_scale

    va = np.diff(pa, axis=1)
    vb = np.diff(pb, axis=1)
    sa = norm3(va)
    sb = norm3(vb)
    l_vel = (np.abs(sa - sb) / (sa + sb + VEL_EPS)).mean(axis=-1)

    cos = np.clip((va * vb).sum(axis=-1) / (sa * sb + VEL_EPS**2), -1.0, 1.0)
    l_dir = ((1.0 - cos) / 2.0).mean(axis=-1)

    cost = l_traj + cfg.lambda_vel * l_vel + cfg.lambda_dir * l_dir
    return np.where((l_traj > cfg.traj_cap) | (l_dir > cfg.dir_cap), np.inf, cost)


def map_frame(fp: FramePrediction, G: SimilarityTransform) -> FramePrediction:
    return FramePrediction(
        points=G.apply(fp.points),
        confidence=fp.confidence,
        pose=G.apply_pose(fp.pose),
        frame_index=fp.frame_index,
    )


def same_pixel_prf(junctions) -> tuple[float, float, float]:
    """Association P/R/F1 of ``matches.json`` records, a match correct when
    both tracklets sit at the same pixel, counts pooled over junctions."""
    correct = predicted = actual = 0
    for pair in junctions:
        pix_j = {tuple(t[1:3]): t[0] for t in pair["tracklets_j"]}
        truth = {
            t[0]: pix_j[tuple(t[1:3])]
            for t in pair["tracklets_i"]
            if tuple(t[1:3]) in pix_j
        }
        pred_pairs = {(m[0], m[1]) for m in pair["matches"]}
        true_pairs = set(truth.items())
        correct += len(pred_pairs & true_pairs)
        predicted += len(pred_pairs)
        actual += len(true_pairs)
    precision = correct / predicted if predicted else 0.0
    recall = correct / actual if actual else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def chunk_scene_scale(chunk, frames) -> float:
    """Median camera-to-point distance of one chunk over the given frames,
    in that chunk's own gauge."""
    preds = [chunk.frames[f - chunk.start_frame] for f in frames]
    pts = np.stack([p.points for p in preds])
    cnf = np.stack([p.confidence for p in preds])
    centers = np.stack([p.pose.center for p in preds])
    return _median_distance(pts, cnf, centers)


def build_tracklets(chunk, overlap_frames, dynamic_mask, cfg) -> TrackletSet:
    """Tracklets of one chunk over the overlap, with the minimum net
    displacement taken from ``min_displacement``, else ``gamma_stat_frac``
    times the chunk's own scene scale, and positions mapped by the identity
    gauge, as the fuse passed it."""
    frames = sorted(set(int(f) for f in overlap_frames))
    if cfg.min_displacement is not None:
        min_disp = cfg.min_displacement
    else:
        min_disp = cfg.gamma_stat_frac * chunk_scene_scale(chunk, frames)

    rows, cols = np.nonzero(dynamic_mask)
    stride = cfg.seed_stride
    keep = (rows % stride == 0) & (cols % stride == 0)
    rows, cols = rows[keep], cols[keep]

    preds = [chunk.frames[f - chunk.start_frame] for f in frames]
    pos = np.stack([p.points[rows, cols] for p in preds], axis=1)
    cnf = np.stack([p.confidence[rows, cols] for p in preds], axis=1)
    with np.errstate(invalid="ignore"):
        disp = norm3(pos[:, -1] - pos[:, 0])
    keep = (cnf.mean(axis=1) > GAMMA_C) & finite3(pos).all(axis=1)
    keep &= disp >= min_disp
    return TrackletSet(
        start_frame=frames[0],
        pixels=np.stack([rows[keep], cols[keep]], axis=1),
        positions=SimilarityTransform.identity().apply(pos[keep]),
        conf=cnf[keep],
    )


def window_data(tracks: TrackletSet, window: range):
    """Positions and confidences of ``tracks`` over the frames of
    ``window``, with a (N, len(window)) mask of where a position is given
    and finite; positions and confidences are zero elsewhere."""
    frames = tracks.frames
    lo = max(window.start, frames.start)
    hi = max(lo, min(window.stop, frames.stop))
    into = slice(lo - window.start, hi - window.start)
    src = slice(lo - frames.start, hi - frames.start)
    pos = np.full((len(tracks), len(window), 3), np.nan)
    pos[:, into] = tracks.positions[:, src]
    conf = np.zeros(pos.shape[:2])
    conf[:, into] = tracks.conf[:, src]
    has = finite3(pos)
    pos[~has] = 0.0
    return pos, conf, has


def reconstruct_boundary(
    d_a: TrackletSet,
    d_b_aligned: TrackletSet,
    window: range,
    cfg: PipelineConfig,
) -> TrackletSet:
    """Continuity reconstruction over ``window``, a range of consecutive
    frames around the junction, for every row pair (d_a[k],
    d_b_aligned[k]) at once.

    Minimizes, per row and coordinate,
      sum_t alpha_t ||x_t - a_t||^2 + beta_t ||x_t - b_t||^2
      + lambda_sm * sum ||x_t - x_{t-1}||^2,
    a symmetric tridiagonal quadratic solved exactly by one batched Thomas
    solve. alpha/beta follow a cos^2 ramp across the window; where only one
    source covers a frame with a finite position it receives the full unit
    data weight, and a frame neither covers gets zero data weight and
    confidence 0, so the smoothness chain fills it in. With lambda_sm == 0
    nothing fills such a frame, and it comes back NaN. The chain is
    anchored to the fixed neighbors just outside the window when the
    sources extend there. The result runs from d_a's first frame to
    d_b_aligned's last: d_a's frames before the window and d_b_aligned's
    after it are copied verbatim, so the window must start within d_a or
    just after it, and end within d_b_aligned or just before it.
    """
    if len(window) < 2:
        raise WindowTooShort(f"boundary window needs >= 2 frames, got {len(window)}")
    fa, fb = d_a.frames, d_b_aligned.frames
    if not (fa.start <= window.start <= fa.stop and fb.start <= window.stop <= fb.stop):
        raise ValueError(f"boundary window {window} leaves a gap to sources over {fa} and {fb}")
    if len(d_a) != len(d_b_aligned):
        raise ValueError("boundary sources must pair up row by row")
    m = len(window)

    A, ca, has_a = window_data(d_a, window)
    B, cb, has_b = window_data(d_b_aligned, window)
    ramp_a, ramp_b = blend_weights(m)
    alpha = np.where(has_a, np.where(has_b, ramp_a, 1.0), 0.0)
    beta = np.where(has_b, np.where(has_a, ramp_b, 1.0), 0.0)

    lam = cfg.lambda_sm
    diag = alpha + beta + lam * 2.0
    diag[:, 0] -= lam
    diag[:, -1] -= lam
    rhs = alpha[..., None] * A + beta[..., None] * B

    anchor_a, _, has_prev = window_data(d_a, range(window.start - 1, window.start))
    anchor_b, _, has_next = window_data(d_b_aligned, range(window.stop, window.stop + 1))
    has_prev, has_next = has_prev[:, 0], has_next[:, 0]
    diag[has_prev, 0] += lam
    rhs[has_prev, 0] += lam * anchor_a[has_prev, 0]
    diag[has_next, -1] += lam
    rhs[has_next, -1] += lam * anchor_b[has_next, 0]

    if lam > 0:
        off = np.full(m - 1, -lam)
        x = solve_tridiagonal(off, diag.T[..., None], off, rhs.transpose(1, 0, 2)).transpose(1, 0, 2)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            x = rhs / diag[..., None]
    w = alpha + beta
    conf = np.divide(alpha * ca + beta * cb, w, out=np.zeros_like(w), where=w > 0)

    before = slice(window.start - fa.start)
    after = slice(window.stop - fb.start, None)
    return TrackletSet(
        start_frame=fa.start,
        pixels=d_a.pixels,
        positions=np.concatenate(
            [d_a.positions[:, before], x, d_b_aligned.positions[:, after]], axis=1
        ),
        conf=np.concatenate([d_a.conf[:, before], conf, d_b_aligned.conf[:, after]], axis=1),
    )


class TrajectoryBuilder:
    """Positions over consecutive frames from ``start``, and the
    (chunk, tracklet id, pixel) sources they were stitched from."""

    def __init__(self, traj_id: int, start: int, positions: np.ndarray, source):
        self.traj_id = traj_id
        self.start = start
        self.positions = positions
        self.sources = [source]

    def write_from(self, frame: int, positions: np.ndarray):
        """Replace everything from ``frame`` on by ``positions``."""
        self.positions = np.concatenate([self.positions[: frame - self.start], positions])

    def finish(self) -> Trajectory:
        return Trajectory(
            trajectory_id=self.traj_id,
            frames=tuple(range(self.start, self.start + len(self.positions))),
            positions=self.positions,
            sources=tuple(self.sources),
        )


class Stitcher:
    """Grows long-range trajectories junction by junction.

    A trajectory stays open while the pixel of its newest tracklet is
    matched again at the next junction; ``open`` maps those pixels of the
    newest chunk to their builders.
    """

    def __init__(self):
        self.builders: list[TrajectoryBuilder] = []
        self.open: dict[tuple[int, int], TrajectoryBuilder] = {}

    def _start(self, chunk: Chunk, tracks: TrackletSet, row: int, tracklet_id: int):
        """A new trajectory from row ``row`` of ``tracks``, which start with
        ``chunk``; its first source is tracklet ``tracklet_id`` of ``chunk``."""
        pixel = tuple(tracks.pixels[row].tolist())
        builder = TrajectoryBuilder(len(self.builders), chunk.start_frame,
                                    tracks.positions[row], (chunk.chunk_id, tracklet_id, pixel))
        self.builders.append(builder)
        return builder

    def junction(self, prev: Chunk, cur: Chunk, G_prev: SimilarityTransform,
                 G_cur: SimilarityTransform, raw_i: TrackletSet, raw_j: TrackletSet,
                 match_set: MatchSet, cfg: PipelineConfig):
        """Stitch the matches of one junction across its boundary window.

        Every match shares the window [junction - bw + 1, junction + bw],
        with half width bw = ``cfg.overlap``, clipped to the two chunks, and
        all are reconstructed in one solve. A match whose window cannot be
        reconstructed is handled as two unmatched tracklets.
        """
        bw = cfg.overlap
        junction = prev.end_frame
        window = range(max(junction - bw + 1, prev.start_frame), min(junction + bw, cur.end_frame) + 1)
        pairs = match_set.pairs()
        rows_a, rows_b = pairs[:, 0], pairs[:, 1]
        tracks_i = _pixel_tracks(prev, raw_i.pixels, G_prev)
        tracks_j = _pixel_tracks(cur, raw_j.pixels, G_cur)
        # each row runs from prev's first frame to cur's last
        rebuilt = reconstruct_boundary(tracks_i.take(rows_a), tracks_j.take(rows_b), window, cfg)
        tail = rebuilt.positions[:, window[0] - prev.start_frame:]
        stitched = finite3(tail[:, : len(window)]).all(axis=1)

        new_open: dict[tuple[int, int], TrajectoryBuilder] = {}
        for k in np.flatnonzero(stitched).tolist():
            a, b = int(rows_a[k]), int(rows_b[k])
            builder = self.open.pop(tuple(raw_i.pixels[a].tolist()), None)
            if builder is None:
                builder = self._start(prev, rebuilt, k, a)
            else:
                builder.write_from(window[0], tail[k])
            pixel_b = tuple(raw_j.pixels[b].tolist())
            builder.sources.append((cur.chunk_id, b, pixel_b))
            new_open[pixel_b] = builder

        for a in sorted([*match_set.unmatched_i, *rows_a[~stitched].tolist()]):
            if self.open.pop(tuple(raw_i.pixels[a].tolist()), None) is None:
                self._start(prev, tracks_i, a, a)
        for b in sorted([*match_set.unmatched_j, *rows_b[~stitched].tolist()]):
            new_open[tuple(raw_j.pixels[b].tolist())] = self._start(cur, tracks_j, b, b)
        self.open = new_open

    def finish(self) -> list[Trajectory]:
        return [b.finish() for b in self.builders]


def cast_frame(o, dirs, spec, offsets_t, s_cap=np.inf, limit=None):
    """The cast of one frame's rays ``dirs`` from ``o``, with the objects
    at ``offsets_t`` from their positions, as a block of one frame."""
    centers = np.array([obj.position for obj in spec.objects], dtype=np.float64).reshape(-1, 3) + offsets_t
    s, owner = _cast_all(o[None], dirs[None], spec, centers.reshape(1, -1, 3),
                         np.asarray(s_cap)[None], None if limit is None else limit[None])
    return s[0], owner[0]


def generate(spec):
    """``synthetic.generate`` with one visibility cast per frame."""
    if not spec.objects and spec.background.amplitude == 0.0 and spec.camera.kind == "dolly" \
            and spec.camera.velocity == (0.0, 0.0, 0.0) and spec.camera.accel == (0.0, 0.0, 0.0):
        # A featureless static wall with a static camera carries no scene
        # content at all; treat as an authoring error.
        raise InvalidSpec("scene is empty: no objects and no background relief or camera motion")
    positions = spec.camera.positions(spec.num_frames)
    target = np.asarray(spec.camera.target, dtype=np.float64)
    wall_limit = spec.background.distance - abs(spec.background.amplitude)
    if (positions[:, 2] >= wall_limit - 0.25).any():
        raise InvalidSpec("camera path runs into the background wall")
    rig = np.zeros((spec.num_frames, 4, 4))
    rig[:, :3, :3] = _look_at_rotations(positions, target)
    rig[:, :3, 3] = positions
    rig[:, 3, 3] = 1.0
    poses = list(Pose.from_matrices(rig))

    offsets = _object_offsets(spec)
    dirs_cam = _pixel_directions(spec.height, spec.width)
    R0 = poses[0].rotation
    dirs0 = dirs_cam @ R0.T
    o0 = positions[0]
    s0, owner = cast_frame(o0, dirs0, spec, offsets[:, 0] if spec.objects else offsets[:, :0])
    if not np.isfinite(s0).all():
        raise InvalidSpec("some pixels hit no surface; widen the background or narrow the fov")
    bound = o0 + s0[..., None] * dirs0

    # Each pixel moves with its owner's offsets; row -1 of the padded
    # offsets is zero, for the wall.
    padded = np.zeros((spec.num_frames, len(spec.objects) + 1, 3))
    padded[:, :-1] = offsets.transpose(1, 0, 2)
    points = np.take(padded, owner, axis=1)
    points += bound

    cam_centers = positions
    dists = norm3(points - cam_centers[:, None, None, :])
    scene_scale = float(np.median(dists))
    tol = 1e-6 * scene_scale

    visible = np.zeros((spec.num_frames, spec.height, spec.width), dtype=bool)
    focal = _focal(spec.width)
    cy, cx = (spec.height - 1) / 2.0, (spec.width - 1) / 2.0
    for t in range(spec.num_frames):
        o = positions[t]
        R = poses[t].rotation
        rel = (points[t] - o) @ R
        z = rel[..., 2]
        in_front = z > 1e-6
        with np.errstate(divide="ignore", invalid="ignore"):
            u = cx + focal * rel[..., 0] / z
            v = cy + focal * rel[..., 1] / z
        in_frame = in_front & (u >= -0.5) & (u <= spec.width - 0.5) & (v >= -0.5) & (v <= spec.height - 0.5)
        dist = norm3(points[t] - o)
        rays = (points[t] - o) / np.maximum(dist, 1e-12)[..., None]
        s_hit, _ = cast_frame(o, rays, spec, offsets[:, t] if spec.objects else offsets[:, :0],
                              s_cap=dist + tol, limit=dist - tol)
        unoccluded = s_hit >= dist - tol
        vis = in_frame & unoccluded
        for m, obj in enumerate(spec.objects):
            if not obj.forced_visible(t):
                vis &= owner != m
        visible[t] = vis

    return GroundTruth(
        spec=spec,
        points=points,
        poses=poses,
        object_ids=owner.astype(np.int32),
        visible=visible,
        scene_scale=scene_scale,
    )


def write_trajectories(trajectories: list[Trajectory], path) -> None:
    """One trajectory per line: id, then flattened (frame, x, y, z) tuples."""
    positions = [tr.positions for tr in trajectories] or [np.empty((0, 3))]
    coords = map(repr, np.concatenate(positions).ravel().tolist())
    # zip over one iterator three times groups the coordinates by point
    points = map("%s %s %s".__mod__, zip(coords, coords, coords))
    lines = []
    for tr in trajectories:
        parts = [str(tr.trajectory_id)]
        parts += map("%d %s".__mod__, zip(tr.frames, islice(points, len(tr.frames))))
        lines.append(" ".join(parts))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_trajectories(path) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Parsed trajectory records: (id, int64 frames, (n, 3) positions).
    MalformedContainer for a record that is not an integer id followed by
    (frame, x, y, z) groups with integer frames."""
    out = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        tokens = line.split()
        try:
            if (len(tokens) - 1) % 4 != 0:
                raise ValueError("not an id and (frame, x, y, z) groups")
            tid = int(tokens[0])
            frames = np.asarray(tokens[1::4], dtype=np.int64)
            del tokens[1::4]
            positions = np.asarray(tokens[1:], dtype=np.float64).reshape(-1, 3)
        except (ValueError, OverflowError) as e:
            raise MalformedContainer(f"bad trajectory record {line[:60]}...: {e}") from e
        out.append((tid, frames, positions))
    return out
