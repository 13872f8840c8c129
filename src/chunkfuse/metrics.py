"""Evaluation protocols: trajectory alignment, ATE, RPE, dense tracking
end-point error, and association precision/recall at the object and the
point level (``junction_prf``).

Dense EPE compares two trajectory tables, mappings from seed pixel (r, c)
to a (T, 3) track. ``build_fused_table`` and ``GroundTruth.trajectory_table``
return a :class:`~chunkfuse.model.TrackTable`: one read-only (N, T, 3)
array with every pixel of the grid in sorted (row-major) order. The array
may be a strided view: the ground truth's is a view of its (T, H, W, 3)
points. ``dense_epe`` reads both arrays as they are, in that order,
without a copy. Any other mapping, such as a dict of a subset of seeds or
of tracks of different lengths, is concatenated key by key in sorted
order, which gives the same samples in the same order.

The EPE is the same to the last bit whichever way the samples arrive, and
the same as whole-array numpy expressions would give: the column-wise
kernels in ``registration`` and ``SimilarityTransform.apply`` perform the
same float operations in the same order (sequential axis-0 sums, ``(a + b)
+ c`` over a length-3 axis, unchanged BLAS operand layouts), only with
fewer passes and temporaries. The solve takes unit weights as
``weights=None``, which skips every multiply by 1.0 and keeps the bits;
its two gemm operands stay (n, 3) rows, since gemm rounds a planar (3, n)
operand differently at some sizes. No finiteness pass comes first: the
centroid sums (the mean, unaligned) are finite only when every sample is,
and a non-finite one sends the tables through the masked path that drops
the samples non-finite in either. The residual is formed in the solve's
freed centred-source buffer, through ``SimilarityTransform.apply``'s
``out``.

The pose metrics read a pose sequence as one (n, 3, 3) rotation stack and
one (n, 3) translation stack. ``rpe`` forms every inverse, relative motion
and error motion as a whole-stack product and checks each derived
rotation stack once, at the tolerance a per-pose ``Pose`` would have had.
A stacked ``matmul`` rounds as the per-pose product does only when each
operand keeps its per-pose layout, so an inverse's translation multiplies
by the transposed view and a composition by the contiguous copy.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from .association import MatchSet
from .errors import DegenerateConfiguration, KeyMismatch, NotEnoughPoints
from .model import (
    Pose,
    SimilarityTransform,
    TrackTable,
    check_poses,
    finite3,
    norm3,
    stack_poses,
)
from .registration import solve_finite_similarity, solve_weighted_similarity

# the bytes of table rows build_fused_table fills frame by frame at a time:
# a block this size stays in a per-core second-level cache of 2 MiB or more
_FILL_BLOCK_BYTES = 2 << 20


def rotation_angle_deg(R: np.ndarray):
    """Rotation angle in degrees of a (3, 3) rotation, or of each of an
    (n, 3, 3) stack, with the arccos argument clamped against drift. The
    trace is summed as ``np.trace`` sums it, ``(R00 + R11) + R22``."""
    trace = R[..., 0, 0] + R[..., 1, 1] + R[..., 2, 2]
    return np.degrees(np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0)))


def _centers(poses: Sequence[Pose]) -> np.ndarray:
    return np.stack([p.center for p in poses])


def align_trajectories(pred: Sequence[Pose], gt: Sequence[Pose]) -> SimilarityTransform:
    """Least-squares similarity (Sim(3)) alignment of predicted camera
    centers onto ground truth, the gauge freedom of a monocular prediction.

    Falls back to a translation-only alignment when the centers are
    collinear or coincident.
    """
    if len(pred) != len(gt):
        raise ValueError(f"pose lists differ in length: {len(pred)} vs {len(gt)}")
    if len(pred) < 3:
        raise NotEnoughPoints("alignment needs at least 3 poses")
    src = _centers(pred)
    dst = _centers(gt)
    try:
        return solve_weighted_similarity(src, dst, None)
    except DegenerateConfiguration:
        return SimilarityTransform(1.0, np.eye(3), dst.mean(axis=0) - src.mean(axis=0))


def ate(pred: Sequence[Pose], gt: Sequence[Pose]) -> float:
    """RMS camera-center distance after Sim(3) gauge alignment."""
    T = align_trajectories(pred, gt)
    err = norm3(T.apply(_centers(pred)) - _centers(gt))
    return float(np.sqrt((err**2).mean()))


def _checked(R: np.ndarray, t: np.ndarray, tol: np.ndarray):
    """A derived pose stack, checked as :class:`Pose` checks each pose."""
    check_poses(R, t, tol)
    return R, t, tol


def _inverse(R: np.ndarray, t: np.ndarray, tol: np.ndarray):
    """Each pose's inverse, stacked. The rotation is the contiguous copy of
    the transpose that a ``Pose`` stores; the translation ``-Rt @ t``
    multiplies the transposed views, as one pose's product does."""
    Rt = R.transpose(0, 2, 1)
    t_inv = (-Rt @ t[..., None])[..., 0]
    return _checked(np.ascontiguousarray(Rt), t_inv, np.maximum(tol, 1e-8))


def _compose(a, b):
    """Each pose of ``a`` composed with the one of ``b`` at the same index,
    stacked: ``b`` applied first, then ``a``."""
    (Ra, ta, tol_a), (Rb, tb, tol_b) = a, b
    tol = np.maximum(np.maximum(tol_a, tol_b), 1e-8)
    return _checked(Ra @ Rb, (Ra @ tb[..., None])[..., 0] + ta, tol)


def rpe(pred: Sequence[Pose], gt: Sequence[Pose], delta: int = 1) -> tuple[float, float]:
    """Relative pose error over all index pairs (t, t + delta).

    Returns (translation RMS, rotation RMS in degrees) of the error motion
    inv(rel_gt) @ rel_pred, where rel = inv(pose[t]) @ pose[t + delta].

    The inverses and products are formed over whole stacks, and each
    derived rotation stack is checked once at the tolerance its per-pose
    :class:`Pose` would have, ``max(tol_a, tol_b, 1e-8)``; a derived
    rotation that fails raises ValueError. Every stacked product has the
    operand layouts the per-pose product had, so the figures keep its bits:
    an inverse's translation multiplies by the transposed view, a
    composition by the contiguous copy of the transpose.
    """
    if len(pred) != len(gt):
        raise ValueError(f"pose lists differ in length: {len(pred)} vs {len(gt)}")
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if len(pred) <= delta:
        raise NotEnoughPoints(f"need more than delta={delta} poses, got {len(pred)}")

    def relative(poses):
        R, t, tol = stack_poses(poses)
        return _compose(_inverse(R[:-delta], t[:-delta], tol[:-delta]),
                        (R[delta:], t[delta:], tol[delta:]))

    rel_gt = relative(gt)
    R, t, _ = _compose(_inverse(*rel_gt), relative(pred))
    trans_sq = t[:, 0] * t[:, 0] + t[:, 1] * t[:, 1] + t[:, 2] * t[:, 2]
    # squared as Python floats: x ** 2 there is libm's pow, which rounds
    # unlike x * x in about one case in a thousand
    rot_sq = [a**2 for a in rotation_angle_deg(R).tolist()]
    return float(np.sqrt(np.mean(trans_sq))), float(np.sqrt(np.mean(rot_sq)))


TrajectoryTable = Mapping[tuple[int, int], np.ndarray]


def _stack_tables(pred: TrajectoryTable, gt: TrajectoryTable):
    """Predicted and ground-truth samples over the sorted keys, frame by
    frame, holes included.

    Two :class:`TrackTable` over the same seeds hand over their (N, T, 3)
    ``tracks`` as they are, views included; any other pair of tables gives
    (M, 3) copies.
    """
    if isinstance(pred, TrackTable) and isinstance(gt, TrackTable) and pred.same_keys(gt):
        p, g = pred.tracks, gt.tracks
    else:
        if set(pred.keys()) != set(gt.keys()):
            missing = set(gt.keys()) - set(pred.keys())
            extra = set(pred.keys()) - set(gt.keys())
            raise KeyMismatch(
                f"trajectory tables disagree on seed pixels ({len(missing)} missing, {len(extra)} extra)"
            )
        keys = sorted(pred.keys())
        p = np.concatenate([np.asarray(pred[k], dtype=np.float64) for k in keys])
        g = np.concatenate([np.asarray(gt[k], dtype=np.float64) for k in keys])
    if p.shape != g.shape:
        raise KeyMismatch(f"trajectory tables disagree on shapes: {p.shape} vs {g.shape}")
    return p, g


def _mean_error(p: np.ndarray, g: np.ndarray, align: bool, finite: bool):
    """Mean distance of the (..., 3) samples ``p`` (aligned onto ``g``
    first) from ``g``. Unless every sample is known to be ``finite``, None
    when a sum is not finite, which it is whenever some sample is not."""
    if p.size == 0:
        raise NotEnoughPoints("no finite trajectory samples to compare")
    if not align:
        d = (p - g).reshape(-1, 3)
    elif finite:
        d = solve_weighted_similarity(p, g, None).apply(p.reshape(-1, 3))
    else:
        solved = solve_finite_similarity(p, g)
        if solved is None:
            return None
        T, free = solved
        d = T.apply(p.reshape(-1, 3), out=free)
    if align:
        np.subtract(d.reshape(p.shape), g, out=d.reshape(p.shape))
    # norm3, in place: (x0 * x0 + x1 * x1) + x2 * x2 into column 0
    np.multiply(d, d, out=d)
    r = d[:, 0]
    r += d[:, 1]
    r += d[:, 2]
    epe = float(np.sqrt(r, out=r).mean())
    return epe if finite or math.isfinite(epe) else None


def dense_epe(pred: TrajectoryTable, gt: TrajectoryTable, align: bool = True) -> float:
    """Mean 3D distance over all tracked points and frames, over the samples
    finite in both tables.

    By default one global similarity alignment of the predicted scene onto
    the ground truth absorbs the monocular gauge freedom first; pass
    ``align=False`` to score raw coordinates.

    Two :class:`~chunkfuse.model.TrackTable` without holes are read in
    place, with no finiteness pass; the only arrays the size of the tables
    are the solve's two buffers, one of which then holds the residual (the
    difference itself, unaligned). A table with a hole takes the masked
    path (see the module docstring).
    """
    p, g = _stack_tables(pred, gt)
    epe = _mean_error(p, g, align, finite=False)
    if epe is None:
        ok = finite3(p) & finite3(g)
        epe = _mean_error(p[ok], g[ok], align, finite=True)
    return epe


def object_level_prf(
    matches: MatchSet,
    labels_i: Mapping[int, int],
    labels_j: Mapping[int, int],
) -> tuple[float, float, float]:
    """Precision/recall/F1 where a match is correct when both tracklets
    carry the same ground-truth identity label.

    Recall is taken against the maximum achievable number of same-label
    matches under the one-to-one constraint.
    """
    correct = sum(
        1
        for a, b, _ in matches.matches
        if a in labels_i and b in labels_j and labels_i[a] == labels_j[b]
    )
    count_i = Counter(labels_i.values())
    count_j = Counter(labels_j.values())
    achievable = sum(min(n, count_j.get(label, 0)) for label, n in count_i.items())
    predicted = len(matches.matches)
    precision = correct / predicted if predicted else 0.0
    recall = correct / achievable if achievable else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def junction_prf(junctions: Sequence[Mapping], labels: np.ndarray) -> tuple[float, float, float]:
    """Association precision/recall/F1 of the junction records of
    ``matches.json``, with the counts pooled over all junctions.

    A match is correct when the seed pixels of its two tracklets carry the
    same value in the (H, W) ground-truth ``labels``. ``object_ids`` gives
    the object-level score; one distinct value per pixel gives the
    point-level score, since the oracle binds each pixel to one surface
    point for the whole sequence. Recall is against the same-label pairs
    achievable one-to-one within each junction (:func:`object_level_prf`).
    """
    matches, labels_i, labels_j = [], {}, {}
    for k, pair in enumerate(junctions):
        # ids and labels carry the junction, so one call sums the per-junction counts
        for side, out in (("tracklets_i", labels_i), ("tracklets_j", labels_j)):
            out.update(((k, t), (k, int(labels[r, c]))) for t, r, c in pair[side])
        matches += [((k, m[0]), (k, m[1]), m[2]) for m in pair["matches"]]
    return object_level_prf(MatchSet(tuple(matches), (), ()), labels_i, labels_j)


def build_fused_table(fused) -> TrackTable:
    """Trajectory table of a fused scene, keyed by pixel.

    Per-pixel pointmap tracks, overridden by the associated long-range
    trajectories where one is rooted at the pixel; where several are
    rooted at the same pixel, the later one in ``fused.trajectories`` wins
    on the frames they share. A fuse lists them in id order, and gives ids
    in creation order, junction by junction, so start frames never
    decrease with id: the later one is the one with the later start frame,
    then the higher id. Each trajectory's frames are one increasing range,
    as :class:`~chunkfuse.fusion.Trajectory` requires. A trajectory rooted
    off the grid is ignored (``io.read_fused_trajectories`` refuses one).

    The (N, T, 3) tracks are allocated once and filled by blocks of about
    ``_FILL_BLOCK_BYTES`` of pixel rows, frame by frame within a block: a
    frame's samples lie one track apart, so a block small enough to stay in
    cache is written to memory once, where whole-table passes would fetch
    every line of the table once per few frames.
    """
    H, W = fused.frames[0].points.shape[:2]
    tracks = np.empty((H * W, len(fused.frames), 3))
    grid = tracks.reshape(H, W, len(fused.frames), 3)
    block = max(1, _FILL_BLOCK_BYTES // max(grid[0].nbytes, 1))
    for r0 in range(0, H, block):
        for t, fp in enumerate(fused.frames):
            grid[r0:r0 + block, :, t] = fp.points[r0:r0 + block]
    rooted = [tr for tr in getattr(fused, "trajectories", []) if tr.sources]
    roots = np.array([tr.sources[0][2] for tr in rooted], dtype=np.intp).reshape(-1, 2)
    on_grid = ((roots >= 0) & (roots < (H, W))).all(axis=1)
    rooted = [tr for tr, on in zip(rooted, on_grid.tolist()) if on]
    if rooted:
        keys = roots[on_grid]
        lengths = np.array([len(tr.frames) for tr in rooted], dtype=np.intp)
        starts = np.array([tr.frames[0] if tr.frames else 0 for tr in rooted], dtype=np.intp)
        # one scatter into every (row, frame) of the rooted trajectories;
        # numpy assigns repeated indices in order, so the last write wins
        at = np.repeat(keys[:, 0] * W + keys[:, 1], lengths)
        first = np.cumsum(lengths) - lengths  # each one's first sample in the concatenation
        frames = np.arange(len(at)) + np.repeat(starts - first, lengths)
        tracks[at, frames] = np.concatenate([tr.positions for tr in rooted])
    return TrackTable(tracks, (H, W))


def format_metrics_table(rows: list[dict[str, object]]) -> str:
    """Aligned human-readable table: one row per evaluated variant."""
    if not rows:
        return "(no metrics)"
    columns = ["variant"] + [k for k in rows[0] if k != "variant"]
    rendered = []
    for row in rows:
        out = {}
        for col in columns:
            v = row.get(col, "")
            out[col] = f"{v:.6f}" if isinstance(v, float) else str(v)
        rendered.append(out)
    widths = {c: max(len(c), *(len(r[c]) for r in rendered)) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    lines.append("  ".join("-" * widths[c] for c in columns))
    for r in rendered:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines)
