"""Evaluation protocols: trajectory alignment, ATE, RPE, dense tracking
end-point error, and association precision/recall at the object and the
point level (``junction_prf``).

Dense EPE compares two trajectory tables, mappings from seed pixel (r, c)
to a (T, 3) track, after one global similarity alignment of the predicted
samples onto the true ones, which absorbs the monocular gauge. It reads
the samples of both in one frame-major order: frame 0 of every track over
the sorted keys, then frame 1, and so on. ``build_fused_table`` and
``GroundTruth.trajectory_table`` return a
:class:`~chunkfuse.model.TrackTable`, the one table layout: it holds the
(T, H, W, 3) stack its tracks are read from, whose samples lie in memory
in that order, and the replaced tracks of some pixels, frame-major.
``build_fused_table`` reads the fused frames' own stack in place and
keeps as replaced tracks only the pixels where stitched trajectories are
rooted, the last trajectory written winning where several share a pixel.
``dense_epe`` reads a table's stack in place, against a table or a dict,
and writes its replaced samples into each block it reads right after
the block is filled. A dict whose tracks all have one length (a subset
of the seeds, say) is copied into that order once; a dict whose tracks
are not all (T, 3) arrays of one length raises ValueError. The samples
and their order do not depend on how a table arrives, so dict, table and
mixed inputs give the same EPE to the last bit.

The alignment is a unit-weight similarity solve in two streaming passes
over blocks of ``_BLOCK_ROWS`` samples:

1. Each sample is shifted by the first sample of its table, and each block
   gives the sums of its first and second moments as one (7, 4) product,
   ``[a, 1, b].T @ [a, 1]``. The block sums are added in order and centred
   once (``registration.similarity_from_moments`` solves them). The shift
   keeps the centring from cancelling: a shifted sample has the size of
   the spread, not of the tables' offset from the origin.
2. Each block forms its residuals in the shifted frame, ``[a, 1] @ [s R^T;
   t] - b``, and sums their norms; the block sums are added in order.

No array the size of the tables is formed, and no finiteness pass comes
first: the moments, or the sum of the norms, are not finite when some
sample is not (or when a sum overflows), and then the tables go through
the masked path, which copies each table's samples with its replaced
ones written in, drops the samples non-finite in either and solves
again. Fewer than 3 samples raise NotEnoughPoints. A degenerate
prediction, its samples collinear or coincident, aligns by the translation
of its centroid onto the truth's, as the camera centres of
``align_trajectories`` do (``_align_moments``).

The EPE's bits depend on the sample order, the block size and how BLAS
rounds each block's small products; they are the same with BLAS on one
thread or two. They are not the bits of the whole-array solve over (n, 3)
operands that this solve replaced: the moments are other sums taken in
another order. The two agree within 2^6 u (kappa L + log2(n + 1) EPE),
with u = 2^-53, L the largest term a residual is formed from, kappa the
condition number of the predicted samples and n their count;
``tests/references.py`` keeps the old solve and derives the bound. On the
benchmark's scenes they differ in the last bits at most, and in about a
third of them not at all.

The pose metrics read a pose sequence as one (n, 3, 3) rotation stack and
one (n, 3) translation stack. ``rpe`` forms every inverse, relative motion
and error motion as a whole-stack product. A stacked ``matmul`` rounds as
the per-pose product does only when each operand keeps its per-pose
layout, so an inverse's translation multiplies by the transposed view and
a composition by the contiguous copy.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .association import MatchSet
from .errors import DegenerateConfiguration, KeyMismatch, NotEnoughPoints
from .model import (
    Pose,
    SimilarityTransform,
    TrackTable,
    finite3,
    norm3,
    stack_poses,
)
from .registration import _weighted_moments, similarity_from_moments

# the samples the dense EPE's solve reads at a time, in each of its two
# passes: a (rows, 7) float64 block of 224 KiB, which stays in a per-core
# second-level cache
_BLOCK_ROWS = 1 << 12


def rotation_angle_deg(R: np.ndarray):
    """Rotation angle in degrees of a (3, 3) rotation, or of each of an
    (n, 3, 3) stack, with the arccos argument clamped against drift. The
    trace is summed as ``np.trace`` sums it, ``(R00 + R11) + R22``."""
    trace = R[..., 0, 0] + R[..., 1, 1] + R[..., 2, 2]
    return np.degrees(np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0)))


def _centers(poses: Sequence[Pose]) -> np.ndarray:
    return np.stack([p.center for p in poses])


def _align_moments(mu_src, mu_dst, cov, src_cov, var_src) -> SimilarityTransform:
    """The alignment rule of both metrics: the similarity of the moments,
    or, when it is degenerate (the source collinear or coincident), the
    translation of the source centroid onto the destination's."""
    try:
        return similarity_from_moments(mu_src, mu_dst, cov, src_cov, var_src)
    except DegenerateConfiguration:
        return SimilarityTransform(1.0, np.eye(3), mu_dst - mu_src)


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
    return _align_moments(*_weighted_moments(_centers(pred), _centers(gt), None))


def ate(pred: Sequence[Pose], gt: Sequence[Pose]) -> float:
    """RMS camera-center distance after Sim(3) gauge alignment."""
    T = align_trajectories(pred, gt)
    err = norm3(T.apply(_centers(pred)) - _centers(gt))
    return float(np.sqrt((err**2).mean()))


def _inverse(R: np.ndarray, t: np.ndarray):
    """Each pose's inverse, stacked. The rotation is the contiguous copy of
    the transpose that a ``Pose`` stores; the translation ``-Rt @ t``
    multiplies the transposed views, as one pose's product does."""
    Rt = R.transpose(0, 2, 1)
    return np.ascontiguousarray(Rt), (-Rt @ t[..., None])[..., 0]


def _compose(a, b):
    """Each pose of ``a`` composed with the one of ``b`` at the same index,
    stacked: ``b`` applied first, then ``a``."""
    (Ra, ta), (Rb, tb) = a, b
    return Ra @ Rb, (Ra @ tb[..., None])[..., 0] + ta


def rpe(pred: Sequence[Pose], gt: Sequence[Pose], delta: int = 1) -> tuple[float, float]:
    """Relative pose error over all index pairs (t, t + delta).

    Returns (translation RMS, rotation RMS in degrees) of the error motion
    inv(rel_gt) @ rel_pred, where rel = inv(pose[t]) @ pose[t + delta].

    The inverses and products are formed over whole stacks. Every stacked
    product has the operand layouts the per-pose product had, so the
    figures keep its bits: an inverse's translation multiplies by the
    transposed view, a composition by the contiguous copy of the transpose.
    """
    if len(pred) != len(gt):
        raise ValueError(f"pose lists differ in length: {len(pred)} vs {len(gt)}")
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if len(pred) <= delta:
        raise NotEnoughPoints(f"need more than delta={delta} poses, got {len(pred)}")

    def relative(poses):
        R, t = stack_poses(poses)
        return _compose(_inverse(R[:-delta], t[:-delta]), (R[delta:], t[delta:]))

    R, t = _compose(_inverse(*relative(gt)), relative(pred))
    trans_sq = t[:, 0] * t[:, 0] + t[:, 1] * t[:, 1] + t[:, 2] * t[:, 2]
    # squared as Python floats: x ** 2 there is libm's pow, which rounds
    # unlike x * x in about one case in a thousand
    rot_sq = [a**2 for a in rotation_angle_deg(R).tolist()]
    return float(np.sqrt(np.mean(trans_sq))), float(np.sqrt(np.mean(rot_sq)))


TrajectoryTable = Mapping[tuple[int, int], np.ndarray]


def _tracks(table: TrajectoryTable, keys):
    """The tracks of ``table`` as one frame-major (T, N, 3) array: its
    stack for a :class:`TrackTable`, without its replaced tracks, else a
    stack of its tracks in ``keys`` order, which must all be (T, 3) arrays
    of one length."""
    if isinstance(table, TrackTable):
        return table.points.reshape(len(table.points), -1, 3)
    tracks = [np.asarray(table[k], dtype=np.float64) for k in keys]
    shapes = {t.shape for t in tracks}
    if len(shapes) != 1 or len(tracks[0].shape) != 2 or tracks[0].shape[1] != 3:
        raise ValueError(f"tracks must be (T, 3) arrays of one length, got shapes {sorted(shapes)}")
    return np.stack(tracks, axis=1)


class _Patch(NamedTuple):
    """The replaced samples of a :class:`TrackTable` among its frame-major
    samples: their increasing positions ``at``, each one's row in its
    block of ``_BLOCK_ROWS`` samples, their (k, 3) ``values``, and
    ``bounds``, where block b holds ``at[bounds[b]:bounds[b + 1]]``."""

    at: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    bounds: list


def _patch(table: TrajectoryTable) -> _Patch | None:
    """The samples that ``table``'s replaced tracks put in the place of its
    stack's, or None when it has none."""
    if not isinstance(table, TrackTable) or not len(table.ids):
        return None
    T, n = len(table.points), len(table.points) * len(table)
    at = (np.arange(T)[:, None] * len(table) + table.ids).ravel()
    bounds = np.searchsorted(at, np.arange(0, n + _BLOCK_ROWS, _BLOCK_ROWS))
    return _Patch(at, at % _BLOCK_ROWS, table.replaced.reshape(-1, 3), bounds.tolist())


def _patched(a: np.ndarray, patch: _Patch | None) -> np.ndarray:
    """The (n, 3) samples ``a`` with ``patch``'s written in: a copy when
    there are any."""
    if patch is None:
        return a
    a = a.copy()
    a[patch.at] = patch.values
    return a


def _samples(pred: TrajectoryTable, gt: TrajectoryTable):
    """Predicted and ground-truth samples over the sorted keys as two
    frame-major (n, 3) arrays, holes included, and each one's
    :class:`_Patch` of replaced samples (or None).

    A :class:`TrackTable` over a C-contiguous stack is read in place,
    against a table or a dict alike; a dict is copied once.
    """
    if isinstance(pred, TrackTable) and isinstance(gt, TrackTable) and pred.same_keys(gt):
        keys = None
    else:
        if set(pred.keys()) != set(gt.keys()):
            missing = set(gt.keys()) - set(pred.keys())
            extra = set(pred.keys()) - set(gt.keys())
            raise KeyMismatch(
                f"trajectory tables disagree on seed pixels ({len(missing)} missing, {len(extra)} extra)"
            )
        keys = sorted(pred.keys())
    p, g = _tracks(pred, keys), _tracks(gt, keys)
    if p.shape != g.shape:
        raise KeyMismatch(f"trajectory tables disagree on shapes: {p.shape} vs {g.shape}")
    return p.reshape(-1, 3), g.reshape(-1, 3), (_patch(pred), _patch(gt))


def _shifted_blocks(p: np.ndarray, g: np.ndarray, patches=(None, None)):
    """The samples of the (n, 3) arrays ``p`` and ``g``, each less its
    first sample, ``_BLOCK_ROWS`` at a time: the (m, 7) block
    ``[p - p[0], 1, g - g[0]]`` in Fortran order, so every column is
    contiguous. One buffer serves every block.

    ``patches`` holds a :class:`_Patch` or None for each of ``p`` and
    ``g``: a patch's samples take the place of the array's, its first
    sample included, and are written into each block right after its
    fill, one slice of the patch per block."""
    X = np.empty((_BLOCK_ROWS, 7), order="F")
    X[:, 3] = 1.0
    sides = []
    for a, patch, cols in zip((p, g), patches, (X[:, :3], X[:, 4:])):
        first = patch.values[0] if patch is not None and patch.at[0] == 0 else a[0]
        # the replaced samples less the first, formed once for every block
        shifted = None if patch is None else patch.values - first
        sides.append((a, first, cols, patch, shifted))
    for b, i in enumerate(range(0, len(p), _BLOCK_ROWS)):
        m = min(_BLOCK_ROWS, len(p) - i)
        for a, first, cols, patch, shifted in sides:
            # the transpose is a (3, m) view, so each row is one column of X
            np.subtract(a[i:i + m].T, first[:, None], out=cols[:m].T)
            if patch is not None:
                lo, hi = patch.bounds[b:b + 2]
                cols[patch.rows[lo:hi]] = shifted[lo:hi]
        yield X[:m]


def _streamed_similarity(p: np.ndarray, g: np.ndarray, finite: bool, patches=(None, None)):
    """The solve's first pass: the unit-weight similarity that takes each
    sample of ``p`` less ``p[0]`` onto the one of ``g`` less ``g[0]``, from
    the block sums of the first and second moments of the shifted samples,
    by ``_align_moments``; ``patches`` as ``_shifted_blocks`` reads them.
    Unless every sample is known to be ``finite``, None when a moment is
    not."""
    n = len(p)
    if n < 3:
        raise NotEnoughPoints(f"need >= 3 samples to align, got {n}")
    # [a, 1, b].T @ [a, 1]: sum a a^T and sum a in the first three rows,
    # sum b a^T and sum b in the last three
    m = np.zeros((7, 4))
    for x in _shifted_blocks(p, g, patches):
        m += x.T @ x[:, :4]
    if not (finite or np.isfinite(m).all()):
        return None
    mu_a, mu_b = m[:3, 3] / n, m[4:, 3] / n
    src_cov = m[:3, :3] / n - np.outer(mu_a, mu_a)
    cov = m[4:, :3] / n - np.outer(mu_b, mu_a)
    return _align_moments(mu_a, mu_b, cov, src_cov, float(np.trace(src_cov)))


def _norm_sum(d: np.ndarray) -> float:
    """The sum of the row norms of the (m, 3) array ``d``, which it
    overwrites: ``norm3``'s ``(x0 * x0 + x1 * x1) + x2 * x2``, in column 0."""
    np.multiply(d, d, out=d)
    r = d[:, 0]
    r += d[:, 1]
    r += d[:, 2]
    return float(np.sqrt(r, out=r).sum())


def _mean_error(p: np.ndarray, g: np.ndarray, finite: bool, patches=(None, None)):
    """Mean distance of the (n, 3) samples ``p``, aligned onto ``g``, from
    ``g``, with ``patches`` as ``_shifted_blocks`` reads them. Unless every
    sample is known to be ``finite``, None when a sum is not finite, which
    it is whenever some sample is not."""
    n = len(p)
    if n == 0:
        raise NotEnoughPoints("no finite trajectory samples to compare")
    T = _streamed_similarity(p, g, finite, patches)
    if T is None:
        return None
    # the second pass: [a, 1] @ [s R^T; t] - b, in the shifted frame
    M = np.concatenate([T.scale * T.rotation.T, T.translation[None]])
    total = 0.0
    # each block's residuals, in Fortran order: every column contiguous
    e = np.empty((_BLOCK_ROWS, 3), order="F")
    for x in _shifted_blocks(p, g, patches):
        d = np.matmul(x[:, :4], M, out=e[:len(x)])
        total += _norm_sum(np.subtract(d, x[:, 4:], out=d))
    epe = total / n
    return epe if finite or math.isfinite(epe) else None


def dense_epe(pred: TrajectoryTable, gt: TrajectoryTable) -> float:
    """Mean 3D distance over all tracked points and frames, over the samples
    finite in both tables, after one global similarity alignment of the
    predicted scene onto the ground truth absorbs the monocular gauge.

    The samples are read in one frame-major order (see the module
    docstring). A :class:`~chunkfuse.model.TrackTable` over a C-contiguous
    stack is read in place, its replaced samples written into each block,
    in two streaming passes, with no finiteness pass and no array the size
    of the tables. A dict, whose tracks must all be (T, 3) arrays of one
    length, is copied into that order first. Dict, table and mixed inputs
    give the same bits. Tables with a hole take the masked path, which
    copies them.
    """
    p, g, patches = _samples(pred, gt)
    epe = _mean_error(p, g, finite=False, patches=patches)
    if epe is None:
        p, g = (_patched(a, patch) for a, patch in zip((p, g), patches))
        ok = finite3(p) & finite3(g)
        epe = _mean_error(p[ok], g[ok], finite=True)
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


def _frame_stack(frames) -> np.ndarray:
    """The (T, H, W, 3) stack of the frames' points: the one C-contiguous
    stack they are consecutive views of, as a chunk's frames are, itself;
    else (frames a sink emitted, say) a stack of copies."""
    views = [fp.points for fp in frames]
    base = getattr(views[0], "base", None) if views else None
    if (isinstance(base, np.ndarray) and base.flags.c_contiguous and len(base) == len(views)
            and all(isinstance(v, np.ndarray) and v.dtype == f.dtype and v.shape == f.shape
                    and v.strides == f.strides
                    and v.__array_interface__["data"][0] == f.__array_interface__["data"][0]
                    for v, f in zip(views, base))):
        return base
    return np.stack(views)


def build_fused_table(fused) -> TrackTable:
    """Trajectory table of a fused scene, keyed by pixel.

    Per-pixel pointmap tracks, overridden by the associated long-range
    trajectories where one is rooted at the pixel; where several are
    rooted at the same pixel, the later one in ``fused.trajectories`` wins
    on the frames they share (the last write wins). A fuse lists them in
    id order, and gives ids in creation order, junction by junction, so
    start frames never decrease with id: the later one is the one with the
    later start frame, then the higher id. Each trajectory's frames are
    one increasing range, as :class:`~chunkfuse.fusion.Trajectory`
    requires; one that leaves the fused frames [0, T) raises ValueError
    naming it. A trajectory rooted off the grid is ignored
    (``io.read_fused_trajectories`` refuses one).

    The table reads the fused frames' own stack in place when they are
    consecutive views of one C-contiguous stack, as a chunk's frames are,
    and copies them into one otherwise. Beside it the table holds the
    replaced tracks only: the rooted pixels' (T, u, 3) tracks, gathered
    from the stack, with the trajectories scattered into them in order.
    """
    points = _frame_stack(fused.frames)
    T, H, W = points.shape[:3]
    rooted = [tr for tr in getattr(fused, "trajectories", []) if tr.sources]
    roots = np.array([tr.sources[0][2] for tr in rooted], dtype=np.intp).reshape(-1, 2)
    on_grid = ((roots >= 0) & (roots < (H, W))).all(axis=1)
    rooted = [tr for tr, on in zip(rooted, on_grid.tolist()) if on]
    if not rooted:
        return TrackTable(points)
    lengths = np.array([len(tr.frames) for tr in rooted], dtype=np.intp)
    starts = np.array([tr.frames[0] if tr.frames else 0 for tr in rooted], dtype=np.intp)
    outside = (starts < 0) | (starts + lengths > T)
    if outside.any():
        tr = rooted[int(np.argmax(outside))]
        raise ValueError(f"trajectory {tr.trajectory_id}: frames {tr.frames[0]}..{tr.frames[-1]} "
                         f"lie outside the fused frames 0..{T - 1}")
    keys = roots[on_grid]
    ids, slot = np.unique(keys[:, 0] * W + keys[:, 1], return_inverse=True)
    tracks = points.reshape(T, -1, 3)[:, ids]
    # one scatter into every (frame, pixel) of the rooted trajectories;
    # numpy assigns repeated indices in order, so the last write wins
    first = np.cumsum(lengths) - lengths  # each one's first sample in the concatenation
    frames = np.arange(lengths.sum()) + np.repeat(starts - first, lengths)
    tracks[frames, np.repeat(slot, lengths)] = np.concatenate([tr.positions for tr in rooted])
    return TrackTable(points, ids, tracks.transpose(1, 0, 2))


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
