"""Evaluation protocols: trajectory alignment, ATE, RPE, dense tracking
end-point error, and association precision/recall."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .association import MatchSet
from .errors import DegenerateConfiguration, KeyMismatch, NotEnoughPoints
from .model import Pose, SimilarityTransform, finite3, norm3
from .registration import solve_weighted_rigid, solve_weighted_similarity


def rotation_angle_deg(R: np.ndarray) -> float:
    """Rotation angle, with the arccos argument clamped against drift."""
    arg = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.degrees(np.arccos(arg)))


def _centers(poses: Sequence[Pose]) -> np.ndarray:
    return np.stack([p.center for p in poses])


def align_trajectories(
    pred: Sequence[Pose], gt: Sequence[Pose], mode: str = "similarity"
) -> SimilarityTransform:
    """Least-squares alignment of predicted camera centers onto ground truth.

    Falls back to a translation-only alignment when the centers are
    collinear or coincident.
    """
    if len(pred) != len(gt):
        raise ValueError(f"pose lists differ in length: {len(pred)} vs {len(gt)}")
    if len(pred) < 3:
        raise NotEnoughPoints("alignment needs at least 3 poses")
    if mode not in ("similarity", "rigid"):
        raise ValueError(f"mode must be 'similarity' or 'rigid', got {mode!r}")
    src = _centers(pred)
    dst = _centers(gt)
    w = np.ones(len(src))
    try:
        if mode == "similarity":
            return solve_weighted_similarity(src, dst, w)
        return solve_weighted_rigid(src, dst, w)
    except DegenerateConfiguration:
        return SimilarityTransform(1.0, np.eye(3), dst.mean(axis=0) - src.mean(axis=0))


def ate(pred: Sequence[Pose], gt: Sequence[Pose], mode: str = "similarity") -> float:
    """RMS camera-center distance after gauge alignment."""
    T = align_trajectories(pred, gt, mode)
    err = norm3(T.apply(_centers(pred)) - _centers(gt))
    return float(np.sqrt((err**2).mean()))


def rpe(pred: Sequence[Pose], gt: Sequence[Pose], delta: int = 1) -> tuple[float, float]:
    """Relative pose error over all index pairs (t, t + delta).

    Returns (translation RMS, rotation RMS in degrees) of the error motion
    inv(rel_gt) @ rel_pred.
    """
    if len(pred) != len(gt):
        raise ValueError(f"pose lists differ in length: {len(pred)} vs {len(gt)}")
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if len(pred) <= delta:
        raise NotEnoughPoints(f"need more than delta={delta} poses, got {len(pred)}")
    trans_sq, rot_sq = [], []
    for t in range(len(pred) - delta):
        rel_pred = pred[t].inverse().compose(pred[t + delta])
        rel_gt = gt[t].inverse().compose(gt[t + delta])
        err = rel_gt.inverse().compose(rel_pred)
        trans_sq.append((err.translation**2).sum())
        rot_sq.append(rotation_angle_deg(err.rotation) ** 2)
    return float(np.sqrt(np.mean(trans_sq))), float(np.sqrt(np.mean(rot_sq)))


TrajectoryTable = Mapping[tuple[int, int], np.ndarray]


def _stack_tables(pred: TrajectoryTable, gt: TrajectoryTable):
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
    ok = finite3(p) & finite3(g)
    if ok.all():
        return p, g
    return p[ok], g[ok]


def dense_epe(pred: TrajectoryTable, gt: TrajectoryTable, align: bool = True) -> float:
    """Mean 3D distance over all tracked points and frames.

    By default one global similarity alignment of the predicted scene onto
    the ground truth absorbs the monocular gauge freedom first; pass
    ``align=False`` to score raw coordinates.
    """
    p, g = _stack_tables(pred, gt)
    if len(p) == 0:
        raise NotEnoughPoints("no finite trajectory samples to compare")
    if align:
        T = solve_weighted_similarity(p, g, np.ones(len(p)))
        p = T.apply(p)
    return float(norm3(p - g).mean())


def association_prf(matches: MatchSet, truth: Mapping[int, int]) -> tuple[float, float, float]:
    """Precision, recall, and F1 of matched pairs against true pairs."""
    predicted = {(a, b) for a, b, _ in matches.matches}
    actual = {(a, b) for a, b in truth.items()}
    correct = len(predicted & actual)
    precision = correct / len(predicted) if predicted else 0.0
    recall = correct / len(actual) if actual else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


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
    from collections import Counter

    count_i = Counter(labels_i.values())
    count_j = Counter(labels_j.values())
    achievable = sum(min(n, count_j.get(label, 0)) for label, n in count_i.items())
    predicted = len(matches.matches)
    precision = correct / predicted if predicted else 0.0
    recall = correct / achievable if achievable else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def build_fused_table(fused, stride: int = 1) -> dict[tuple[int, int], np.ndarray]:
    """Trajectory table of a fused scene, keyed by seed pixel.

    Per-pixel pointmap tracks, overridden by the associated long-range
    trajectories where one is rooted at the seed pixel.
    """
    points = np.stack([fp.points for fp in fused.frames])
    table = {
        (r, c): points[:, r, c, :]
        for r in range(0, points.shape[1], stride)
        for c in range(0, points.shape[2], stride)
    }
    for tr in getattr(fused, "trajectories", []):
        if not tr.sources:
            continue
        root = tr.sources[0][2]
        if root in table:
            track = table[root].copy()
            track[list(tr.frames)] = tr.positions
            table[root] = track
    return table


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
