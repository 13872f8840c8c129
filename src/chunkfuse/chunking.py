"""Partition a frame sequence into overlapping chunks and slice overlaps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NoOverlap
from .model import Chunk, Pose


def plan_chunks(num_frames: int, chunk_length: int, overlap: int) -> list[tuple[int, int]]:
    """Plan inclusive (start, end) frame ranges.

    The first chunk starts at 0, consecutive chunks share exactly
    ``overlap`` frames (start_next = end - overlap + 1), and interior
    chunks have length exactly ``chunk_length``. A tail chunk exists only
    when its predecessor ends before the last frame, so it reaches at least
    one frame past the shared ones: at least overlap + 1 frames.
    """
    if overlap < 2 or overlap >= chunk_length:
        raise InvalidConfig(
            f"need 2 <= overlap < chunk_length, got overlap={overlap}, chunk_length={chunk_length}"
        )
    if num_frames < 1:
        raise InvalidConfig(f"num_frames must be >= 1, got {num_frames}")

    plan: list[tuple[int, int]] = []
    start = 0
    while True:
        end = min(start + chunk_length - 1, num_frames - 1)
        plan.append((start, end))
        if end >= num_frames - 1:
            break
        start = end - overlap + 1
    return plan


@dataclass(frozen=True)
class OverlapView:
    """Both chunks' predictions over their shared frames, stacked once:
    points (T, H, W, 3), confidences (T, H, W) and the T poses of each."""

    frames: tuple[int, ...]
    points_i: np.ndarray
    conf_i: np.ndarray
    poses_i: tuple[Pose, ...]
    points_j: np.ndarray
    conf_j: np.ndarray
    poses_j: tuple[Pose, ...]

    def __len__(self) -> int:
        return len(self.frames)


def _stack(chunk: Chunk, frames) -> tuple[np.ndarray, np.ndarray, tuple[Pose, ...]]:
    """Points, confidences and poses of ``chunk`` over ``frames``."""
    preds = [chunk.frame(f) for f in frames]
    points = np.stack([p.points for p in preds])
    conf = np.stack([p.confidence for p in preds])
    return points, conf, tuple(p.pose for p in preds)


def slice_overlap(chunk_i: Chunk, chunk_j: Chunk) -> OverlapView:
    """Shared frame indices and stacked predictions of two adjacent chunks,
    which must share at least the two frames anchor selection needs."""
    if chunk_i.grid_shape != chunk_j.grid_shape:
        raise ValueError(f"chunk grids differ: {chunk_i.grid_shape} vs {chunk_j.grid_shape}")
    lo = max(chunk_i.start_frame, chunk_j.start_frame)
    hi = min(chunk_i.end_frame, chunk_j.end_frame)
    if hi - lo < 1:
        raise NoOverlap(
            f"chunks [{chunk_i.start_frame}, {chunk_i.end_frame}] and "
            f"[{chunk_j.start_frame}, {chunk_j.end_frame}] share fewer than 2 frames "
            f"({max(hi - lo + 1, 0)})"
        )
    frames = tuple(range(lo, hi + 1))
    return OverlapView(frames, *_stack(chunk_i, frames), *_stack(chunk_j, frames))
