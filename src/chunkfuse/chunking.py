"""Partition a frame sequence into overlapping chunks and slice overlaps.

A chunk is one checked stack with per-frame views (:class:`~chunkfuse.model.Chunk`),
so the overlap of two chunks is a slice of each stack, with no copy.
"""

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


@dataclass(frozen=True, eq=False)
class OverlapView:
    """Both chunks' predictions over their shared frames, the consecutive
    ``frames``: points (T, H, W, 3), confidences (T, H, W) and the T poses
    of each, read-only slices of the chunks' stacks."""

    frames: range
    points_i: np.ndarray
    conf_i: np.ndarray
    poses_i: tuple[Pose, ...]
    points_j: np.ndarray
    conf_j: np.ndarray
    poses_j: tuple[Pose, ...]

    def __len__(self) -> int:
        return len(self.frames)


def slice_overlap(chunk_i: Chunk, chunk_j: Chunk) -> OverlapView:
    """Shared frame indices and the predictions of two adjacent chunks over
    them. NoOverlap unless ``chunk_j`` follows ``chunk_i`` as in
    :func:`plan_chunks`: same grid, later start and end, and at least the
    two shared frames anchor selection needs."""
    ranges = (f"chunks [{chunk_i.start_frame}, {chunk_i.end_frame}] and "
              f"[{chunk_j.start_frame}, {chunk_j.end_frame}]")
    if chunk_i.grid_shape != chunk_j.grid_shape:
        raise NoOverlap(f"{ranges}: chunk grids differ: {chunk_i.grid_shape} vs {chunk_j.grid_shape}")
    if not (chunk_j.start_frame > chunk_i.start_frame and chunk_j.end_frame > chunk_i.end_frame):
        raise NoOverlap(f"{ranges}: the second chunk must start and end after the first")
    lo, hi = chunk_j.start_frame, chunk_i.end_frame
    if hi - lo < 1:
        raise NoOverlap(f"{ranges} share fewer than 2 frames ({max(hi - lo + 1, 0)})")
    i = slice(lo - chunk_i.start_frame, hi - chunk_i.start_frame + 1)
    j = slice(0, hi - lo + 1)
    return OverlapView(range(lo, hi + 1),
                       chunk_i.points[i], chunk_i.confidence[i], chunk_i.poses[i],
                       chunk_j.points[j], chunk_j.confidence[j], chunk_j.poses[j])
