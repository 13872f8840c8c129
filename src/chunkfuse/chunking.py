"""Partition a frame sequence into overlapping chunks and slice overlaps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NoOverlap
from .model import Chunk, FramePrediction


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
    """Paired per-frame predictions of two chunks over their shared frames."""

    frames: tuple[int, ...]
    preds_i: tuple[FramePrediction, ...]
    preds_j: tuple[FramePrediction, ...]

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.preds_i[0].grid_shape

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(points_i, conf_i, points_j, conf_j) stacked as (T, H, W, ...)."""
        pts_i = np.stack([p.points for p in self.preds_i])
        cnf_i = np.stack([p.confidence for p in self.preds_i])
        pts_j = np.stack([p.points for p in self.preds_j])
        cnf_j = np.stack([p.confidence for p in self.preds_j])
        return pts_i, cnf_i, pts_j, cnf_j

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Camera centers of both chunks over the overlap, (T, 3) each."""
        c_i = np.stack([p.pose.center for p in self.preds_i])
        c_j = np.stack([p.pose.center for p in self.preds_j])
        return c_i, c_j


def slice_overlap(chunk_i: Chunk, chunk_j: Chunk) -> OverlapView:
    """Shared frame indices and paired predictions of two adjacent chunks."""
    if chunk_i.grid_shape != chunk_j.grid_shape:
        raise ValueError(f"chunk grids differ: {chunk_i.grid_shape} vs {chunk_j.grid_shape}")
    lo = max(chunk_i.start_frame, chunk_j.start_frame)
    hi = min(chunk_i.end_frame, chunk_j.end_frame)
    if hi < lo:
        raise NoOverlap(
            f"chunks [{chunk_i.start_frame}, {chunk_i.end_frame}] and "
            f"[{chunk_j.start_frame}, {chunk_j.end_frame}] do not intersect"
        )
    frames = tuple(range(lo, hi + 1))
    return OverlapView(
        frames=frames,
        preds_i=tuple(chunk_i.frame(f) for f in frames),
        preds_j=tuple(chunk_j.frame(f) for f in frames),
    )
