import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np
import pytest

import references as ref
from chunkfuse.chunking import OverlapView
from chunkfuse.fusion import fuse_sequence
from chunkfuse.model import Chunk, PipelineConfig, Pose
from chunkfuse.synthetic import emit_chunks, generate
from scenes import identity_span_spec


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)


POSE_FAULTS = ("last row", "NaN last row", "scaled rotation", "reflection", "translation")


def corrupt_pose(m: np.ndarray, fault: str) -> str:
    """Write ``fault``, one of ``POSE_FAULTS``, into the 4x4 pose matrix
    ``m`` in place; returns a pattern of the error that rejects it."""
    if fault == "last row":
        m[3, 0] = 1e-6
        return "last row"
    if fault == "NaN last row":
        m[3, 1] = np.nan
        return "last row"
    if fault == "scaled rotation":
        m[:3, :3] *= 1.01
        return "orthonormal"
    if fault == "reflection":  # orthonormal, det -1
        m[:3, 0] *= -1.0
        return "determinant"
    m[1, 3] = np.inf
    return "translation"


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0, np.pi)
    K = np.array([
        [0, -axis[2], axis[1]],
        [axis[2], 0, -axis[0]],
        [-axis[1], axis[0], 0],
    ])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def make_chunk(points, confidence=None, chunk_id=0, start_frame=0, centers=None) -> Chunk:
    """Chunk from a (T, H, W, 3) array, identity-ish poses by default."""
    T = len(points)
    if confidence is None:
        confidence = np.ones(np.shape(points)[:3])
    if centers is None:
        centers = [[0.0, 0.0, -1.0]] * T
    return Chunk(chunk_id, start_frame, points, confidence,
                 tuple(Pose(np.eye(3), c) for c in centers))


def whole_overlap(a: Chunk, b: Chunk) -> OverlapView:
    """The overlap of two chunks over the same frames, all of them shared.

    ``slice_overlap`` rejects such a pair, since its second chunk does not
    advance; tests of the stages after it build their overlap with this.
    """
    frames = range(a.start_frame, a.end_frame + 1)
    assert frames == range(b.start_frame, b.end_frame + 1) and a.grid_shape == b.grid_shape
    return OverlapView(frames, a.points, a.confidence, a.poses,
                       b.points, b.confidence, b.poses)


def frac_for(gamma_stat: float, chunk: Chunk, frames=None) -> float:
    """The ``gamma_stat_frac`` at which ``select_anchors`` resolves the
    rigidity threshold of ``chunk`` over ``frames`` (all of its frames by
    default) to ``gamma_stat``, up to rounding."""
    frames = range(chunk.start_frame, chunk.end_frame + 1) if frames is None else frames
    return gamma_stat / ref.chunk_scene_scale(chunk, frames)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


HOLE_CFG = PipelineConfig(chunk_length=16, overlap=4, seed_stride=1)


@pytest.fixture(scope="module")
def chunks_with_hole():
    """``identity_span_spec`` chunks with one legal hole: the point of a
    pixel matched at the first junction is NaN, at confidence 0, in the
    frame just after the junction. Returns the chunks, the hole's chunk id,
    tracklet id and pixel."""
    spec = identity_span_spec()
    chunks = list(emit_chunks(generate(spec), HOLE_CFG, spec).chunks)
    _, chunk_j, match_set, _, pixels_j = fuse_sequence(chunks, HOLE_CFG, frame_sink=[].append).match_sets[0]
    b = match_set.matches[0][1]
    pixel = tuple(pixels_j[b].tolist())
    cur = chunks[1]
    assert cur.chunk_id == chunk_j
    frame = chunks[0].end_frame + 1
    points, conf = cur.points.copy(), cur.confidence.copy()
    points[(frame - cur.start_frame, *pixel)] = np.nan
    conf[(frame - cur.start_frame, *pixel)] = 0.0
    chunks[1] = Chunk(cur.chunk_id, cur.start_frame, points, conf, cur.poses)
    return chunks, chunk_j, b, pixel
