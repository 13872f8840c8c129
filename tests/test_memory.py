"""Memory bounds of the evaluate path, in units of the arrays involved,
and of the synthetic oracle against its per-frame reference.

Each bound is measured with ``tracemalloc``, which sees numpy's array
buffers, as the peak allocated above what was live when the step began.
A (T, H, W, 3) float64 stack is the unit: evaluating holds several, and
each copy the bits do not need shows as one more.
"""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np

import references as ref
from chunkfuse import io as cio
from chunkfuse.fusion import Trajectory
from chunkfuse.metrics import build_fused_table, dense_epe
from chunkfuse.synthetic import GroundTruth, generate
from conftest import make_chunk
from scenes import ablation_spec, association_spec

T, H, W = 8, 64, 64


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it allocated above what was live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def truth(rng) -> GroundTruth:
    return GroundTruth(points=rng.normal(size=(T, H, W, 3)), poses=[],
                       object_ids=np.full((H, W), -1), visible=np.ones((T, H, W), dtype=bool),
                       scene_scale=1.0)


def fused_scene(rng, gt: GroundTruth):
    chunk = make_chunk(gt.points + rng.normal(scale=0.01, size=gt.points.shape))
    trajectories = [
        Trajectory(tid, tuple(range(2, 6)), rng.normal(size=(4, 3)), ((0, tid, (2 * tid, 3)),))
        for tid in range(5)
    ]
    return SimpleNamespace(frames=chunk.frames, trajectories=trajectories)


def test_read_chunk_widens_once(rng, tmp_path):
    # float32 as stored plus the float64 copy the chunk keeps; a second
    # float64 copy would take the peak past 2x
    conf = rng.uniform(0.5, 1.0, size=(T, H, W))
    cio.write_chunk(make_chunk(rng.normal(size=(T, H, W, 3)), conf), tmp_path / "c")
    chunk, peak = traced_peak(cio.read_chunk, tmp_path / "c")
    assert peak <= 1.6 * (chunk.points.nbytes + chunk.confidence.nbytes)


def test_ground_truth_table_is_a_view(rng):
    gt = truth(rng)
    table = gt.trajectory_table()
    assert np.shares_memory(table.points, gt.points)
    assert not table.points.flags.writeable
    expected = ref.trajectory_table(gt.points)
    assert list(table) == list(expected)
    assert all(ref.same_bits(table[k], track) for k, track in expected.items())


def test_fused_table_allocated_once(rng):
    fused = fused_scene(rng, truth(rng))
    table, peak = traced_peak(build_fused_table, fused)
    assert peak <= 1.1 * table.points.nbytes


def test_dense_epe_holds_no_table_sized_array(rng):
    # two frame-major tables of 3.1 MB each are read in place, block by
    # block: measured 0.33 MB, the (4096, 7) block and its (4096, 3)
    # residuals; one (n, 3) operand would be a whole table
    gt = GroundTruth(points=rng.normal(size=(32, H, W, 3)), poses=[],
                     object_ids=np.full((H, W), -1), visible=np.ones((32, H, W), dtype=bool),
                     scene_scale=1.0)
    pred, gt_table = build_fused_table(fused_scene(rng, gt)), gt.trajectory_table()
    assert gt.points.nbytes > 3e6
    _, peak = traced_peak(dense_epe, pred, gt_table)
    assert peak <= 0.15 * gt.points.nbytes


def test_generate_blocks_hold_no_more_than_frame_by_frame():
    # a long-stream shape: 128 frames of 32 x 32 and 21 objects, cast in
    # blocks of 12 frames
    spec = ablation_spec(0)
    _, peak = traced_peak(generate, spec)
    _, per_frame = traced_peak(ref.generate, spec)
    assert peak <= 1.05 * per_frame


def test_generate_scene_scale_takes_no_point_difference():
    # measured 7.87 MB, 2.50 points stacks (128 x 32 x 32 x 3 float64), set
    # by the block casts; forming the scene scale's distances from one
    # (T, H, W, 3) difference peaked at 8.79 MB, 2.79 stacks
    spec = ablation_spec(0)
    gt, peak = traced_peak(generate, spec)
    assert peak <= 2.6 * gt.points.nbytes


def test_generate_on_the_assoc_dense_shape():
    # 32 frames of 120 x 120 and 50 objects: measured 19.9 MB, 1.80 points
    # stacks (32 x 120 x 120 x 3 float64), set by the casts of the rays
    # left undecided; casting every ray against every bounding sphere
    # peaked at 21.6 MB, 1.95 stacks
    spec = dataclasses.replace(association_spec(0), height=120, width=120, num_frames=32)
    gt, peak = traced_peak(generate, spec)
    assert peak <= 1.9 * gt.points.nbytes
