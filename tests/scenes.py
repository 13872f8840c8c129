"""Shared synthetic-scene recipes for the test suite.

The ablation and robustness scenes are frozen here: small fast-moving
objects with controlled pairwise separation (so association is
well-posed), a mostly low-confidence wall whose trusted region is a
compact corner patch (so static-anchor registration is valid but
ill-conditioned), and per-chunk gauge randomization. ``with_camera_noise``
adds the camera noise of a monocular predictor to an emitted stream.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.spatial.transform import Rotation

from chunkfuse import PipelineConfig
from chunkfuse.model import Chunk, Pose
from chunkfuse.synthetic import (
    BackgroundSpec,
    CameraSpec,
    EmittedChunks,
    GaugeSpec,
    ObjectSpec,
    SceneSpec,
    TrajectorySpec,
)

FULL_GAUGE = GaugeSpec(scale_range=(0.6, 1.6), rotation_max=1.2, translation_max=0.6)
# tries drawn and tested together by separated_objects
TRY_BATCH = 128


def separated_objects(
    rng: np.random.Generator,
    n: int,
    num_frames: int,
    min_sep: float,
    arena=((-1.1, 1.1), (-0.55, 0.55), (3.1, 5.3)),
    radius_range=(0.3, 0.65),
    rate_range=(0.25, 0.4),
    size_range=(0.07, 0.11),
    max_tries: int = 8000,
    surface_separation: bool = False,
) -> tuple[ObjectSpec, ...]:
    """Circular-motion objects whose trajectories never come closer than
    ``min_sep`` to each other over the whole sequence.

    With ``surface_separation`` the bound applies between object surfaces
    (center distance minus both sizes), i.e. between the tracked points
    themselves.

    Each try draws eight values, accepted or not: the centre's x, y and z,
    the radius, the turning sign, the rate, the phase and the size. The
    tries are drawn ``TRY_BATCH`` at a time: ``Generator.uniform(lo, hi)`` gives
    the bits of ``lo + (hi - lo) * random()``, so the objects are those of
    drawing try by try (``references.separated_objects``). Each try is
    tested against every accepted track at once, the whole batch first on
    every fourth frame.
    """
    lo, hi = np.array([*arena, radius_range, (0.0, 1.0), rate_range,
                       (0.0, 2 * np.pi), size_range]).T
    t = np.arange(num_frames, dtype=np.float64)
    objs, tracks, sizes = [], np.empty((0, num_frames, 3)), np.empty(0)
    for start in range(0, max_tries, TRY_BATCH):
        if len(objs) == n:
            break
        draws = rng.random((min(TRY_BATCH, max_tries - start), 8))
        values = lo + (hi - lo) * draws
        values[:, 4] = draws[:, 4]
        centers, radii, phases = values[:, :3], values[:, 3], values[:, 6]
        rates = np.where(values[:, 4] < 0.5, 1.0, -1.0) * values[:, 5]
        # TrajectorySpec.offsets of every try, its phase's sine and cosine
        # taken by math as there
        ang = rates[:, None] * t + phases[:, None]
        batch_tracks = np.repeat(centers[:, None], num_frames, axis=1)
        batch_tracks[..., 0] += radii[:, None] * (np.cos(ang) - np.array([math.cos(p) for p in phases])[:, None])
        batch_tracks[..., 2] += radii[:, None] * (np.sin(ang) - np.array([math.sin(p) for p in phases])[:, None])
        # a clash on every fourth frame with an object accepted before the
        # batch is a clash; the tries left are tested one by one
        sizes_k = values[:, 7]
        bound = min_sep + np.sqrt(3) * (sizes_k[:, None] + sizes) if surface_separation else min_sep
        coarse = np.linalg.norm(batch_tracks[:, None, ::4] - tracks[:, ::4], axis=3)
        clash = (coarse.min(axis=2) < bound).any(axis=1)
        for k in np.flatnonzero(~clash).tolist():
            track, size = batch_tracks[k], float(sizes_k[k])
            bound = min_sep + np.sqrt(3) * (size + sizes) if surface_separation else min_sep
            if (np.linalg.norm(track - tracks, axis=2).min(axis=1) < bound).any():
                continue
            tracks = np.concatenate([tracks, track[None]])
            sizes = np.append(sizes, size)
            objs.append(
                ObjectSpec(
                    shape="sphere" if len(objs) % 2 else "box",
                    size=(size,) * 3,
                    position=tuple(centers[k]),
                    trajectory=TrajectorySpec(
                        kind="circular",
                        radius=float(radii[k]),
                        angular_rate=float(rates[k]),
                        phase=float(phases[k]),
                        plane="xz",
                    ),
                )
            )
            if len(objs) == n:
                break
    return tuple(objs)


def linear_objects(n: int = 2) -> tuple[ObjectSpec, ...]:
    """A few linearly moving objects; exact under boundary smoothing."""
    presets = [
        ObjectSpec(shape="sphere", size=(0.4,) * 3, position=(-1.5, 0.2, 4.0),
                   trajectory=TrajectorySpec(kind="linear", velocity=(0.06, 0.01, 0.0))),
        ObjectSpec(shape="box", size=(0.3,) * 3, position=(1.2, -0.5, 3.5),
                   trajectory=TrajectorySpec(kind="linear", velocity=(-0.05, 0.02, 0.01))),
        ObjectSpec(shape="sphere", size=(0.3,) * 3, position=(0.2, 0.6, 4.5),
                   trajectory=TrajectorySpec(kind="linear", velocity=(0.02, -0.04, 0.02))),
    ]
    return tuple(presets[:n])


@functools.cache
def gauge_recovery_spec(seed: int = 3, num_frames: int = 40, grid: int = 24) -> SceneSpec:
    """Noise-free dynamic scene with randomized chunk gauges."""
    return SceneSpec(
        num_frames=num_frames,
        height=grid,
        width=grid,
        seed=seed,
        objects=linear_objects(2),
        camera=CameraSpec(kind="orbit", target=(0, 0, 4.0), start=(0.3, 0.1, -1.2),
                          rate=0.01, bob=0.05),
        gauge=FULL_GAUGE,
    )


@functools.cache
def end_to_end_spec(seed: int = 11) -> SceneSpec:
    """128-frame noise-free scene for exact gauge-recovery acceptance."""
    return SceneSpec(
        num_frames=128,
        height=32,
        width=32,
        seed=seed,
        objects=linear_objects(3),
        camera=CameraSpec(kind="orbit", target=(0, 0, 4.0), start=(0.3, 0.1, -1.2),
                          rate=0.006, bob=0.04),
        gauge=FULL_GAUGE,
    )


@functools.cache
def ablation_spec(seed: int) -> SceneSpec:
    """Weak-static scene for the ablation ordering: the only trusted wall
    region is a compact corner patch, so static registration is valid but
    poorly conditioned, while separated dynamic objects cross every chunk
    boundary."""
    rng = np.random.default_rng(seed + 1000)
    objs = separated_objects(rng, 26, 128, 0.45)
    return SceneSpec(
        num_frames=128,
        height=32,
        width=32,
        seed=seed,
        objects=objs,
        background=BackgroundSpec(distance=6.0, amplitude=0.02),
        camera=CameraSpec(kind="dolly", start=(0.1, 0.05, -0.6), target=(0, 0, 4.0),
                          velocity=(0.004, 0.002, -0.004), accel=(-3e-5, 1.5e-5, -1e-5)),
        noise_sigma=0.01,
        static_corruption=1.0,
        static_window=(0, 6, 0, 16),
        gauge=FULL_GAUGE,
    )


@functools.cache
def dynamic_overlap_spec(seed: int) -> SceneSpec:
    """Almost every trustworthy overlap pixel is dynamic: the wall carries
    no confidence at all and the view is full of separated moving objects."""
    rng = np.random.default_rng(seed + 1000)
    objs = separated_objects(
        rng, 44, 128, 0.36,
        arena=((-1.3, 1.3), (-0.55, 0.55), (3.1, 5.3)),
        radius_range=(0.5, 0.8),
        rate_range=(0.3, 0.45),
        size_range=(0.09, 0.13),
    )
    return SceneSpec(
        num_frames=128,
        height=32,
        width=32,
        seed=seed,
        objects=objs,
        background=BackgroundSpec(distance=6.0, amplitude=0.02),
        camera=CameraSpec(kind="orbit", target=(0, 0, 4.0), start=(0.3, 0.15, -1.3),
                          rate=0.008, bob=0.08),
        noise_sigma=0.01,
        static_corruption=1.0,
        gauge=FULL_GAUGE,
    )


def ablation_config() -> PipelineConfig:
    """Pipeline settings tuned for the sigma = 0.01 ablation scenes."""
    return PipelineConfig(
        chunk_length=16,
        overlap=4,
        seed_stride=1,
        gamma_stat_frac=0.06,
        min_displacement=0.25,
        traj_cap=0.08,
        cost_max=0.6,
        lambda_vel=0.3,
        lambda_dir=0.3,
        lambda_cam=3.0,
        lambda_sm=0.3,
        refine_scale=True,
        association_rounds=2,
    )


ASSOCIATION_SIGMA = 0.008
ASSOCIATION_SCENE_SCALE = 7.3  # measured on these scenes; pins 5 sigma in world units


@functools.cache
def association_spec(seed: int, num_objects: int = 50) -> SceneSpec:
    """50 separated objects; the tracked surfaces never come closer than
    five times the world-unit point noise."""
    rng = np.random.default_rng(seed + 9000)
    min_sep = 5.0 * ASSOCIATION_SIGMA * ASSOCIATION_SCENE_SCALE
    objs = separated_objects(
        rng, num_objects, 64, min_sep,
        arena=((-1.7, 1.7), (-1.1, 1.1), (2.8, 5.6)),
        radius_range=(0.3, 0.5),
        rate_range=(0.35, 0.5),
        size_range=(0.06, 0.09),
        max_tries=60000,
        surface_separation=True,
    )
    return SceneSpec(
        num_frames=64,
        height=40,
        width=40,
        seed=seed,
        objects=objs,
        background=BackgroundSpec(distance=6.0, amplitude=0.15),
        camera=CameraSpec(kind="dolly", start=(0.05, 0.0, -0.6), target=(0, 0, 4.0),
                          velocity=(0.003, 0.0015, -0.003), accel=(-2e-5, 1e-5, 0.0)),
        noise_sigma=ASSOCIATION_SIGMA,
        gauge=FULL_GAUGE,
    )


def association_config() -> PipelineConfig:
    """Association-quality settings for the sigma = 0.008 scenes: the
    trajectory cap sits between the double-noise discrepancy of true pairs
    and the controlled 5 sigma separation of wrong ones."""
    return PipelineConfig(
        chunk_length=16,
        overlap=4,
        seed_stride=1,
        gamma_stat_frac=0.05,
        min_displacement=0.2,
        traj_cap=0.035,
        dir_cap=0.8,
        cost_max=0.6,
        lambda_vel=0.15,
        lambda_dir=0.15,
        lambda_cam=3.0,
        lambda_sm=0.3,
        refine_scale=True,
        association_rounds=2,
    )


@functools.cache
def identity_span_spec(visible_ranges=None) -> SceneSpec:
    """One clearly moving object crossing several chunk boundaries, plus a
    second mover as background traffic; 64 frames, plan (0,15)...(48,63)."""
    target = ObjectSpec(
        shape="sphere",
        size=(0.28,) * 3,
        position=(-1.3, 0.25, 4.2),
        trajectory=TrajectorySpec(kind="linear", velocity=(0.042, -0.006, 0.004)),
        visible_ranges=visible_ranges,
    )
    other = ObjectSpec(
        shape="box",
        size=(0.22,) * 3,
        position=(1.1, -0.45, 3.6),
        trajectory=TrajectorySpec(kind="linear", velocity=(-0.035, 0.01, 0.008)),
    )
    return SceneSpec(
        num_frames=64,
        height=28,
        width=28,
        seed=7,
        objects=(target, other),
        camera=CameraSpec(kind="orbit", target=(0, 0, 4.0), start=(0.25, 0.1, -1.1),
                          rate=0.008, bob=0.04),
        gauge=GaugeSpec(scale_range=(0.8, 1.3), rotation_max=0.5, translation_max=0.3),
    )


# camera noise: per axis, 0.2% of the scene scale on a centre (times its
# chunk's gauge scale) and 0.5 degrees on a rotation
CENTER_NOISE = 0.002
ROTATION_NOISE_DEG = 0.5


def with_camera_noise(emitted: EmittedChunks, scene_scale: float, seed: int) -> list[Chunk]:
    """The chunks of ``emitted`` with noisy cameras, points and confidences
    kept. Each pose, in each chunk alone, turns by an axis-angle vector
    and its centre moves by an offset, both iid Gaussian per axis at
    ``ROTATION_NOISE_DEG`` and ``CENTER_NOISE * scene_scale`` times the
    chunk's gauge scale. The draw has its own rng, the sixth child of
    ``SeedSequence(seed)``: ``emit_chunks`` spawns five, which keep their
    values."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(6)[5])
    noisy = []
    for chunk, gauge in zip(emitted.chunks, emitted.gauges):
        n = len(chunk.poses)
        turns = Rotation.from_rotvec(rng.normal(0.0, np.radians(ROTATION_NOISE_DEG), (n, 3))).as_matrix()
        shifts = rng.normal(0.0, CENTER_NOISE * scene_scale * gauge.scale, (n, 3))
        poses = tuple(Pose(q @ p.rotation, p.center + d) for q, p, d in zip(turns, chunk.poses, shifts))
        noisy.append(Chunk(chunk.chunk_id, chunk.start_frame, chunk.points, chunk.confidence, poses))
    return noisy
