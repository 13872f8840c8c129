"""The benchmark's workloads: frozen scene recipes plus pipeline settings.

The recipes are copies of the ones in ``tests/scenes.py`` as they stood
when the benchmark was defined. They live here so that an edit to the test
suite cannot move the benchmark's inputs; a change to a workload is a
change to the benchmark. Every scene is built from the seed given on the
command line, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chunkfuse import PipelineConfig
from chunkfuse.synthetic import (
    BackgroundSpec,
    CameraSpec,
    GaugeSpec,
    ObjectSpec,
    SceneSpec,
    TrajectorySpec,
)

FULL_GAUGE = GaugeSpec(scale_range=(0.6, 1.6), rotation_max=1.2, translation_max=0.6)


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
    ``min_sep`` (between surfaces with ``surface_separation``).

    Draws and decisions are those of ``tests/scenes.py``; the distance
    test runs against all accepted tracks at once and looks at a quarter
    of the frames first, which gives the same objects in a fraction of the
    time.
    """
    objs = []
    tracks = np.empty((0, num_frames, 3))
    sizes = np.empty(0)
    tries = 0
    while len(objs) < n and tries < max_tries:
        tries += 1
        center = np.array(
            [rng.uniform(*arena[0]), rng.uniform(*arena[1]), rng.uniform(*arena[2])]
        )
        radius = rng.uniform(*radius_range)
        rate = (1 if rng.random() < 0.5 else -1) * rng.uniform(*rate_range)
        phase = rng.uniform(0, 2 * np.pi)
        size = float(rng.uniform(*size_range))
        traj = TrajectorySpec(
            kind="circular",
            radius=float(radius),
            angular_rate=float(rate),
            phase=float(phase),
            plane="xz",
        )
        track = center + traj.offsets(num_frames)
        bound = min_sep + np.sqrt(3) * (size + sizes) if surface_separation else min_sep
        # every fourth frame first: a clash there is a clash, and most draws clash
        coarse = np.linalg.norm(track[::4] - tracks[:, ::4], axis=2)
        if (coarse.min(axis=1) < bound).any():
            continue
        if (np.linalg.norm(track - tracks, axis=2).min(axis=1) < bound).any():
            continue
        tracks = np.concatenate([tracks, track[None]])
        sizes = np.append(sizes, size)
        objs.append(
            ObjectSpec(
                shape="sphere" if len(objs) % 2 else "box",
                size=(size,) * 3,
                position=tuple(center),
                trajectory=traj,
            )
        )
    return tuple(objs)


def ablation_spec(seed: int) -> SceneSpec:
    """Weak-static scene: the only trusted wall region is a compact corner
    patch, while separated dynamic objects cross every chunk boundary."""
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


def ablation_config() -> PipelineConfig:
    """Pipeline settings for the sigma = 0.01 ablation scenes."""
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
ASSOCIATION_SCENE_SCALE = 7.3  # pins 5 sigma in world units


def association_spec(seed: int, num_objects: int = 50) -> SceneSpec:
    """50 separated objects whose tracked surfaces never come closer than
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
    """Association settings for the sigma = 0.008 scenes."""
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


def gauge_recovery_spec(seed: int = 3) -> SceneSpec:
    """Tiny noise-free scene (40 frames, 24x24) for the harness self-test."""
    objects = (
        ObjectSpec(shape="sphere", size=(0.4,) * 3, position=(-1.5, 0.2, 4.0),
                   trajectory=TrajectorySpec(kind="linear", velocity=(0.06, 0.01, 0.0))),
        ObjectSpec(shape="box", size=(0.3,) * 3, position=(1.2, -0.5, 3.5),
                   trajectory=TrajectorySpec(kind="linear", velocity=(-0.05, 0.02, 0.01))),
    )
    return SceneSpec(
        num_frames=40,
        height=24,
        width=24,
        seed=seed,
        objects=objects,
        camera=CameraSpec(kind="orbit", target=(0, 0, 4.0), start=(0.3, 0.1, -1.2),
                          rate=0.01, bob=0.05),
        gauge=FULL_GAUGE,
    )


# Scene k of a run's panel is drawn with seed ``seed + PANEL_STRIDE * k``,
# so scene 0 is the recipe at the run's own seed and the panels of two runs
# with different seeds below the stride share no scene.
PANEL_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int], SceneSpec]
    config: Callable[[], PipelineConfig]
    panel: int

    def scene_seeds(self, seed: int) -> list[int]:
        return [seed + PANEL_STRIDE * k for k in range(self.panel)]


def _assoc_dense_spec(seed: int) -> SceneSpec:
    # The object layout is seed 0's for every seed, so each seed asks for
    # the same association work (~31k candidates, within 2%); the seed
    # draws the gauges, point noise and confidences.
    return dataclasses.replace(
        association_spec(0), seed=seed, height=120, width=120, num_frames=32
    )


WORKLOADS = {
    w.name: w
    for w in (
        # association dominates the fuse: ~700 tracklets per side, ~26
        # candidates per tracklet
        Workload("assoc-dense", _assoc_dense_spec, association_config, panel=1),
        # 11 chunks of small frames: per-junction work, IO and the oracle
        # dominate; the static tier is accepted at every overlap junction
        Workload("long-stream", ablation_spec, ablation_config, panel=8),
    )
}
