"""Deterministic synthetic dynamic scenes with analytic ground truth.

Replaces the frozen neural local predictor: generates tracked per-pixel
pointmaps, camera poses, visibility, and per-chunk local predictions with
controllable gauges, point noise, and suppressed wall confidence. The
ground truth is a function of the spec alone; only the chunk emission
draws random numbers, from the spec's seed. Pointmaps are ray-cast
against analytic surfaces (bumped wall, spheres, boxes); each pixel is
bound to the nearest surface point along its first-frame ray and tracked
through time, so per-pixel point tracks are exact physical trajectories.

The wall has no closed-form hit, so each ray is sampled on a fixed grid
until the height function changes sign and the bracket is bisected. Only
the grid steps whose height can lie within the wall's relief are
evaluated, since no sign change can happen outside it. A point is visible
in a frame when it is in view and nothing lies on its ray more than a
small tolerance before it. That is an any-hit test up to a known
distance, so the bisection stops once every ray's bracket lies wholly
before or beyond that distance, and a ray that cannot meet the wall
before it skips the scan altogether: the wall's slope is at most
``|amplitude| * |frequency|``, so along a ray that climbs faster than that
(by a 0.1% margin) ``g = z - height`` only rises, and if ``g`` is still
below ``-1e-9 * (|distance| + |amplitude|)`` at the distance, it is below
zero everywhere before it. The objects are cast in one batched pass over
the (ray, object) pairs whose ray passes within the object's bounding
sphere. A ray's nearest object is the lowest-index one at its least
distance, and it hides the wall only when strictly nearer, as when the
objects are cast one after another. Visibility is cast for blocks of
consecutive frames at once; every per-ray step is elementwise, so each
frame of a block gets the decisions of a cast of its own. None of these
shortcuts changes a visibility decision or a bound point: ``generate``
gives the same bits as scanning every step, bisecting to the end, casting
every object against every ray in index order and each frame alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .chunking import plan_chunks
from .errors import InvalidSpec
from .model import (
    Chunk,
    PipelineConfig,
    Pose,
    SimilarityTransform,
    TrackTable,
    norm3,
)

VISIBLE_CONF = (0.7, 1.0)
HIDDEN_CONF = (0.0, 0.05)
CORRUPT_CONF = (0.0, 0.02)
FOV_DEG = 55.0  # horizontal field of view of every camera


# ---------------------------------------------------------------------------
# Scene description


@dataclass(frozen=True)
class BackgroundSpec:
    """Bumped wall: z = distance - amplitude * sin(fx x + px) * cos(fy y + py)."""

    distance: float = 6.0
    amplitude: float = 0.2
    frequency: float = 1.1
    phase: tuple[float, float] = (0.4, 1.1)

    def height(self, x, y):
        px, py = self.phase
        return self.distance - self.amplitude * np.sin(self.frequency * x + px) * np.cos(
            self.frequency * y + py
        )


@dataclass(frozen=True)
class TrajectorySpec:
    kind: str = "linear"
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 1.0
    angular_rate: float = 0.1
    phase: float = 0.0
    plane: str = "xy"

    def offsets(self, num_frames: int) -> np.ndarray:
        """Displacement from the frame-0 position, (num_frames, 3)."""
        t = np.arange(num_frames, dtype=np.float64)
        if self.kind == "linear":
            return t[:, None] * np.asarray(self.velocity)
        if self.kind == "circular":
            axes = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}
            if self.plane not in axes:
                raise InvalidSpec(f"unknown circular plane {self.plane!r}")
            i, j = axes[self.plane]
            ang = self.angular_rate * t + self.phase
            out = np.zeros((num_frames, 3))
            out[:, i] = self.radius * (np.cos(ang) - math.cos(self.phase))
            out[:, j] = self.radius * (np.sin(ang) - math.sin(self.phase))
            return out
        raise InvalidSpec(f"unknown trajectory kind {self.kind!r}")


@dataclass(frozen=True)
class ObjectSpec:
    shape: str = "sphere"
    size: tuple[float, float, float] = (0.5, 0.5, 0.5)
    position: tuple[float, float, float] = (0.0, 0.0, 4.0)
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    visible_ranges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.shape not in ("sphere", "box"):
            raise InvalidSpec(f"unknown object shape {self.shape!r}")
        object.__setattr__(self, "size", tuple(float(s) for s in self.size))
        if not all(s > 0 for s in self.size):
            raise InvalidSpec(f"object size must be positive, got {self.size}")
        for lo, hi in self.visible_ranges or ():
            if not 0 <= lo <= hi:
                raise InvalidSpec(f"visible range ({lo}, {hi}) must have 0 <= lo <= hi")

    def forced_visible(self, t: int) -> bool:
        if self.visible_ranges is None:
            return True
        return any(lo <= t <= hi for lo, hi in self.visible_ranges)


@dataclass(frozen=True)
class CameraSpec:
    kind: str = "orbit"
    target: tuple[float, float, float] = (0.0, 0.0, 4.0)
    start: tuple[float, float, float] = (0.0, 0.0, -1.0)
    rate: float = 0.01
    bob: float = 0.0
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    accel: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def positions(self, num_frames: int) -> np.ndarray:
        t = np.arange(num_frames, dtype=np.float64)
        start = np.asarray(self.start, dtype=np.float64)
        target = np.asarray(self.target, dtype=np.float64)
        if self.kind == "orbit":
            arm = start - target
            if np.linalg.norm(arm) < 1e-9:
                raise InvalidSpec("orbit camera must start away from its target")
            ang = self.rate * t
            cos, sin = np.cos(ang), np.sin(ang)
            # rotate the arm about the world y axis, plus a vertical bob
            x = cos * arm[0] + sin * arm[2]
            z = -sin * arm[0] + cos * arm[2]
            pos = np.stack([x, np.full_like(x, arm[1]), z], axis=1) + target
            pos[:, 1] += self.bob * np.sin(2.0 * ang)
            return pos
        if self.kind == "dolly":
            v = np.asarray(self.velocity, dtype=np.float64)
            a = np.asarray(self.accel, dtype=np.float64)
            return start + t[:, None] * v + 0.5 * t[:, None] ** 2 * a
        raise InvalidSpec(f"unknown camera kind {self.kind!r}")


@dataclass(frozen=True)
class GaugeSpec:
    """Per-chunk gauge randomization bounds."""

    scale_range: tuple[float, float] = (1.0, 1.0)
    rotation_max: float = 0.0
    translation_max: float = 0.0

    def __post_init__(self):
        lo, hi = self.scale_range
        if not lo > 0 or not hi >= lo:
            raise InvalidSpec(f"bad gauge scale range {self.scale_range}")
        if not self.rotation_max >= 0 or not self.translation_max >= 0:
            raise InvalidSpec("gauge bounds must be non-negative")


@dataclass(frozen=True)
class SceneSpec:
    num_frames: int = 32
    height: int = 24
    width: int = 24
    seed: int = 0
    background: BackgroundSpec = field(default_factory=BackgroundSpec)
    objects: tuple[ObjectSpec, ...] = ()
    camera: CameraSpec = field(default_factory=CameraSpec)
    noise_sigma: float = 0.0
    static_corruption: float = 0.0
    static_window: tuple[int, int, int, int] | None = None
    gauge: GaugeSpec = field(default_factory=GaugeSpec)

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if self.num_frames < 1:
            raise InvalidSpec("num_frames must be >= 1")
        if self.height < 2 or self.width < 2:
            raise InvalidSpec("grid must be at least 2x2")
        if not 0.0 <= self.static_corruption <= 1.0:
            raise InvalidSpec("static_corruption must lie in [0, 1]")
        if self.static_window is not None:
            object.__setattr__(self, "static_window", tuple(int(v) for v in self.static_window))
            r0, r1, c0, c1 = self.static_window
            if not (0 <= r0 < r1 <= self.height and 0 <= c0 < c1 <= self.width):
                raise InvalidSpec(f"static_window {self.static_window} outside the grid")
        if self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be non-negative")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {self.seed}")


# ---------------------------------------------------------------------------
# Ray casting


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of ``v`` (n, 3), each the ``sqrt(v.dot(v))``
    of ``np.linalg.norm`` on that row alone: a stacked sum rounds differently."""
    return np.sqrt([row.dot(row) for row in v])


def _look_at_rotations(positions: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Camera-to-world rotations (n, 3, 3) of cameras at ``positions`` looking
    at ``target``: columns right, down and forward, right at right angles to
    the world's y axis (to its z axis where the camera looks along y)."""
    forward = target - positions
    norm = _row_norms(forward)
    if (norm < 1e-12).any():
        raise InvalidSpec("camera position coincides with its target")
    forward = forward / norm[:, None]
    up_hint = np.zeros_like(forward)
    up_hint[:, 1] = 1.0
    right = np.cross(up_hint, forward)
    level = _row_norms(right) < 1e-9
    if level.any():
        up_hint[level] = (0.0, 0.0, 1.0)
        right[level] = np.cross(up_hint[level], forward[level])
    right /= _row_norms(right)[:, None]
    down = np.cross(forward, right)
    return np.stack([right, down, forward], axis=2)


def _focal(width: int) -> float:
    """Focal length in pixels of a ``width``-pixel image at :data:`FOV_DEG`."""
    return 0.5 * (width - 1) / math.tan(math.radians(FOV_DEG) / 2.0)


def _pixel_directions(height: int, width: int) -> np.ndarray:
    """Unit ray directions in the camera frame, (H, W, 3), z forward."""
    focal = _focal(width)
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    r, c = np.mgrid[0:height, 0:width]
    d = np.stack([(c - cx) / focal, (r - cy) / focal, np.ones_like(c, dtype=np.float64)], axis=-1)
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def _ray_sphere(origin, dirs, center, radius_sq):
    """First hit of each ray (N, 3) from its ``origin`` (N, 3) with its
    sphere: ``center`` (N, 3) and ``radius_sq``, the squared radius (N,)."""
    oc = origin - center
    b = (dirs * oc).sum(axis=-1)
    disc = b**2 - ((oc**2).sum(axis=-1) - radius_sq)
    s = np.full(dirs.shape[:-1], np.inf)
    hit = disc >= 0
    root = np.sqrt(np.where(hit, disc, 0.0))
    near = -b - root
    far = -b + root
    s = np.where(hit & (near > 1e-9), near, s)
    s = np.where(hit & (near <= 1e-9) & (far > 1e-9), far, s)
    return s


def _ray_box(origin, dirs, center, half):
    """First hit of each ray (N, 3) from its ``origin`` (N, 3) with its
    axis-aligned box: ``center`` and half-extents ``half``, (N, 3)."""
    lo = center - np.asarray(half)
    hi = center + np.asarray(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t0 = (lo - origin) * inv
        t1 = (hi - origin) * inv
    tmin = np.minimum(t0, t1)
    tmax = np.maximum(t0, t1)
    # rays parallel to a slab: inside -> (-inf, inf), outside -> miss
    par = np.abs(dirs) < 1e-15
    inside = (origin >= lo) & (origin <= hi)
    tmin = np.where(par, np.where(inside, -np.inf, np.inf), tmin)
    tmax = np.where(par, np.where(inside, np.inf, -np.inf), tmax)
    enter = tmin.max(axis=-1)
    exit_ = tmax.min(axis=-1)
    s = np.full(dirs.shape[:-1], np.inf)
    hit = (enter <= exit_) & (exit_ > 1e-9)
    near = np.where(enter > 1e-9, enter, exit_)
    return np.where(hit, near, s)


_SCAN_STEPS = 96
_BISECTIONS = 60
_SLOPE_MARGIN = 1.001
_CLEAR_MARGIN = 1e-9


def _wall_free(origin, d, bg: BackgroundSpec, lim):
    """Masks over the rays ``d`` (unit, (N, 3)) from ``origin`` (N, 3):
    ``rises``, where ``g = z - height`` strictly increases along the ray,
    and ``clear``, where it also lies below ``-_CLEAR_MARGIN * (|distance|
    + |amplitude|)`` at ``lim``."""
    slope = _SLOPE_MARGIN * abs(bg.amplitude) * abs(bg.frequency)
    rises = d[:, 2] > slope * np.hypot(d[:, 0], d[:, 1])
    p = origin + lim[:, None] * d
    below = p[:, 2] - bg.height(p[:, 0], p[:, 1]) < -_CLEAR_MARGIN * (
        abs(bg.distance) + abs(bg.amplitude))
    return rises, rises & below


def _ray_background(origin, dirs, bg: BackgroundSpec, s_cap, limit=None):
    """First intersection with the bumped wall along each ray, inf on a miss.

    ``origin`` (..., 3) holds the origin of each ray of ``dirs`` (..., 3).
    A ray is sampled at ``_SCAN_STEPS`` equal steps up to ``s_cap`` or
    ``s_flat``, whichever is nearer, where ``s_flat`` reaches past the
    wall's highest point. The first step at which ``g = z - height``
    turns positive brackets the hit, which is then bisected
    ``_BISECTIONS`` times.

    Only the band of steps near the wall is evaluated. The height is
    ``distance - amplitude * sin * cos`` with ``|sin * cos| <= 1``, and
    float rounding is monotone, so ``g <= 0`` at every step whose z lies
    below ``distance - |amplitude|`` and ``g > 0`` at every step whose z
    lies above ``distance + |amplitude|``. A ray's z does not decrease from
    one step to the next, so every sign change lies between the last step
    below the band and the first step above it, and scanning those steps
    finds the same bracket as scanning the whole grid. Each ray is scanned
    over its own band only: the (ray, step) pairs are laid out flat, so a
    wide or fallback band pads no other ray.

    The bisection stops early once a step changes no ray's bracket: that
    state is a fixed point, so the remaining steps would return the same
    bits. A NaN bracket never compares equal and runs every step.

    ``limit`` (per ray) asks only whether the hit lies before it. The
    bisection then stops as soon as every ray's bracket lies wholly on one
    side of its limit. Each bracket holds the brackets of all later steps,
    so the returned midpoint is on the same side of ``limit`` as the full
    root, but is not the root itself; which midpoint depends on the other
    rays of the call. The rays bisect in lockstep: they usually all decide
    at the same step, and gathering the undecided ones each step cost more
    than the steps it saved.

    With ``limit``, a ray that ``_wall_free`` certifies returns ``inf``
    without a scan. The height's gradient, ``amplitude * frequency *
    (-cos a cos b, sin a sin b)``, is at most ``|amplitude| * |frequency|``
    long, so along a ray with ``d_z > 1.001 * |amplitude| * |frequency| *
    |d_xy|`` ``g`` strictly increases; the 0.1% covers rounding in the test
    itself. If the computed ``g`` at ``origin + limit * d`` is also below
    ``-1e-9 * (|distance| + |amplitude|)``, a margin many orders above the
    few ulps by which a computed ``g`` strays from the exact one, then the
    computed ``g`` is negative at every point up to ``limit``, and every
    point where it is positive lies a margin's worth of ``g`` beyond it.
    The full scan can then only bracket a sign change whose upper end lies
    past ``limit``, and after its bisections the bracket is far narrower
    than that gap, so its root is ``inf`` or ``>= limit``: the same
    decision as the ``inf`` returned. Without ``limit`` (the frame-0
    binding cast) the root itself is wanted, and every ray is scanned.
    """
    flat = dirs.reshape(-1, 3)
    s_out = np.full(len(flat), np.inf)
    idx = np.nonzero(flat[:, 2] > 1e-12)[0]
    d = flat[idx]
    o = origin.reshape(-1, 3)[idx]
    if limit is not None:
        lim = np.broadcast_to(limit, dirs.shape[:-1]).ravel()[idx]
        keep = ~_wall_free(o, d, bg, lim)[1]
        idx, d, lim, o = idx[keep], d[keep], lim[keep], o[keep]
    oz = o[:, 2]
    s_flat = (bg.distance + abs(bg.amplitude) + 1.0 - oz) / d[:, 2]
    cap = np.broadcast_to(np.asarray(s_cap, dtype=np.float64), dirs.shape[:-1]).ravel()[idx]
    s_hi = np.minimum(s_flat, np.where(np.isfinite(cap), cap, s_flat))
    s_hi = np.maximum(s_hi, 1e-9)
    grid = np.linspace(0.0, 1.0, _SCAN_STEPS + 1)

    def g(s, dd, oo):
        p = oo + s[..., None] * dd
        return p[..., 2] - bg.height(p[..., 0], p[..., 1])

    # z of the sample at step k, computed as g computes it
    def z_at(k):
        return oz + (grid[k] * s_hi) * d[:, 2]

    # The padding keeps the band safe should sin or cos round past +-1.
    reach = abs(bg.amplitude) + 1e-9 * (abs(bg.distance) + abs(bg.amplitude))
    z_lo, z_hi = bg.distance - reach, bg.distance + reach
    rise = s_hi * d[:, 2] / _SCAN_STEPS
    first = np.clip(np.floor((z_lo - oz) / rise) - 1, 0, _SCAN_STEPS).astype(np.intp)
    last = np.clip(np.ceil((z_hi - oz) / rise) + 1, 0, _SCAN_STEPS).astype(np.intp)
    # The estimate is exact to a few ulps; should it miss, scan every step.
    off = ((first > 0) & (z_at(first) > z_lo)) | ((last < _SCAN_STEPS) & (z_at(last) <= z_hi))
    first[off] = 0
    last[off] = _SCAN_STEPS

    rows = np.nonzero(last > first)[0]
    if not rows.size:
        return s_out.reshape(dirs.shape[:-1])
    # one (ray, step) pair per step of each ray's band, ray by ray
    count = last[rows] - first[rows] + 1
    ray = np.repeat(rows, count)
    steps = np.arange(len(ray)) + np.repeat(first[rows] - (np.cumsum(count) - count), count)
    s = grid[steps] * s_hi[ray]
    val = g(s, d[ray], o[ray])
    cross = (val[:-1] <= 0) & (val[1:] > 0) & (ray[:-1] == ray[1:])
    at = np.flatnonzero(cross)
    # each ray's first crossing
    at = at[np.flatnonzero(np.diff(ray[at], prepend=-1))]
    flo = s[at]
    fhi = s[at + 1]
    rows = ray[at]
    dd = d[rows]
    oo = o[rows]

    if limit is not None:
        lim = lim[rows]
    for _ in range(_BISECTIONS):
        if limit is not None and not ((flo < lim) & (lim <= fhi)).any():
            break
        mid = 0.5 * (flo + fhi)
        neg = g(mid, dd, oo) <= 0
        lo, hi = np.where(neg, mid, flo), np.where(neg, fhi, mid)
        if np.array_equal(lo, flo) and np.array_equal(hi, fhi):
            break
        flo, fhi = lo, hi
    s_out[idx[rows]] = 0.5 * (flo + fhi)
    return s_out.reshape(dirs.shape[:-1])


# ---------------------------------------------------------------------------
# Ground truth


@dataclass
class GroundTruth:
    """World-frame tracked pointmaps, poses, binding, and visibility."""

    points: np.ndarray
    poses: list[Pose]
    object_ids: np.ndarray
    visible: np.ndarray
    scene_scale: float

    @property
    def num_frames(self) -> int:
        return self.points.shape[0]

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.points.shape[1:3]

    def trajectory_table(self) -> TrackTable:
        """The track of every pixel of ``points``: a table over a read-only
        view of ``points``, with no copy."""
        return TrackTable(self.points)


def _object_offsets(spec: SceneSpec) -> np.ndarray:
    if not spec.objects:
        return np.zeros((0, spec.num_frames, 3))
    return np.stack([o.trajectory.offsets(spec.num_frames) for o in spec.objects])


def _near_bounds(origin, dirs, centers, radii):
    """(..., N, M) mask: ray n passes within bounding sphere m.

    The rays ``dirs`` (..., N, 3) leave ``origin`` (..., 3), and ``centers``
    (..., M, 3) are the spheres' centres. Each leading index, such as a
    frame, has its own (N, 3) @ (3, M) product. The test is on the squared
    distance from each center to each ray's line, the quantity
    ``_ray_sphere`` also tests, written as the squared projection of the
    center on the ray against ``dist2`` less the bound, so the (N, M)
    product is squared in place. The spheres are inflated by 0.1% and by a
    rounding allowance, so no ray that hits an object is dropped.
    """
    rel = centers - origin[..., None, :]
    dist2 = (rel**2).sum(axis=-1)[..., None, :]
    along2 = dirs @ rel.swapaxes(-1, -2)
    np.square(along2, out=along2)
    return along2 >= dist2 - ((1.001 * radii) ** 2 + 1e-12 * dist2)


def _cast_all(origins, dirs, spec: SceneSpec, centers, s_cap=np.inf, limit=None):
    """Nearest hit over background and all objects: (s, owner id), shaped
    like ``dirs[..., 0]``.

    The rays ``dirs`` (F, ..., 3) of a block of F frames are cast in one
    pass, frame f's from ``origins[f]`` against the objects at
    ``centers[f]`` (F, M, 3); ``s_cap`` and ``limit`` are scalars or one
    per ray. Every per-ray step is elementwise, so a ray gets the bits it
    would get cast in a block of its own frame. Owner is -1 for the
    background, the object index otherwise, and -2 where nothing is hit.
    The objects are cast in one batched pass over the (ray, object) pairs
    whose ray passes within the object's slightly inflated bounding sphere;
    the other pairs cannot hit. Each ray's nearest object is the
    lowest-index one at its least ``s``, and it replaces the wall only
    where its ``s`` is strictly less. ``limit`` is passed to the wall scan,
    so where it is given, ``s`` is exact for objects but only on the right
    side of ``limit`` for the wall.
    """
    frames = len(origins)
    flat = dirs.reshape(frames, -1, 3)
    n = flat.shape[1]
    # each ray carries its frame's origin
    ray_origin = np.repeat(origins, n, axis=0)
    best_s = _ray_background(ray_origin, dirs, spec.background, s_cap, limit).ravel()
    best_id = np.where(np.isfinite(best_s), -1, -2)
    if spec.objects:
        sizes = np.array([obj.size for obj in spec.objects])
        spheres = np.array([obj.shape == "sphere" for obj in spec.objects])
        radii = np.array([obj.size[0] if obj.shape == "sphere" else math.hypot(*obj.size)
                          for obj in spec.objects])
        # squared by Python's float power, one object at a time: numpy's
        # square rounds about one radius in a thousand differently
        radius_sq = np.array([obj.size[0] ** 2 for obj in spec.objects])
        # the pairs, row-major; a flat index is ten times faster than 2-D nonzero
        near = _near_bounds(origins, flat, centers, radii)
        rows, objs = np.divmod(np.flatnonzero(near), len(spec.objects))
        frame = rows // n
        o = ray_origin[rows]
        ctr = centers[frame, objs]
        rays = flat.reshape(-1, 3)[rows]
        s = np.empty(len(rows))
        ball = spheres[objs]
        s[ball] = _ray_sphere(o[ball], rays[ball], ctr[ball], radius_sq[objs[ball]])
        box = ~ball
        s[box] = _ray_box(o[box], rays[box], ctr[box], sizes[objs[box]])
        # each ray's first pair by (s, object index)
        order = np.lexsort((objs, s, rows))
        rows, objs, s = rows[order], objs[order], s[order]
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        rows, objs, s = rows[first], objs[first], s[first]
        closer = s < best_s[rows]
        best_s[rows[closer]] = s[closer]
        best_id[rows[closer]] = objs[closer]
    shape = dirs.shape[:-1]
    return best_s.reshape(shape), best_id.reshape(shape)


# Largest number of (ray, object) pairs one visibility cast may hold; a
# block of frames is cast together while its pairs stay within it. On a
# long-stream scene (1,024 rays, 21 objects) that is 12 frames a block.
# There generate's tracemalloc peak, 7.9 MB, is set by the block casts;
# with 2**19 it is 12.0 MB and with 2**20 20.2 MB. A 120 x 120 frame with
# 50 objects already exceeds it and is cast alone.
_PAIR_BUDGET = 2**18


def generate(spec: SceneSpec) -> GroundTruth:
    """Ground truth of ``spec``, a function of the spec alone: no random
    numbers are drawn, and the seed is left to :func:`emit_chunks`.

    Each pixel is bound by one cast of frame 0's rays. Visibility is then
    cast for blocks of consecutive frames, as many as keep a block's
    (ray, object) pairs within ``_PAIR_BUDGET`` (one at least). A block
    gives every frame the decisions a cast of that frame alone gives.
    """
    if not spec.objects and spec.background.amplitude == 0.0 and spec.camera.kind == "dolly" \
            and spec.camera.velocity == (0.0, 0.0, 0.0) and spec.camera.accel == (0.0, 0.0, 0.0):
        # A featureless static wall with a static camera carries no scene
        # content at all; treat as an authoring error.
        raise InvalidSpec("scene is empty: no objects and no background relief or camera motion")
    positions = spec.camera.positions(spec.num_frames)
    target = np.asarray(spec.camera.target, dtype=np.float64)
    wall_limit = spec.background.distance - abs(spec.background.amplitude)
    if (positions[:, 2] >= wall_limit - 0.25).any():
        raise InvalidSpec("camera path runs into the background wall")
    rig = np.zeros((spec.num_frames, 4, 4))
    rig[:, :3, :3] = _look_at_rotations(positions, target)
    rig[:, :3, 3] = positions
    rig[:, 3, 3] = 1.0
    poses = list(Pose.from_matrices(rig))
    rotations = np.ascontiguousarray(rig[:, :3, :3])

    offsets = _object_offsets(spec)
    # each object's centre in each frame, (T, M, 3)
    centers = np.array([obj.position for obj in spec.objects], dtype=np.float64).reshape(-1, 3) \
        + offsets.transpose(1, 0, 2)
    dirs_cam = _pixel_directions(spec.height, spec.width)
    R0 = poses[0].rotation
    dirs0 = dirs_cam @ R0.T
    o0 = positions[0]
    s0, owner = _cast_all(positions[:1], dirs0[None], spec, centers[:1])
    s0, owner = s0[0], owner[0]
    if not np.isfinite(s0).all():
        raise InvalidSpec("some pixels hit no surface; widen the background or narrow the fov")
    bound = o0 + s0[..., None] * dirs0

    # Each pixel moves with its owner's offsets; row -1 of the padded
    # offsets is zero, for the wall.
    padded = np.zeros((spec.num_frames, len(spec.objects) + 1, 3))
    padded[:, :-1] = offsets.transpose(1, 0, 2)
    points = np.take(padded, owner, axis=1)
    points += bound

    block = max(1, _PAIR_BUDGET // (spec.height * spec.width * max(len(spec.objects), 1)))
    # the median camera-to-point distance, its distances formed block by
    # block into one (T, H, W) buffer rather than from a (T, H, W, 3)
    # difference; the median of the same values has the same bits
    dist = np.empty(points.shape[:3])
    for t in range(0, spec.num_frames, block):
        b = slice(t, t + block)
        dist[b] = norm3(points[b] - positions[b, None, None])
    scene_scale = float(np.median(dist, overwrite_input=True))
    del dist
    tol = 1e-6 * scene_scale

    visible = np.empty((spec.num_frames, spec.height, spec.width), dtype=bool)
    focal = _focal(spec.width)
    cy, cx = (spec.height - 1) / 2.0, (spec.width - 1) / 2.0
    for t in range(0, spec.num_frames, block):
        b = slice(t, t + block)
        o = positions[b]
        ray = points[b] - o[:, None, None]
        # one (W, 3) @ (3, 3) product per image row, as frame by frame
        rel = ray @ rotations[b, None]
        z = rel[..., 2]
        in_front = z > 1e-6
        with np.errstate(divide="ignore", invalid="ignore"):
            u = cx + focal * rel[..., 0] / z
            v = cy + focal * rel[..., 1] / z
        in_frame = in_front & (u >= -0.5) & (u <= spec.width - 0.5) & (v >= -0.5) & (v <= spec.height - 0.5)
        dist = norm3(ray)
        ray /= np.maximum(dist, 1e-12)[..., None]
        s_hit, _ = _cast_all(o, ray, spec, centers[b], s_cap=dist + tol, limit=dist - tol)
        visible[b] = in_frame & (s_hit >= dist - tol)
    for m, obj in enumerate(spec.objects):
        for t in range(spec.num_frames):
            if not obj.forced_visible(t):
                visible[t] &= owner != m

    return GroundTruth(
        points=points,
        poses=poses,
        object_ids=owner.astype(np.int32),
        visible=visible,
        scene_scale=scene_scale,
    )


# ---------------------------------------------------------------------------
# Chunk emission


@dataclass
class EmittedChunks:
    """Planned chunk ranges, their true gauges, and a lazy chunk stream."""

    plan: list[tuple[int, int]]
    gauges: list[SimilarityTransform]
    chunks: Iterator[Chunk]


def _random_gauge(rng: np.random.Generator, gauge: GaugeSpec, scene_scale: float) -> SimilarityTransform:
    lo, hi = gauge.scale_range
    scale = float(rng.uniform(lo, hi))
    if gauge.rotation_max > 0:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, gauge.rotation_max)
        K = np.array([
            [0, -axis[2], axis[1]],
            [axis[2], 0, -axis[0]],
            [-axis[1], axis[0], 0],
        ])
        R = np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)
    else:
        R = np.eye(3)
    t = rng.uniform(-1.0, 1.0, size=3) * gauge.translation_max * scene_scale
    return SimilarityTransform(scale, R, t)


def emit_chunks(gt: GroundTruth, cfg: PipelineConfig, spec: SceneSpec) -> EmittedChunks:
    """Local predictions per planned chunk, in randomized chunk gauges.

    Gaussian point noise is applied in the chunk gauge (scaled by the gauge
    scale, so it stays a fixed fraction of the scene scale as seen by that
    chunk); camera poses are exact. ``static_corruption`` suppresses the
    confidence of a fixed background pixel subset in every chunk, outside
    ``static_window``, mimicking a textureless wall the local predictor
    never trusts. Gauges, noise and the suppressed subset come from
    ``spec.seed``. The sampled gauges are returned alongside for
    evaluation.
    """
    plan = plan_chunks(gt.num_frames, cfg.chunk_length, cfg.overlap)
    ss = np.random.SeedSequence(spec.seed)
    children = ss.spawn(5)
    gauge_rng = np.random.default_rng(children[2])
    noise_rng = np.random.default_rng(children[3])
    gauges = [_random_gauge(gauge_rng, spec.gauge, gt.scene_scale) for _ in plan]

    static_mask = np.zeros(gt.grid_shape, dtype=bool)
    if spec.static_corruption > 0:
        wall_rng = np.random.default_rng(children[4])
        corruptible = gt.object_ids == -1
        if spec.static_window is not None:
            r0, r1, c0, c1 = spec.static_window
            corruptible = corruptible.copy()
            corruptible[r0:r1, c0:c1] = False
        bg_rows, bg_cols = np.nonzero(corruptible)
        count = int(round(spec.static_corruption * len(bg_rows)))
        if count:
            pick = wall_rng.permutation(len(bg_rows))[:count]
            static_mask[bg_rows[pick], bg_cols[pick]] = True

    def stream() -> Iterator[Chunk]:
        for k, (start, end) in enumerate(plan):
            g = gauges[k]
            n = end - start + 1
            pts = g.apply(gt.points[start : end + 1])
            sigma = spec.noise_sigma * gt.scene_scale * g.scale
            if sigma > 0:
                pts = pts + noise_rng.normal(0.0, sigma, size=pts.shape)
            vis = gt.visible[start : end + 1]
            conf = np.where(
                vis,
                noise_rng.uniform(*VISIBLE_CONF, size=vis.shape),
                noise_rng.uniform(*HIDDEN_CONF, size=vis.shape),
            )
            if static_mask.any():
                conf[:, static_mask] = noise_rng.uniform(
                    *CORRUPT_CONF, size=(n, int(static_mask.sum()))
                )
            poses = g.apply_poses(gt.poses[start : end + 1])
            yield Chunk(k, start, pts, conf, poses)

    return EmittedChunks(plan=plan, gauges=gauges, chunks=stream())

