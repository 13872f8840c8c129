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
(ray, object) pairs. A ray's nearest object is the lowest-index one at its
least distance, and it hides the wall only when strictly nearer, as when
the objects are cast one after another.

Most visibility rays are decided without a cast. A ray out of view is not
visible. An object can meet a ray from the camera only where its image
covers the ray's pixel, so each object's image is bounded by the
projected corners of its bounding box, widened to whole pixel cells, and
a ray is cast only against the objects whose boxes cover its cell; a box
not wholly in front of the camera covers every cell. The wall cannot hide
a wall point whose ray rises faster than the wall's slope by enough that
``g`` falls below the margin above over the ray's last ``tol``: the scan
would find that ray clear, so it is skipped too. A ray in view is
scanned against the wall unless certified, and cast against the objects
whose boxes cover its cell; one left with neither is visible, the decision
the full cast reaches for it. The frame-0 binding cast uses the same
cover, each pixel's ray lying in its own cell. The per-ray steps
are elementwise, so casting the rays left over from a block of frames, or
from all frames at once, gives each ray the decision of a cast of its own
frame. None of these shortcuts changes a visibility decision or a bound
point: ``generate`` gives the same bits as scanning every step, bisecting
to the end, casting every object against every ray in index order and
each frame alone.
"""

from __future__ import annotations

import itertools
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
    sphere: ``center`` (N, 3) and ``radius_sq``, the squared radius (N,).
    The length-3 sums are spelled out as numpy sums them, (a + b) + c."""
    oc = origin - center
    prod = dirs * oc
    b = prod[:, 0] + prod[:, 1] + prod[:, 2]
    sq = oc**2
    disc = b**2 - ((sq[:, 0] + sq[:, 1] + sq[:, 2]) - radius_sq)
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
    lo = center - half
    hi = center + half
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
    # the length-3 reductions, spelled out in numpy's order
    enter = np.maximum(np.maximum(tmin[:, 0], tmin[:, 1]), tmin[:, 2])
    exit_ = np.minimum(np.minimum(tmax[:, 0], tmax[:, 1]), tmax[:, 2])
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


# Objects are inflated by this factor wherever a superset of the rays that
# meet them is wanted: the 0.1% dwarfs the rounding by which a computed hit
# can stray outside the exact surface.
_INFLATE = 1.001
# Padding, in pixels, of each object's image box: far more than the
# rounding of a projected point, about 1e-12 pixels.
_BOX_PAD = 1e-6


def _cell_boxes(origins, rotations, centers, spec: SceneSpec):
    """The pixel cells each object's image may cover, frame by frame: an
    (F, M, 4) int array of half-open row and column ranges (r0, r1, c0, c1).

    Frame f's camera sits at ``origins[f]`` with camera-to-world rotation
    ``rotations[f]``, and object m at ``centers[f, m]``. A ray that leaves
    the camera with a positive depth (every in-frame ray does) has positive
    depth all along it, and each of its points projects to the same image
    point. So a ray can meet an object only where the object's projection
    covers that image point. Each object is bounded by its axis-aligned box
    (a sphere's is a cube), inflated by ``_INFLATE``; a box wholly in front
    of the camera projects into the convex hull of its 8 corners, so into
    the corners' bounding box, padded by ``_BOX_PAD`` and widened to whole
    pixel cells (the cell of image point (u, v) is (round(v), round(u))). A
    box not wholly in front of the camera covers the whole image.
    """
    height, width = spec.height, spec.width
    half = _INFLATE * np.array([(obj.size[0],) * 3 if obj.shape == "sphere" else obj.size
                                for obj in spec.objects]).reshape(-1, 3)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    corners = centers[:, :, None] + half[:, None] * signs
    cam = (corners - origins[:, None, None]) @ rotations[:, None]
    z = cam[..., 2]
    front = (z > 1e-6).all(axis=-1)
    focal = _focal(width)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (width - 1) / 2.0 + focal * cam[..., 0] / z
        v = (height - 1) / 2.0 + focal * cam[..., 1] / z

    def cells(x, size):
        lo = np.where(front, np.floor(x.min(axis=-1) - _BOX_PAD + 0.5), 0.0)
        hi = np.where(front, np.floor(x.max(axis=-1) + _BOX_PAD + 0.5), size - 1.0)
        return np.clip(lo, 0, size), np.clip(hi + 1, 0, size)

    return np.stack([*cells(v, height), *cells(u, width)], axis=-1).astype(np.intp)


def _cover(boxes, height: int, width: int):
    """The objects each pixel cell's ray may meet: the cells of ``boxes``
    (F, M, 4) as an (F, H, W, M) mask, and their union, (F, H, W)."""
    frames, num, _ = boxes.shape
    cover = np.zeros((frames, height, width, num), dtype=bool)
    covered = np.zeros((frames, height, width), dtype=bool)
    # the union is painted too: numpy's any over the last axis costs more
    for f, frame_boxes in enumerate(boxes.tolist()):
        for m, (r0, r1, c0, c1) in enumerate(frame_boxes):
            cover[f, r0:r1, c0:c1, m] = True
            covered[f, r0:r1, c0:c1] = True
    return cover, covered


def _object_hits(origins, dirs, frame, spec: SceneSpec, centers, rows, objs):
    """The first hit ``s`` of each (ray, object) pair (``rows[k]``,
    ``objs[k]``), inf on a miss: ray k leaves ``origins[frame[k]]`` along
    ``dirs[k]``, and object m sits at ``centers[frame[k], m]``."""
    sizes = np.array([obj.size for obj in spec.objects]).reshape(-1, 3)
    spheres = np.array([obj.shape == "sphere" for obj in spec.objects], dtype=bool)
    # squared by Python's float power, one object at a time: numpy's
    # square rounds about one radius in a thousand differently
    radius_sq = np.array([obj.size[0] ** 2 for obj in spec.objects])
    s = np.empty(len(rows))
    ball = spheres[objs]
    for k, cast, size in ((np.flatnonzero(ball), _ray_sphere, radius_sq),
                          (np.flatnonzero(~ball), _ray_box, sizes)):
        ray, obj = rows[k], objs[k]
        s[k] = cast(origins[frame[ray]], dirs[ray], centers[frame[ray], obj], size[obj])
    return s


def _cast_all(origins, dirs, frame, spec: SceneSpec, centers, near, s_cap=np.inf):
    """Nearest hit over the wall and the objects: (s, owner id) of each ray.

    Ray k leaves ``origins[frame[k]]`` along ``dirs[k]`` (N, 3), capped at
    ``s_cap`` (a scalar or one per ray), and the objects of its frame sit
    at ``centers[frame[k]]``. Only the (ray, object) pairs of ``near``
    (N, M) are cast; the others must be misses. Owner is -1 for the wall,
    the object index otherwise, and -2 where nothing is hit. A ray's
    nearest object is the lowest-index one at its least ``s``, and it
    replaces the wall only where its ``s`` is strictly less.
    """
    best_s = _ray_background(origins[frame], dirs, spec.background, s_cap)
    best_id = np.where(np.isfinite(best_s), -1, -2)
    if spec.objects:
        rows, objs = np.divmod(np.flatnonzero(near), len(spec.objects))
        s = _object_hits(origins, dirs, frame, spec, centers, rows, objs)
        closer = s < best_s[rows]
        rows, objs, s = rows[closer], objs[closer], s[closer]
        # each ray's first pair by (s, object index)
        order = np.lexsort((objs, s, rows))
        rows, objs, s = rows[order], objs[order], s[order]
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        best_s[rows[first]] = s[first]
        best_id[rows[first]] = objs[first]
    return best_s, best_id


# A certified ray's g falls by this many of _wall_free's margins over its
# last tol: one to pass _wall_free's test, one for rounding.
_CERT_FACTOR = 2.0


def _wall_certified(ray, dist, bg: BackgroundSpec, tol):
    """Mask over the rays ``ray`` (n, 3), each from its camera to a point
    of the wall ``dist`` away: the wall cannot hide the point, and
    ``_wall_free`` would find the ray ``clear`` at ``limit = dist - tol``.

    A ray is certified when ``tol * m >= 2 * margin``, with ``m = d_z -
    1.001 |A f| |d_xy|`` for the unit ray ``d`` and ``margin = 1e-9 (|D| +
    |A|)``, the margin of ``_wall_free``. It is tested on the ray
    unnormalised, ``tol (r_z - 1.001 |A f| |r_xy|) >= 2 margin dist``, which
    rounds within a few ulps of the same test on ``d``.

    Along the ray ``g = z - height`` rises at rate at least ``m`` (the
    height's gradient is at most ``|A f|`` long; see ``_ray_background``).
    The point itself is the root of the frame-0 bisection, which stops on
    adjacent floats: its bracket, at most ``(8 |A| + 5) s / 96`` long (the
    camera is at least 0.25 below the wall's lowest point), halves 60
    times, below one ulp of ``s`` for any ``|A| < 1000``. So the exact
    ``g`` at the point is within ``e0 = (1 + |A f|) ulp(s)`` plus the
    rounding of one computed ``g`` of zero, and over the ray's last ``tol``
    it falls by at least ``tol * m >= 2 margin``. The limit point that
    ``_wall_free`` computes, ``origin + limit * d``, strays from the exact
    point by ``e1``, a few ulps of ``|origin| + dist``, which moves ``g``
    by at most ``(1 + |A f|) e1``, and the computed ``g`` strays from the
    exact one by ``e2``, a few ulps of ``|z| + |D| + |A| (1 + |f x| + |f y|
    + |phase|)``. The computed ``g`` at the limit is then at most
    ``-2 margin + e0 + (1 + |A f|) e1 + e2``, below ``-margin`` while
    ``(1 + |A f|) (|origin| + dist)`` stays below about ``1e6 (|D| + |A|)``:
    ``_wall_free`` finds the ray ``clear``, and the cast returns ``inf``
    for its wall, as it does for the certified ray.
    """
    slope = _SLOPE_MARGIN * abs(bg.amplitude) * abs(bg.frequency)
    margin = _CLEAR_MARGIN * (abs(bg.distance) + abs(bg.amplitude))
    rise = ray[:, 2] - slope * np.hypot(ray[:, 0], ray[:, 1])
    return tol * rise >= _CERT_FACTOR * margin * dist


def _undecided_rays(points, origins, rotations, boxes, on_wall, spec: SceneSpec, tol):
    """The visibility rays of a block of F frames that need a cast.

    ``points`` (F, H, W, 3) are seen from cameras at ``origins`` (F, 3)
    with rotations ``rotations`` (F, 3, 3); ``boxes`` are the objects' cell
    boxes (``_cell_boxes``) and ``on_wall`` (H * W) marks the pixels bound
    to the wall. Returns ``in_frame`` (F, H, W); then, for the in-frame
    rays that the wall or an object might hide, their flat index in the
    block, unit ray, distance and whether to scan the wall; and the (ray,
    object) pairs to cast, the ray by its place in that list. Every other
    in-frame ray is visible.
    """
    height, width = spec.height, spec.width
    ray = points - origins[:, None, None]
    # one (W, 3) @ (3, 3) product per image row, as frame by frame
    rel = ray @ rotations[:, None]
    z = rel[..., 2]
    in_front = z > 1e-6
    focal = _focal(width)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (width - 1) / 2.0 + focal * rel[..., 0] / z
        v = (height - 1) / 2.0 + focal * rel[..., 1] / z
    in_frame = in_front & (u >= -0.5) & (u <= width - 0.5) & (v >= -0.5) & (v <= height - 0.5)
    ray = ray.reshape(-1, 3)
    dist = norm3(ray)
    scan = ~(np.tile(on_wall, len(origins)) & _wall_certified(ray, dist, spec.background, tol))

    idx = np.flatnonzero(in_frame)
    frame = idx // (height * width)
    rows = np.minimum(np.floor(v.ravel()[idx] + 0.5), height - 1).astype(np.intp)
    cols = np.minimum(np.floor(u.ravel()[idx] + 0.5), width - 1).astype(np.intp)
    cover, covered = _cover(boxes, height, width)
    near = covered[frame, rows, cols]
    cast = near | scan[idx]
    # each covered ray's objects; the ray by its place among those cast
    sub = np.flatnonzero(near)
    hit, objs = np.divmod(np.flatnonzero(cover[frame[sub], rows[sub], cols[sub]]),
                          max(len(spec.objects), 1))
    hit = (np.cumsum(cast) - 1)[sub[hit]]
    idx = idx[cast]
    dist = dist[idx]
    return in_frame, idx, ray[idx] / np.maximum(dist, 1e-12)[:, None], dist, scan[idx], hit, objs


# Largest number of rays one visibility block may hold (one frame at
# least): 8 frames of a long-stream scene (32 x 32), one of a 120 x 120
# scene. The rays left to cast are cast in chunks of as many rays. With
# 2**14, generate's tracemalloc peak on a long-stream scene rises from
# 6.9 to 8.4 MB, past that of casting every ray (7.9 MB).
_RAY_BUDGET = 2**13


def generate(spec: SceneSpec) -> GroundTruth:
    """Ground truth of ``spec``, a function of the spec alone: no random
    numbers are drawn, and the seed is left to :func:`emit_chunks`.

    Each pixel is bound by one cast of frame 0's rays. A point is then
    visible in a frame when it is in view and nothing lies on its ray more
    than ``tol`` before it. Rays out of view are not cast. Of the rest,
    only those that the wall or an object might hide are cast:

    - an object can meet a ray only where its image box covers the ray's
      pixel cell (``_cover``), so only rays in that frame's cover are cast
      against objects, and each only against the objects covering it;
    - the wall cannot hide a wall point whose ray rises steeply enough
      (``_wall_certified``); the full cast would skip that ray's wall scan
      too, so every other ray is scanned.

    A ray cast neither way is visible, which is what the full cast finds
    for it. The rays are decided in blocks of frames of up to
    ``_RAY_BUDGET`` rays (one frame at least), and the rays left over from
    every block are cast together, in chunks of as many rays. Every per-ray
    step is elementwise, so each ray gets the decision a cast of its frame
    alone gives.
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
    height, width = spec.height, spec.width
    pixels = height * width

    offsets = _object_offsets(spec)
    # each object's centre in each frame, (T, M, 3)
    centers = np.array([obj.position for obj in spec.objects], dtype=np.float64).reshape(-1, 3) \
        + offsets.transpose(1, 0, 2)
    dirs_cam = _pixel_directions(height, width)
    R0 = poses[0].rotation
    dirs0 = dirs_cam @ R0.T
    o0 = positions[0]
    boxes = _cell_boxes(positions, rotations, centers, spec)
    # a pixel's own ray lies in its own cell
    cover0, _ = _cover(boxes[:1], height, width)
    s0, owner = _cast_all(positions[:1], dirs0.reshape(-1, 3), np.zeros(pixels, dtype=np.intp),
                          spec, centers[:1], cover0.reshape(pixels, -1))
    s0, owner = s0.reshape(height, width), owner.reshape(height, width)
    if not np.isfinite(s0).all():
        raise InvalidSpec("some pixels hit no surface; widen the background or narrow the fov")
    bound = o0 + s0[..., None] * dirs0

    # Each pixel moves with its owner's offsets; row -1 of the padded
    # offsets is zero, for the wall.
    padded = np.zeros((spec.num_frames, len(spec.objects) + 1, 3))
    padded[:, :-1] = offsets.transpose(1, 0, 2)
    points = np.take(padded, owner, axis=1)
    points += bound

    block = max(1, _RAY_BUDGET // pixels)
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

    on_wall = (owner == -1).ravel()
    visible = np.empty((spec.num_frames, height, width), dtype=bool)
    # the rays left to cast, block by block: flat index into ``visible``,
    # unit ray, distance, whether to scan the wall; and (ray, object) pairs
    left = []
    pairs = []
    count = 0
    for t in range(0, spec.num_frames, block):
        b = slice(t, t + block)
        in_frame, idx, d, dist, scan, hit, objs = _undecided_rays(
            points[b], positions[b], rotations[b], boxes[b], on_wall, spec, tol)
        visible[b] = in_frame
        left.append((idx + t * pixels, d, dist, scan))
        pairs.append((count + hit, objs))
        count += len(idx)
    idx, d, dist, scan = (np.concatenate(a) for a in zip(*left))
    rows, objs = (np.concatenate(a) for a in zip(*pairs))
    del left, pairs
    clear = np.ones(len(idx), dtype=bool)
    for k in range(0, len(idx), _RAY_BUDGET):
        c = slice(k, k + _RAY_BUDGET)
        frame, ray, limit = idx[c] // pixels, d[c], dist[c] - tol
        w = np.flatnonzero(scan[c])
        clear[k + w] = _ray_background(positions[frame[w]], ray[w], spec.background,
                                       dist[c][w] + tol, limit[w]) >= limit[w]
        p = slice(*np.searchsorted(rows, (k, k + _RAY_BUDGET)))
        hit = rows[p] - k
        s = _object_hits(positions, ray, frame, spec, centers, hit, objs[p])
        clear[k + hit[s < limit[hit]]] = False
    visible.reshape(-1)[idx] = clear

    frames = np.arange(spec.num_frames)
    for m, obj in enumerate(spec.objects):
        if obj.visible_ranges is not None:
            shown = np.zeros(spec.num_frames, dtype=bool)
            for lo, hi in obj.visible_ranges:
                shown |= (lo <= frames) & (frames <= hi)
            visible[~shown] &= owner != m

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
                pts += noise_rng.normal(0.0, sigma, size=pts.shape)
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

