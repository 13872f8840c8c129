"""Core domain types: poses, per-frame predictions, chunks, similarity
transforms, tracklet sets, seed-pixel track tables, and the pipeline
configuration.

A chunk is one checked (T, H, W, 3) pointmap stack with its (T, H, W)
confidences and T poses; its frames are read-only views of the stacks.
A pose is checked once, where it enters the program: ``Pose(R, t)`` at
``ROTATION_TOL``, and ``Pose.from_matrices`` over a whole stack at the
tolerance its caller gives (a container's), with the verdict and the
first failing index that checking one matrix at a time would give. A pose
derived from checked ones, such as those ``SimilarityTransform.apply_poses``
maps and the motions ``metrics.rpe`` forms, is not checked again: a
product of two rotations, each within ``tol`` of orthonormal, may deviate
by about ``2 tol``, so a second check would reject legal input and catch
no fault. Poses from a stack are read-only views of it.

All types but :class:`FramePrediction`, a plain record, are immutable
after construction (arrays are made read-only), so they can be shared
freely between threads. Those that hold arrays compare and hash by
identity.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, fields, is_dataclass
from functools import cache, cached_property
from itertools import product
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import InvalidConfig

ROTATION_TOL = 1e-9


def _as_readonly(a, shape, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def norm3(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` of an (..., 3) array, bit for bit.

    numpy sums a length-3 axis as (a + b) + c; spelling the same sum out
    column by column skips the reduction machinery, several times faster.
    """
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)


def _finite(v: np.ndarray) -> bool:
    """Whether every entry of a small vector is finite; for a 3-vector
    several times faster than ``np.isfinite(v).all()``."""
    return all(map(math.isfinite, v.tolist()))


def finite3(x: np.ndarray) -> np.ndarray:
    """``np.isfinite(x).all(axis=-1)`` of an (..., 3) array, column by column."""
    return np.isfinite(x[..., 0]) & np.isfinite(x[..., 1]) & np.isfinite(x[..., 2])


def _not_orthonormal(err, tol) -> str:
    return f"rotation not orthonormal (max deviation {err:.3e} > {tol:.0e})"


def _not_unit_det(det) -> str:
    return f"rotation determinant {det:.12f} != +1"


def _raise_first(checks, start: int) -> None:
    """Raise ValueError for the first index k that fails any of
    ``checks``, ``(ok, message)`` pairs of an (n,) mask and a function of
    k in the order one pose runs them: ``frame {start + k}: {message(k)}``
    of the first check k fails, the error checking one pose at a time
    would raise."""
    k = min((int(np.argmin(ok)) for ok, _ in checks if not ok.all()), default=None)
    if k is not None:
        message = next(message for ok, message in checks if not ok[k])
        raise ValueError(f"frame {start + k}: {message(k)}")


def _rotation_checks(R: np.ndarray, tol: float) -> list:
    """The two checks of :func:`check_rotation` over an (n, 3, 3) stack,
    for :func:`_raise_first`. Each product ``R[k].T @ R[k]`` and each
    determinant is the one numpy forms for that matrix alone."""
    with np.errstate(invalid="ignore"):  # a non-finite matrix fails, without a warning
        err = np.abs(R.transpose(0, 2, 1) @ R - np.eye(3)).max(axis=(1, 2))
        det = np.linalg.det(R)
    return [
        (err <= tol, lambda k: _not_orthonormal(err[k], tol)),
        (np.abs(det - 1.0) <= max(tol, 1e-8), lambda k: _not_unit_det(det[k])),
    ]


def check_rotation(R: np.ndarray, tol=ROTATION_TOL) -> None:
    """Raise ValueError unless the (3, 3) matrix R is orthonormal with det
    +1 within tol (a NaN entry fails both tests); the determinant's bound
    is at least 1e-8. :meth:`Pose.from_matrices` checks a stack."""
    err = np.abs(R.T @ R - np.eye(3)).max()
    if not err <= tol:
        raise ValueError(_not_orthonormal(err, tol))
    det = np.linalg.det(R)
    if not abs(det - 1.0) <= max(tol, 1e-8):
        raise ValueError(_not_unit_det(det))


_LAST_ROW = np.array([0.0, 0.0, 0.0, 1.0])
_BAD_LAST_ROW = "pose matrix last row must be exactly (0, 0, 0, 1)"


def _not_finite(translation) -> str:
    return f"pose translation {translation} is not finite"


@dataclass(frozen=True, eq=False)
class Pose:
    """Camera pose, camera-to-world convention.

    ``translation`` is therefore the camera center in world coordinates.
    World-to-camera inputs must be inverted before construction.

    ``rotation`` and ``translation`` are read-only, C-contiguous float64
    arrays. ``Pose(R, t)`` copies and checks them at ``ROTATION_TOL``;
    :meth:`from_matrices` checks a stack of poses once, at its caller's
    tolerance. The poses :meth:`SimilarityTransform.apply_poses` derives
    from checked ones are not checked again (see the module docstring).
    Poses from a stack are views of one rotation stack and one
    translation stack.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_readonly(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _as_readonly(self.translation, (3,), "translation"))
        check_rotation(self.rotation)
        if not _finite(self.translation):
            raise ValueError(_not_finite(self.translation))

    @property
    def center(self) -> np.ndarray:
        return self.translation

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous camera-to-world matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @classmethod
    def from_matrices(cls, m, tol: float = ROTATION_TOL, start: int = 0) -> tuple["Pose", ...]:
        """The poses of an (n, 4, 4) stack of homogeneous matrices, checked once.

        Every matrix must have a last row of exactly (0, 0, 0, 1), a
        rotation that passes :func:`check_rotation` at ``tol`` and a finite
        translation. The error names the first failing matrix as ``frame
        {start + k}``, with the first check it fails. The poses are
        read-only views of one (n, 3, 3) rotation stack and one (n, 3)
        translation stack, each a C-contiguous float64 copy, so every pose
        holds the values of its own matrix's float64 slices.
        """
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 3 or m.shape[1:] != (4, 4):
            raise ValueError(f"pose matrices must be (n, 4, 4), got {m.shape}")
        rotations = np.ascontiguousarray(m[:, :3, :3])
        translations = np.ascontiguousarray(m[:, :3, 3])
        last_row_ok = (m[:, 3] == _LAST_ROW).all(axis=1)
        _raise_first([(last_row_ok, lambda k: _BAD_LAST_ROW),
                      *_rotation_checks(rotations, tol),
                      (finite3(translations), lambda k: _not_finite(translations[k]))], start)
        return _pose_views(rotations, translations)


def _pose_views(rotations, translations) -> tuple[Pose, ...]:
    """Poses that are read-only views of the C-contiguous (n, 3, 3)
    rotation and (n, 3) translation stacks, with no copy and no check."""
    rotations.setflags(write=False)
    translations.setflags(write=False)
    poses = []
    for R, t in zip(rotations, translations):
        pose = object.__new__(Pose)
        vars(pose).update(rotation=R, translation=t)
        poses.append(pose)
    return tuple(poses)


def stack_poses(poses) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 3, 3) rotations and (n, 3) translations of ``poses``, as
    C-contiguous copies."""
    # one concatenate, reshaped, is a few times faster than np.stack
    return (np.concatenate([p.rotation for p in poses]).reshape(-1, 3, 3),
            np.concatenate([p.translation for p in poses]).reshape(-1, 3))


@dataclass(frozen=True, eq=False)
class SimilarityTransform:
    """x -> scale * rotation @ x + translation.

    The scale must be positive and finite, the rotation pass
    :func:`check_rotation` at 1e-8 and the translation be finite. Closed
    under composition and inversion; see :meth:`compose` and
    :meth:`invert`.
    """

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "rotation", _as_readonly(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _as_readonly(self.translation, (3,), "translation"))
        check_rotation(self.rotation, 1e-8)
        if not _finite(self.translation):
            raise ValueError(f"translation {self.translation} is not finite")

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls(1.0, np.eye(3), np.zeros(3))

    def apply(self, x) -> np.ndarray:
        """Apply to a 3-vector or an (..., 3) array of points.

        Computes ``scale * (x @ rotation.T) + translation`` with the same
        bits, scaling and translating the product in place, the translation
        column by column. A stack of (k, 3) arrays is multiplied as one
        (n, 3) product, which rounds as the stacked product does and skips
        one small product per leading row, unless k is 1: numpy multiplies
        a single row by gemv, which rounds unlike gemm.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 2 and x.shape[-2] > 1:
            out = (x.reshape(-1, 3) @ self.rotation.T).reshape(x.shape)
        else:
            out = x @ self.rotation.T
        out *= self.scale
        for j in range(3):
            out[..., j] += self.translation[j]
        return out

    def apply_pose(self, pose: Pose) -> Pose:
        """Map a camera pose expressed in this transform's source frame:
        :meth:`apply_poses` of the one pose."""
        return self.apply_poses((pose,))[0]

    def apply_poses(self, poses) -> tuple[Pose, ...]:
        """Map each of ``poses`` as stacked products: the rotation
        ``rotation @ R`` and the translation :meth:`apply` of ``t``, each
        translation as a (1, 3) row. The poses are read-only views of one
        rotation and one translation stack. They are not checked again,
        except that each translation must be finite, since scaling one may
        overflow; the error names the first that is not as ``frame {k}``.
        """
        poses = tuple(poses)
        if not poses:
            return ()
        R, t = stack_poses(poses)
        R = self.rotation @ R
        t = self.apply(t[:, None]).reshape(-1, 3)
        _raise_first([(finite3(t), lambda k: _not_finite(t[k]))], 0)
        return _pose_views(R, t)

    def compose(self, other: "SimilarityTransform") -> "SimilarityTransform":
        """Transform equivalent to applying ``other`` first, then ``self``."""
        return SimilarityTransform(
            self.scale * other.scale,
            self.rotation @ other.rotation,
            self.scale * (self.rotation @ other.translation) + self.translation,
        )

    def invert(self) -> "SimilarityTransform":
        Rt = self.rotation.T
        inv_s = 1.0 / self.scale
        return SimilarityTransform(inv_s, Rt, -inv_s * (Rt @ self.translation))


@dataclass(frozen=True, eq=False)
class FramePrediction:
    """One frame of a chunk-local reconstruction: an (H, W, 3) pointmap in
    the chunk gauge, its (H, W) confidences and the camera pose.

    A plain record with no checks or copies: every frame the library makes
    is a view of a checked :class:`Chunk`, or such a view mapped by a
    fitted transform.
    """

    points: np.ndarray
    confidence: np.ndarray
    pose: Pose
    frame_index: int

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.points.shape[:2]


def _require_frames(ok: np.ndarray, start: int, what: str) -> None:
    """ValueError naming the first frame of the (T, ...) mask ``ok`` that
    holds a False; frame 0 is frame ``start``."""
    if not ok.all():
        first = int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))
        raise ValueError(f"frame {start + first}: {what}")


@dataclass(frozen=True, eq=False)
class Chunk:
    """A contiguous window of frames in one chunk-local gauge, held as one
    checked stack: ``points`` (T, H, W, 3), ``confidence`` (T, H, W) and
    one pose per frame.

    Both arrays are copied and made read-only once. Confidence must lie in
    [0, 1]; out-of-range (or NaN) confidence is rejected, never clamped.
    Non-finite points are allowed only where confidence is exactly zero.
    An error names the first frame that fails a check. ``frames`` gives
    read-only per-frame views of the stacks, with no copy and no second
    check.
    """

    chunk_id: int
    start_frame: int
    points: np.ndarray
    confidence: np.ndarray
    poses: tuple[Pose, ...]

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, order="C")
        conf = np.array(self.confidence, dtype=np.float64, order="C")
        poses = tuple(self.poses)
        if pts.ndim != 4 or pts.shape[3] != 3 or len(pts) == 0:
            raise ValueError(f"points must be (T, H, W, 3) with T >= 1, got {pts.shape}")
        if conf.shape != pts.shape[:3]:
            raise ValueError(f"confidence shape {conf.shape} does not match points {pts.shape[:3]}")
        if len(poses) != len(pts):
            raise ValueError(f"need one pose per frame: {len(pts)} frames, {len(poses)} poses")
        # one mask at a time, built in place, so the checks add little to
        # the peak of the copies
        ok = conf >= 0.0
        ok &= conf <= 1.0
        _require_frames(ok, self.start_frame, "confidence values must lie in [0, 1]")
        ok = np.isfinite(pts[..., 0])
        ok &= np.isfinite(pts[..., 1])
        ok &= np.isfinite(pts[..., 2])
        ok |= conf == 0.0
        _require_frames(ok, self.start_frame,
                        "non-finite points are only permitted where confidence == 0")
        pts.setflags(write=False)
        conf.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "confidence", conf)
        object.__setattr__(self, "poses", poses)

    @property
    def end_frame(self) -> int:
        return self.start_frame + len(self.points) - 1

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.points.shape[1:3]

    @cached_property
    def frames(self) -> tuple[FramePrediction, ...]:
        return tuple(
            FramePrediction(p, c, pose, self.start_frame + k)
            for k, (p, c, pose) in enumerate(zip(self.points, self.confidence, self.poses))
        )


@dataclass(frozen=True, eq=False)
class TrackletSet:
    """Per-pixel 3D trajectory segments of one chunk over consecutive
    frames, the T frames of :attr:`frames` from ``start_frame`` on.

    Row k is the tracklet with id k: ``pixels[k]`` is its seed pixel
    (row, col), ``positions[k]`` its (T, 3) positions, one per frame, and
    ``conf[k]`` the matching confidences. T is at least 2.
    """

    start_frame: int
    pixels: np.ndarray
    positions: np.ndarray
    conf: np.ndarray

    def __post_init__(self):
        pixels = np.array(self.pixels, dtype=np.int64)
        if pixels.ndim != 2 or pixels.shape[1] != 2:
            raise ValueError(f"pixels must be (N, 2), got {pixels.shape}")
        n = len(pixels)
        pos = np.array(self.positions, dtype=np.float64)
        conf = np.array(self.conf, dtype=np.float64)
        if pos.ndim != 3 or pos.shape[0] != n or pos.shape[2] != 3:
            raise ValueError(f"positions must be ({n}, T, 3), got {pos.shape}")
        if pos.shape[1] < 2:
            raise ValueError("tracklets need at least 2 frames to support velocities")
        if conf.shape != pos.shape[:2]:
            raise ValueError(f"conf must be {pos.shape[:2]}, got {conf.shape}")
        for arr in (pixels, pos, conf):
            arr.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "conf", conf)

    def __len__(self) -> int:
        return len(self.pixels)

    @property
    def frames(self) -> range:
        return range(self.start_frame, self.start_frame + self.positions.shape[1])

    def transformed(self, T: SimilarityTransform) -> "TrackletSet":
        return TrackletSet(self.start_frame, self.pixels, T.apply(self.positions), self.conf)

    def take(self, rows) -> "TrackletSet":
        """The tracklets of ``rows``, in that order."""
        return TrackletSet(self.start_frame, self.pixels[rows], self.positions[rows],
                           self.conf[rows])


class TrackTable(Mapping):
    """Read-only mapping from seed pixel ``(r, c)`` to its (T, 3) track.

    The table holds the (T, H, W, 3) pointmap stack ``points`` it is read
    from, as a read-only view with no copy, and the tracks that replace
    those of some pixels: ``ids`` are the increasing flat ids ``r * W + c``
    of those pixels and ``tracks`` their (u, T, 3) tracks. ``table[(r, c)]``
    is ``points[:, r, c]``, or the replaced track of a pixel in ``ids``.
    The replaced tracks are kept frame-major, as the (T, u, 3) array
    ``replaced`` (a transposed C-contiguous (T, u, 3) array is taken with
    no copy), so its samples lie in the order ``metrics.dense_epe`` reads.
    ``metrics.build_fused_table`` gives a fused scene's table the fused
    frames' own stack and, as replaced tracks, the pixels where stitched
    trajectories are rooted, the last one written winning on the frames
    that several rooted at one pixel share.

    The keys are every pixel of the (H, W) grid and iterate in sorted
    (row-major) order, the order of the pixels in ``points.reshape(T, -1,
    3)``, which ``metrics.dense_epe`` reads in place when ``points`` is
    C-contiguous, writing the replaced samples into each block it reads. A
    key is a pair of integers, Python's or numpy's; anything else is not a
    key. Replaced tracks that are not (u, T, 3), or whose ids do not
    increase or lie off the grid, raise ValueError.
    """

    def __init__(self, points, ids=None, tracks=None):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 4 or points.shape[3] != 3:
            raise ValueError(f"points must be (T, H, W, 3), got {points.shape}")
        T, H, W = points.shape[:3]
        ids = np.empty(0, dtype=np.intp) if ids is None else np.asarray(ids)
        tracks = np.empty((0, T, 3)) if tracks is None else np.asarray(tracks, dtype=np.float64)
        if ids.ndim != 1 or not (len(ids) == 0 or np.issubdtype(ids.dtype, np.integer)):
            raise ValueError(f"ids must be a 1-D integer array, got {ids.dtype} {ids.shape}")
        if tracks.shape != (len(ids), T, 3):
            raise ValueError(f"tracks must be ({len(ids)}, {T}, 3), got {tracks.shape}")
        if len(ids) and not ((np.diff(ids) > 0).all() and 0 <= ids[0] and ids[-1] < H * W):
            raise ValueError(f"ids must increase and lie within [0, {H * W})")
        self.rows, self.cols = range(H), range(W)
        self.points = points.view()
        self.ids = ids.astype(np.intp)
        self.replaced = np.ascontiguousarray(tracks.transpose(1, 0, 2)).view()
        for a in (self.points, self.ids, self.replaced):
            a.setflags(write=False)
        # each replaced pixel's column of ``replaced``
        self._slot = dict(zip(self.ids.tolist(), range(len(ids))))

    def same_keys(self, other: "TrackTable") -> bool:
        return self.rows == other.rows and self.cols == other.cols

    def __contains__(self, key) -> bool:
        try:
            # a range finds an int in constant time, a numpy integer by a scan
            r, c = map(operator.index, key)
        except (TypeError, ValueError):
            return False
        return r in self.rows and c in self.cols

    def __getitem__(self, key) -> np.ndarray:
        if key not in self:
            raise KeyError(key)
        r, c = map(operator.index, key)
        j = self._slot.get(r * len(self.cols) + c)
        return self.points[:, r, c] if j is None else self.replaced[:, j]

    def __iter__(self):
        return product(self.rows, self.cols)

    def __len__(self) -> int:
        return len(self.rows) * len(self.cols)


def _is_int(v) -> bool:
    # JSON true and false decode to bools, which are ints too
    return isinstance(v, int) and not isinstance(v, bool)


_SCALAR_FITS = {
    bool: lambda v: isinstance(v, bool),
    int: _is_int,
    float: lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v),
    str: lambda v: isinstance(v, str),
}


@cache
def _field_types(cls) -> dict[str, object]:
    """The resolved annotation of each field of the dataclass ``cls``."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def from_json(tp, value, error: type[Exception], where: str | None = None):
    """``value``, decoded from JSON, as a ``tp``; ``error`` naming the
    dotted field path ``where`` (by default ``tp``'s name) if ``tp`` does
    not admit it.

    ``bool`` takes true or false, ``int`` an integer that is not a bool,
    ``float`` a finite number, kept as given, and ``str`` a string; ``X |
    None`` also takes null. ``tuple[X, ...]`` takes a list of X and
    ``tuple[X, Y]`` a list of that length. A dataclass takes an object of
    its fields, each decoded the same way; an absent field takes its default.
    """
    where = where or tp.__name__
    if tp in _SCALAR_FITS:
        if not _SCALAR_FITS[tp](value):
            raise error(f"{where} must be {tp.__name__}, got {value!r}")
        return value
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise error(f"{where} must be an object, got {value!r}")
        types = _field_types(tp)
        unknown = value.keys() - types.keys()
        if unknown:
            raise error(f"{where}: unknown keys {sorted(unknown)}")
        return tp(**{k: from_json(types[k], v, error, f"{where}.{k}") for k, v in value.items()})
    args = get_args(tp)
    if isinstance(tp, UnionType):  # X | None, the one union the data model uses
        return None if value is None else from_json(args[0], value, error, where)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise error(f"{where} must be a list, got {value!r}")
        if args[1:] == (...,):
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise error(f"{where} must have {len(args)} entries, got {len(value)}")
        return tuple(from_json(t, v, error, f"{where}[{k}]")
                     for k, (t, v) in enumerate(zip(args, value)))
    raise TypeError(f"{where}: no JSON decoding for {tp!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """All thresholds and weights of the cross-chunk pipeline.

    Each chunk pair resolves the rigidity threshold gamma_stat of each
    chunk as ``gamma_stat_frac`` times that chunk's own median
    camera-to-point distance over the overlap; ``min_displacement``, when
    None, is that gamma_stat. The confidence cut gamma_c
    (``registration.GAMMA_C``), the gating radius gamma_p
    (``association.resolve_gamma_p``) and the unit weight of the cost's
    trajectory term are constants, not knobs.
    """

    chunk_length: int = 16
    overlap: int = 4
    gamma_stat_frac: float = 0.01
    lambda_vel: float = 0.5
    lambda_dir: float = 0.5
    traj_cap: float = 0.05
    dir_cap: float = 0.5
    cost_max: float = 1.0
    lambda_cam: float = 1.0
    lambda_sm: float = 1.0
    min_displacement: float | None = None
    seed_stride: int = 2
    refine_scale: bool = False
    association_rounds: int = 2

    def __post_init__(self):
        if self.overlap < 2 or self.overlap >= self.chunk_length:
            raise InvalidConfig(
                f"need 2 <= overlap < chunk_length, got overlap={self.overlap}, "
                f"chunk_length={self.chunk_length}"
            )
        positive = {
            "gamma_stat_frac": self.gamma_stat_frac,
            "traj_cap": self.traj_cap,
            "dir_cap": self.dir_cap,
            "cost_max": self.cost_max,
            "seed_stride": self.seed_stride,
        }
        if self.min_displacement is not None:
            positive["min_displacement"] = self.min_displacement
        for name, value in positive.items():
            if not value > 0:
                raise InvalidConfig(f"{name} must be > 0, got {value}")
        weights = {
            "lambda_vel": self.lambda_vel,
            "lambda_dir": self.lambda_dir,
            "lambda_cam": self.lambda_cam,
            "lambda_sm": self.lambda_sm,
        }
        for name, value in weights.items():
            if not value >= 0:
                raise InvalidConfig(f"{name} must be >= 0, got {value}")
        if self.association_rounds < 1:
            raise InvalidConfig("association_rounds must be >= 1")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """A config from decoded JSON by :func:`from_json`: InvalidConfig for
        an unknown key or a value its field's annotation does not admit.
        Int fields take integers, not true or false; float fields finite
        numbers, an integer kept as one; ``refine_scale`` true or false;
        ``| None`` fields also null."""
        return from_json(cls, data, InvalidConfig)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
