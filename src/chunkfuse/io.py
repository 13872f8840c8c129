"""Container file format, configuration files, and trajectory export.

A container is a directory holding ``manifest.json`` plus raw binary
arrays: 32-bit floats, little-endian, row-major. Chunk containers (kind
``chunk``, also the fused output) carry ``points`` [T][H][W][3],
``confidence`` [T][H][W], and ``poses`` [T][4][4] (camera-to-world, last
row exactly 0,0,0,1). Ground-truth containers (kind ``ground_truth``)
carry ``points``, ``poses``, ``object_ids`` [H][W] and ``visible``
[T][H][W], plus the generating ``scene_spec.json``.

Every JSON file is read by :func:`read_json`, which raises the error its
caller names for a file that cannot be read, is not JSON or holds the wrong
top-level type, and encoded by :func:`json_text`, which refuses NaN and
Infinity and names the refused file: :func:`write_json` writes one such
text, and :func:`write_fusion_outputs` encodes all its documents before it
writes any file. Configs, scene specs and manifest fields are decoded by
:func:`~chunkfuse.model.from_json`, which refuses an unknown key and any
value its field's annotation does not admit: a fraction or a bool for an
int, NaN or Infinity for a float, a list of the wrong length for a tuple.

``read_chunk`` and ``read_ground_truth`` share one loader. It raises
:class:`MalformedContainer` for a manifest that is missing or not a JSON
object, an unknown format version, a kind other than the one asked for, a
missing or non-integer frame range, chunk id or grid, a missing array, an
array whose shape is not a list of ints or not the expected one, an array
of the wrong dtype, byte order or byte count, and a pose whose last row is
not exactly 0,0,0,1 (a NaN is not), whose rotation is not orthonormal
with det +1 or whose translation is not finite. The poses are checked
once, as one stack, and the error names the first bad frame; they are
read-only views of that stack. A chunk is read as one stack and must also
pass :class:`~chunkfuse.model.Chunk`'s checks, which name the first bad
frame; its ``frames`` are per-frame views of that stack. A ground truth's
``scene_spec.json`` must be a valid scene spec.
:func:`read_matches` and :func:`read_fused_trajectories` raise it for
records of ``matches.json`` and ``trajectories_meta.json`` that are not of
the shape below: integer ids and pixels, pixels on the grid, tracklet ids
unique on each side, match ids that name tracklets of their junction and
are matched once, finite match costs; :func:`read_trajectories` for an
index line that is not three integers, a negative length, and a missing
positions sidecar or one of the wrong byte count, and
:func:`read_fused_trajectories` also for a frame outside the fused frame
range.

Sidecar files
-------------
``chunkfuse fuse`` writes the fused frames as a chunk container under
``fused/`` and, next to it:

- ``transforms.json``: per chunk, the similarity into the first chunk's
  gauge, ``{"scale", "rotation" (9 values, row-major), "translation"}``.
- ``report.json``: per junction, the tier taken, the stage counts, the
  static residual and the pair transform. The tier, as
  :func:`~chunkfuse.fusion.choose_transform` decides it, is ``base`` (the
  identity; ``base`` only), ``identity`` (no trusted static registration;
  ``overlap`` only), ``static`` (the static registration; ``overlap`` and
  ``full``), ``refined`` (re-solved on the matched tracks; ``full`` only)
  or ``pose`` (the camera centres aligned; ``full`` only).
- ``matches.json``: per junction, ``{"chunk_i", "chunk_j", "matches",
  "tracklets_i", "tracklets_j"}``. A match is ``[a, b, cost, [row, col] of
  a, [row, col] of b]``, a tracklet ``[id, row, col]``.
- ``trajectories.txt``: the index, one trajectory per line, ``id
  start_frame num_frames``; a trajectory runs over consecutive frames from
  its start (0 when it has none).
- ``trajectories.bin``: the positions of every trajectory, concatenated in
  index order, as raw little-endian float64 of shape (sum of num_frames,
  3), row-major. The positions are binary because they must keep the
  fuse's bits, and because writing and parsing every coordinate as decimal
  text (``repr``) was the largest stage of a dense fuse and a large part
  of its evaluation; no decimal format is much cheaper.
- ``trajectories_meta.json``: ``{"<id>": {"sources": [[chunk, tracklet,
  row, col], ...]}}``, the tracklets each trajectory was stitched from.

``matches.json`` and ``trajectories_meta.json`` are written compact, on
one line, because they hold thousands of rows and ``json`` indents only in
pure Python, about four times slower there; the other JSON files are
indented by one.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import InvalidConfig, InvalidSpec, MalformedContainer
from .fusion import FusedScene, Trajectory
from .model import Chunk, FramePrediction, PipelineConfig, Pose, SimilarityTransform, from_json
from .synthetic import GroundTruth, SceneSpec

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
POSE_STORAGE_TOL = 1e-4
# what a fuse writes of its trajectories: the index, its positions and their sources
TRAJECTORY_FILES = ("trajectories.txt", "trajectories.bin", "trajectories_meta.json")


# ---------------------------------------------------------------------------
# Raw arrays and manifests


def _array_entry(name: str, shape) -> dict:
    return {
        "name": name,
        "dtype": "float32",
        "shape": list(shape),
        "path": f"{name}.bin",
        "byte_order": "little",
    }


def _write_array(directory: Path, name: str, data: np.ndarray) -> dict:
    arr = np.ascontiguousarray(data, dtype="<f4")
    arr.tofile(directory / f"{name}.bin")
    return _array_entry(name, arr.shape)


def _write_manifest(directory: Path, kind: str, chunk_id: int, start: int, end: int,
                    grid: tuple[int, int], arrays: list[dict], **extra) -> None:
    """``manifest.json`` of a container; ``extra`` fields go before the arrays."""
    H, W = grid
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "chunk_id": chunk_id,
        "start_frame": start,
        "end_frame": end,
        "height": H,
        "width": W,
        **extra,
        "arrays": arrays,
    }
    write_json(directory / MANIFEST_NAME, manifest)


def _read_array(directory: Path, entry: dict, shape: list[int]) -> np.ndarray:
    """The array of ``entry`` as stored: float32, ``shape``.

    Its owner widens it to float64 once, in the copy it keeps anyway:
    :class:`~chunkfuse.model.Chunk` copies its stacks as float64,
    :func:`read_ground_truth` takes ``astype`` of the points and
    :meth:`~chunkfuse.model.Pose.from_matrices` of the pose stack. Widening
    float32 is exact, so no value depends on where it happens.
    """
    for key in ("name", "dtype", "path", "byte_order"):
        if key not in entry:
            raise MalformedContainer(f"array entry missing field {key!r}: {entry}")
    name = entry["name"]
    if entry["dtype"] != "float32":
        raise MalformedContainer(f"array {name!r}: unsupported dtype {entry['dtype']!r}")
    if entry["byte_order"] != "little":
        raise MalformedContainer(f"array {name!r}: unsupported byte order {entry['byte_order']!r}")
    path = directory / entry["path"]
    if not path.is_file():
        raise MalformedContainer(f"array {name!r}: missing file {entry['path']!r}")
    expected = int(np.prod(shape)) * 4
    actual = path.stat().st_size
    if actual != expected:
        raise MalformedContainer(
            f"array {name!r}: file {entry['path']!r} has {actual} bytes, expected {expected}"
        )
    return np.fromfile(path, dtype="<f4").reshape(shape)


def json_text(obj, indent: int | None, name: str) -> str:
    """``json.dumps(obj, indent=indent)`` and a newline; ValueError naming
    the document ``name`` for a NaN or infinite float, which is not JSON."""
    try:
        return json.dumps(obj, indent=indent, allow_nan=False) + "\n"
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None


def write_json(path, obj, indent: int | None = 1) -> None:
    """Write :func:`json_text` of ``obj`` to the file ``path``; ValueError
    naming ``path``, before anything is written, for a NaN or infinite
    float."""
    Path(path).write_text(json_text(obj, indent, str(path)))


def read_json(path, error: type[Exception] = MalformedContainer, kind: type = dict):
    """The JSON value in the file ``path``, which must be a ``kind`` (dict
    or list); ``error`` when the file cannot be read, is not JSON or holds
    another type."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as e:
        raise error(f"cannot read {path}: {e.strerror}") from e
    except ValueError as e:
        raise error(f"{path} is not valid JSON: {e}") from e
    if not isinstance(data, kind):
        raise error(f"{path} holds a JSON {type(data).__name__}, not a {kind.__name__}")
    return data


def _array_map(manifest: dict) -> dict[str, dict]:
    entries = manifest.get("arrays")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise MalformedContainer("manifest has no array list")
    return {e.get("name"): e for e in entries}


def _field(manifest: dict, key: str, tp: type = int, default=None):
    """Manifest field ``key`` decoded as a ``tp``; absent, ``default``."""
    value = manifest.get(key, default)
    if value is None:
        raise MalformedContainer(f"manifest missing field {key!r}")
    return from_json(tp, value, MalformedContainer, f"manifest field {key!r}")


def _read_container(directory: Path, kind: str, names: tuple[str, ...]):
    """The manifest, the arrays ``names`` and the poses of a ``kind`` container.

    The manifest's frame range, chunk id and grid come back as ints. Each
    array must have the shape the frame range and grid give it, as a list
    of ints, and each pose a last row of exactly (0, 0, 0, 1), an
    orthonormal rotation and a finite translation.
    :meth:`~chunkfuse.model.Pose.from_matrices` checks the pose stack once
    and names the first bad frame; the poses are read-only views of its
    rotation and translation stacks.
    """
    manifest = read_json(directory / MANIFEST_NAME)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise MalformedContainer(f"unknown format_version {version!r}, expected {FORMAT_VERSION}")
    if manifest.get("kind") != kind:
        raise MalformedContainer(f"expected a {kind} container, got kind={manifest.get('kind')!r}")
    for key in ("chunk_id", "start_frame", "end_frame", "height", "width"):
        manifest[key] = _field(manifest, key)
    start, end = manifest["start_frame"], manifest["end_frame"]
    T = end - start + 1
    H, W = manifest["height"], manifest["width"]
    if T < 1:
        raise MalformedContainer(f"empty frame range [{start}, {end}]")
    shapes = {
        "points": [T, H, W, 3],
        "confidence": [T, H, W],
        "poses": [T, 4, 4],
        "object_ids": [H, W],
        "visible": [T, H, W],
    }
    entries = _array_map(manifest)
    data = {}
    for name in names:
        if name not in entries:
            raise MalformedContainer(f"manifest missing required array {name!r}")
        got = list(from_json(tuple[int, ...], entries[name].get("shape"), MalformedContainer,
                             f"array {name!r} shape"))
        if got != shapes[name]:
            raise MalformedContainer(f"array {name!r}: shape {got} does not match {shapes[name]}")
        data[name] = _read_array(directory, entries[name], got)
    try:
        poses = Pose.from_matrices(data.pop("poses"), POSE_STORAGE_TOL, start)
    except ValueError as e:
        raise MalformedContainer(str(e)) from e
    return manifest, data, poses


# ---------------------------------------------------------------------------
# Chunk containers


def write_chunk(chunk: Chunk, directory) -> None:
    writer = StreamingFrameWriter(directory, chunk.chunk_id)
    for fp in chunk.frames:
        writer(fp)
    writer.finish()


def read_chunk(directory) -> Chunk:
    """Read and re-validate a chunk container; byte-exact round-trip."""
    manifest, data, poses = _read_container(Path(directory), "chunk",
                                            ("points", "confidence", "poses"))
    try:
        return Chunk(manifest["chunk_id"], manifest["start_frame"], data["points"],
                     data["confidence"], tuple(poses))
    except ValueError as e:
        raise MalformedContainer(str(e)) from e


def chunk_dirs(root) -> list[Path]:
    root = Path(root)
    if not root.is_dir():
        raise MalformedContainer(f"{root} is not a directory")
    dirs = sorted(p for p in root.iterdir() if p.is_dir() and (p / MANIFEST_NAME).is_file())
    if not dirs:
        raise MalformedContainer(f"no chunk containers under {root}")
    return dirs


def iter_chunks(root) -> Iterator[Chunk]:
    """Lazily read chunk containers in name order."""
    for d in chunk_dirs(root):
        yield read_chunk(d)


class StreamingFrameWriter:
    """Writes fused frames to a container as they arrive.

    Appends each frame's arrays to the binary files immediately, so the
    fusion stage never holds more than its two resident chunks;
    :meth:`finish` writes the manifest, under ``chunk_id`` (0 for fused
    output). Used in a ``with`` block, it closes its files however the
    block ends.
    """

    def __init__(self, directory, chunk_id: int = 0):
        self.directory = Path(directory)
        self.chunk_id = chunk_id
        self.directory.mkdir(parents=True, exist_ok=True)
        self._files = {
            name: open(self.directory / f"{name}.bin", "wb")
            for name in ("points", "confidence", "poses")
        }
        self._count = 0
        self._grid: tuple[int, int] | None = None
        self._start: int | None = None

    def __call__(self, fp: FramePrediction) -> None:
        """Append ``fp``; ValueError unless it is the frame after the last
        one written, on the first frame's grid."""
        if self._start is None:
            self._start = fp.frame_index
            self._grid = fp.grid_shape
        elif fp.frame_index != self._start + self._count:
            raise ValueError(f"frame {fp.frame_index}: expected frame {self._start + self._count}")
        elif fp.grid_shape != self._grid:
            raise ValueError(f"frame {fp.frame_index}: grid {fp.grid_shape} differs from the "
                             f"first frame's {self._grid}")
        self._files["points"].write(np.ascontiguousarray(fp.points, dtype="<f4").tobytes())
        self._files["confidence"].write(np.ascontiguousarray(fp.confidence, dtype="<f4").tobytes())
        self._files["poses"].write(np.ascontiguousarray(fp.pose.matrix(), dtype="<f4").tobytes())
        self._count += 1

    def __enter__(self) -> "StreamingFrameWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for f in self._files.values():
            f.close()

    def finish(self) -> None:
        self.close()
        if self._start is None:
            raise ValueError("no frames were written")
        H, W = self._grid
        T = self._count
        arrays = [
            _array_entry("points", [T, H, W, 3]),
            _array_entry("confidence", [T, H, W]),
            _array_entry("poses", [T, 4, 4]),
        ]
        _write_manifest(self.directory, "chunk", self.chunk_id, self._start, self._start + T - 1,
                        self._grid, arrays)


# ---------------------------------------------------------------------------
# Ground-truth containers


def write_ground_truth(gt: GroundTruth, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    poses = np.stack([p.matrix() for p in gt.poses])
    arrays = [
        _write_array(directory, "points", gt.points),
        _write_array(directory, "poses", poses),
        _write_array(directory, "object_ids", gt.object_ids.astype(np.float64)),
        _write_array(directory, "visible", gt.visible.astype(np.float64)),
    ]
    _write_manifest(directory, "ground_truth", -1, 0, gt.num_frames - 1, gt.grid_shape, arrays,
                    scene_scale=gt.scene_scale)
    write_json(directory / "scene_spec.json", spec_to_dict(gt.spec))


def read_ground_truth(directory) -> GroundTruth:
    directory = Path(directory)
    manifest, data, poses = _read_container(directory, "ground_truth",
                                            ("points", "poses", "object_ids", "visible"))
    spec_path = directory / "scene_spec.json"
    spec = load_scene_spec(spec_path, MalformedContainer) if spec_path.is_file() else None
    return GroundTruth(
        spec=spec,
        points=data["points"].astype(np.float64),
        poses=list(poses),
        object_ids=data["object_ids"].astype(np.int32),
        visible=data["visible"] > 0.5,
        scene_scale=_field(manifest, "scene_scale", float, 1.0),
    )


# ---------------------------------------------------------------------------
# Sidecars: gauges, transforms, trajectories, matches


def _transform_to_dict(T: SimilarityTransform) -> dict:
    return {
        "scale": T.scale,
        "rotation": [float(v) for v in T.rotation.ravel()],
        "translation": [float(v) for v in T.translation],
    }


def _transform_from_dict(d: dict) -> SimilarityTransform:
    return SimilarityTransform(
        float(d["scale"]),
        np.asarray(d["rotation"], dtype=np.float64).reshape(3, 3),
        np.asarray(d["translation"], dtype=np.float64),
    )


def write_gauges(gauges: list[SimilarityTransform], path) -> None:
    write_json(path, [_transform_to_dict(g) for g in gauges])


def read_gauges(path) -> list[SimilarityTransform]:
    return [_transform_from_dict(d) for d in read_json(path, kind=list)]


def write_trajectories(trajectories: list[Trajectory], path) -> None:
    """The index ``path``, one ``id start_frame num_frames`` line per
    trajectory (start 0 when it has no frames), and beside it the sidecar
    ``path`` with suffix ``.bin``: every position in the same order as raw
    little-endian float64, (sum of num_frames, 3), row-major."""
    path = Path(path)
    lines = ["%d %d %d\n" % (tr.trajectory_id, tr.frames[0] if tr.frames else 0, len(tr.frames))
             for tr in trajectories]
    path.write_text("".join(lines))
    positions = [tr.positions for tr in trajectories] or [np.empty((0, 3))]
    np.concatenate(positions).astype("<f8", copy=False).tofile(path.with_suffix(".bin"))


def read_trajectories(path) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Trajectory records (id, int64 frames, (n, 3) float64 positions) of
    the index ``path`` and its sidecar, as :func:`write_trajectories`
    writes them; the positions are views of one array read from the
    sidecar. MalformedContainer for an index line that is not three
    integers, a negative length, a missing sidecar or one whose byte count
    is not 24 times the summed lengths."""
    path = Path(path)
    rows = []
    for line in path.read_text().splitlines():
        tokens = line.split()
        if not tokens:
            continue
        try:
            if len(tokens) != 3:
                raise ValueError("not an id, a start frame and a length")
            tid, start, length = map(int, tokens)
            if length < 0:
                raise ValueError("negative length")
            rows.append((tid, start, length))
        except ValueError as e:
            raise MalformedContainer(f"bad trajectory record {line[:60]!r}: {e}") from e
    sidecar = path.with_suffix(".bin")
    if not sidecar.is_file():
        raise MalformedContainer(f"missing trajectory positions {sidecar.name!r}")
    total = sum(length for _, _, length in rows)
    size = sidecar.stat().st_size
    if size != 24 * total:
        raise MalformedContainer(
            f"{sidecar.name!r} has {size} bytes, expected {24 * total} for {total} positions"
        )
    positions = np.fromfile(sidecar, dtype="<f8").reshape(total, 3)
    out, offset = [], 0
    try:
        for tid, start, length in rows:
            frames = np.arange(start, start + length, dtype=np.int64)
            out.append((tid, frames, positions[offset: offset + length]))
            offset += length
    except OverflowError as e:
        raise MalformedContainer(f"trajectory {tid}: frames past the int64 range") from e
    return out


def _int_rows(rows, width: int, where: str) -> np.ndarray:
    """The JSON list ``rows`` of ``width`` integers each as an (n, width)
    array; MalformedContainer when it holds anything else."""
    if not isinstance(rows, list):
        raise MalformedContainer(f"{where} must be a list")
    try:
        arr = np.array(rows) if rows else np.empty((0, width), dtype=np.int64)
    except ValueError as e:  # rows of different lengths
        raise MalformedContainer(f"{where}: {e}") from e
    if arr.shape != (len(rows), width) or arr.dtype.kind != "i":
        raise MalformedContainer(f"{where}: each record must be {width} integers")
    return arr


def read_fused_trajectories(directory, num_frames: int, grid_shape: tuple[int, int]) -> list[Trajectory]:
    """The trajectories of a fuse output directory of ``num_frames`` fused
    frames on a ``grid_shape`` grid, rebuilt from the
    ``TRAJECTORY_FILES``. MalformedContainer unless the meta file lists
    exactly the ids of the index, each entry is an object whose
    ``sources`` are ``[chunk, tracklet, row, col]`` integer records with
    every pixel on the grid, and every frame lies in ``[0, num_frames)``."""
    directory = Path(directory)
    H, W = grid_shape
    sources = {}
    for key, entry in read_json(directory / "trajectories_meta.json").items():
        where = f"trajectories_meta.json entry {key!r}"
        if not isinstance(entry, dict):
            raise MalformedContainer(f"{where} must be an object")
        rows = _int_rows(entry.get("sources", []), 4, f"{where} sources")
        if not ((0 <= rows[:, 2]) & (rows[:, 2] < H) & (0 <= rows[:, 3]) & (rows[:, 3] < W)).all():
            raise MalformedContainer(f"trajectory {key}: a source pixel lies off the {H}x{W} grid")
        sources[key] = tuple((c, t, (r, col)) for c, t, r, col in rows.tolist())
    records = read_trajectories(directory / "trajectories.txt")
    indexed = set()
    for tid, frames, _ in records:
        if len(frames) and (frames.min() < 0 or frames.max() >= num_frames):
            raise MalformedContainer(f"trajectory {tid} has frames outside [0, {num_frames})")
        if str(tid) not in sources:
            raise MalformedContainer(f"trajectories_meta.json does not list trajectory {tid}")
        indexed.add(str(tid))
    unindexed = sources.keys() - indexed
    if unindexed:
        raise MalformedContainer(
            f"trajectories_meta.json entry {min(unindexed)!r} names no indexed trajectory"
        )
    try:
        return [
            Trajectory(
                trajectory_id=tid,
                frames=tuple(frames.tolist()),
                positions=positions,
                sources=sources[str(tid)],
            )
            for tid, frames, positions in records
        ]
    except ValueError as e:
        raise MalformedContainer(f"bad trajectory files in {directory}: {e}") from e


def _trajectory_meta(trajectories: list[Trajectory]) -> dict:
    # through a dict, so a repeated id keeps its first place and last value
    return {tr.trajectory_id: {"sources": [[c, t, *px] for c, t, px in tr.sources]}
            for tr in trajectories}


def _junction_records(match_sets) -> list[dict]:
    """One record per junction of ``FusedScene.match_sets``: its matches
    with costs and pixels, and the (id, row, col) of every tracklet on each
    side, as ``matches.json`` holds them."""
    junctions = []
    for chunk_i, chunk_j, match_set, pixels_i, pixels_j in match_sets:
        pix_i, pix_j = pixels_i.tolist(), pixels_j.tolist()
        junctions.append({
            "chunk_i": chunk_i,
            "chunk_j": chunk_j,
            "matches": [[a, b, c, pix_i[a], pix_j[b]] for a, b, c in match_set.matches],
            "tracklets_i": [[k, *px] for k, px in enumerate(pix_i)],
            "tracklets_j": [[k, *px] for k, px in enumerate(pix_j)],
        })
    return junctions


_JUNCTION_KEYS = {"matches", "tracklets_i", "tracklets_j"}


def read_matches(path, grid_shape: tuple[int, int]) -> list[dict]:
    """The junction records of ``matches.json``. MalformedContainer unless
    each is an object with ``matches``, ``tracklets_i`` and ``tracklets_j``,
    each tracklet is ``[id, row, col]`` integers with its pixel on the
    ``grid_shape`` grid and an id no other tracklet on its side has, and
    each match is a list that starts with the ids of a tracklet on each
    side of its junction and a finite cost, no id matched twice."""
    H, W = grid_shape
    junctions = read_json(path, kind=list)
    for k, junction in enumerate(junctions):
        where = f"{Path(path).name} junction {k}"
        if not (isinstance(junction, dict) and _JUNCTION_KEYS <= junction.keys()):
            raise MalformedContainer(f"{where}: record is incomplete")
        ids = {}
        for side in ("tracklets_i", "tracklets_j"):
            ids[side], rows, cols = _int_rows(junction[side], 3, f"{where} {side}").T
            if not ((0 <= rows) & (rows < H) & (0 <= cols) & (cols < W)).all():
                raise MalformedContainer(f"{where}: a pixel of {side} lies off the {H}x{W} grid")
            if len(np.unique(ids[side])) != len(ids[side]):
                raise MalformedContainer(f"{where}: a tracklet id repeats in {side}")
        matches = junction["matches"]
        if not (isinstance(matches, list)
                and all(isinstance(m, list) and len(m) >= 3 for m in matches)):
            raise MalformedContainer(f"{where}: each match must be a list [a, b, cost, ...]")
        a, b = _int_rows([m[:2] for m in matches], 2, f"{where} matches").T
        if not (np.isin(a, ids["tracklets_i"]).all() and np.isin(b, ids["tracklets_j"]).all()):
            raise MalformedContainer(f"{where}: a match names no tracklet of its junction")
        if len(np.unique(a)) != len(a) or len(np.unique(b)) != len(b):
            raise MalformedContainer(f"{where}: matches are not one-to-one")
        costs = np.array([m[2] for m in matches])
        if costs.dtype.kind not in "if" or not np.isfinite(costs).all():
            raise MalformedContainer(f"{where}: match costs must be finite numbers")
    return junctions


def write_fusion_outputs(fused: FusedScene, directory) -> None:
    """Transforms, reports, trajectories, and association dumps.

    Every JSON document is encoded before any file is written, so one that
    is refused (a NaN or infinite value) raises ValueError naming its file
    and leaves ``directory`` as it was.
    """
    directory = Path(directory)
    report = []
    for r in fused.reports:
        record = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
        record["pair_transform"] = _transform_to_dict(r.pair_transform)
        report.append(record)
    documents = {
        "transforms.json": ([_transform_to_dict(T) for T in fused.chunk_transforms], 1),
        "report.json": (report, 1),
        "trajectories_meta.json": (_trajectory_meta(fused.trajectories), None),
        "matches.json": (_junction_records(fused.match_sets), None),
    }
    texts = {name: json_text(obj, indent, name) for name, (obj, indent) in documents.items()}
    directory.mkdir(parents=True, exist_ok=True)
    write_trajectories(fused.trajectories, directory / "trajectories.txt")
    for name, text in texts.items():
        (directory / name).write_text(text)


# ---------------------------------------------------------------------------
# Config files


def load_pipeline_config(path) -> PipelineConfig:
    """Read a pipeline config; unspecified fields take the documented
    defaults, unknown keys and ill-typed values are an error."""
    return PipelineConfig.from_dict(read_json(path, InvalidConfig))


def spec_to_dict(spec: SceneSpec) -> dict:
    return dataclasses.asdict(spec)


def load_scene_spec(path, error: type[Exception] = InvalidSpec) -> SceneSpec:
    """The scene spec in the JSON file ``path``; ``error`` when the file
    cannot be read, is not JSON, or holds no object or no valid spec."""
    try:
        return from_json(SceneSpec, read_json(path, InvalidSpec), InvalidSpec)
    except InvalidSpec as e:
        raise error(f"bad scene spec {path}: {e}") from e
