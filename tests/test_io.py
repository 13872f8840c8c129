import importlib
import json
import math
import re
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkfuse import io as cio
from chunkfuse.association import MatchSet
from chunkfuse.errors import InvalidConfig, InvalidSpec, MalformedContainer
from chunkfuse.fusion import ABLATION_MODES, FusedScene, Trajectory, fuse_sequence
from chunkfuse.model import (
    Chunk,
    PipelineConfig,
    Pose,
    SimilarityTransform,
)
from chunkfuse.synthetic import SceneSpec, emit_chunks, generate
import scenes
import references as ref
from conftest import HOLE_CFG, POSE_FAULTS, corrupt_pose, random_rotation
from scenes import gauge_recovery_spec

BENCH = Path(__file__).resolve().parent.parent / "bench"

SPEC_RECIPES = {
    "gauge_recovery": scenes.gauge_recovery_spec,
    "end_to_end": scenes.end_to_end_spec,
    "ablation": lambda: scenes.ablation_spec(0),
    "dynamic_overlap": lambda: scenes.dynamic_overlap_spec(0),
    "association": lambda: scenes.association_spec(0),
    "identity_span": scenes.identity_span_spec,
    "identity_span_ranges": lambda: scenes.identity_span_spec(((0, 20), (40, 63))),
}


def random_chunk(rng, chunk_id=0, start=0, T=4, H=6, W=5) -> Chunk:
    draws = [(rng.normal(size=(H, W, 3)), rng.uniform(0.0, 1.0, size=(H, W)),
              Pose(random_rotation(rng), rng.normal(size=3))) for _ in range(T)]
    points, confidence, poses = zip(*draws)
    return Chunk(chunk_id, start, np.stack(points), np.stack(confidence), poses)


def container_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


class TestChunkRoundTrip:
    def test_bit_exact(self, rng, tmp_path):
        chunk = random_chunk(rng, chunk_id=3, start=12)
        first = tmp_path / "a"
        second = tmp_path / "b"
        cio.write_chunk(chunk, first)
        again = cio.read_chunk(first)
        cio.write_chunk(again, second)
        assert container_bytes(first) == container_bytes(second)
        assert again.chunk_id == 3
        assert again.start_frame == 12

    def test_f32_quantization_small(self, rng, tmp_path):
        chunk = random_chunk(rng)
        cio.write_chunk(chunk, tmp_path / "c")
        again = cio.read_chunk(tmp_path / "c")
        for a, b in zip(chunk.frames, again.frames):
            assert np.abs(a.points - b.points).max() < 1e-5


class TestMalformedContainers:
    @pytest.fixture
    def written(self, rng, tmp_path):
        chunk = random_chunk(rng)
        path = tmp_path / "chunk"
        cio.write_chunk(chunk, path)
        return path

    def _manifest(self, path):
        return json.loads((path / cio.MANIFEST_NAME).read_text())

    def _write(self, path, manifest):
        (path / cio.MANIFEST_NAME).write_text(json.dumps(manifest))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MalformedContainer):
            cio.read_chunk(tmp_path)

    def test_unknown_format_version(self, written):
        m = self._manifest(written)
        m["format_version"] = 99
        self._write(written, m)
        with pytest.raises(MalformedContainer, match="format_version"):
            cio.read_chunk(written)

    def test_wrong_point_shape(self, written):
        m = self._manifest(written)
        entry = next(e for e in m["arrays"] if e["name"] == "points")
        entry["shape"][-1] = 2
        self._write(written, m)
        with pytest.raises(MalformedContainer, match="points"):
            cio.read_chunk(written)

    def test_truncated_binary_names_array(self, written):
        with open(written / "confidence.bin", "r+b") as f:
            f.truncate(10)
        with pytest.raises(MalformedContainer, match="confidence"):
            cio.read_chunk(written)

    def test_missing_array_file(self, written):
        (written / "poses.bin").unlink()
        with pytest.raises(MalformedContainer, match="poses"):
            cio.read_chunk(written)

    def test_unsupported_dtype(self, written):
        m = self._manifest(written)
        m["arrays"][0]["dtype"] = "float64"
        self._write(written, m)
        with pytest.raises(MalformedContainer, match="dtype"):
            cio.read_chunk(written)

    def test_unsupported_byte_order(self, written):
        m = self._manifest(written)
        m["arrays"][0]["byte_order"] = "big"
        self._write(written, m)
        with pytest.raises(MalformedContainer, match="byte order"):
            cio.read_chunk(written)

    def test_confidence_out_of_range(self, written):
        data = np.fromfile(written / "confidence.bin", dtype="<f4")
        data[0] = 1.5
        data.tofile(written / "confidence.bin")
        with pytest.raises(MalformedContainer):
            cio.read_chunk(written)

    def test_pose_last_row_must_be_exact(self, written):
        data = np.fromfile(written / "poses.bin", dtype="<f4").reshape(-1, 4, 4)
        data[0, 3, 0] = 1e-6
        data.tofile(written / "poses.bin")
        with pytest.raises(MalformedContainer, match="last row"):
            cio.read_chunk(written)

    @pytest.mark.parametrize("fault", POSE_FAULTS)
    def test_pose_fault_names_its_frame(self, rng, tmp_path, fault):
        cio.write_chunk(random_chunk(rng, start=10), tmp_path)
        data = np.fromfile(tmp_path / "poses.bin", dtype="<f4").reshape(-1, 4, 4)
        message = corrupt_pose(data[2], fault)
        data[3, :3, :3] *= 3.0  # a later fault is not the one named
        data.tofile(tmp_path / "poses.bin")
        with pytest.raises(MalformedContainer, match=f"^frame 12: .*{message}"):
            cio.read_chunk(tmp_path)

    def test_ground_truth_nan_last_row_rejected(self, tmp_path):
        cio.write_ground_truth(generate(gauge_recovery_spec(num_frames=6, grid=8)), tmp_path)
        data = np.fromfile(tmp_path / "poses.bin", dtype="<f4").reshape(-1, 4, 4)
        data[4, 3, 2] = np.nan
        data.tofile(tmp_path / "poses.bin")
        with pytest.raises(MalformedContainer, match="^frame 4: .*last row"):
            cio.read_ground_truth(tmp_path)

    @pytest.mark.parametrize("value", [np.nan, 0.5, -2.0, np.inf, 2.0**31])
    def test_ground_truth_object_id_must_be_an_integer(self, tmp_path, value):
        cio.write_ground_truth(generate(gauge_recovery_spec(num_frames=6, grid=8)), tmp_path)
        ids = np.fromfile(tmp_path / "object_ids.bin", dtype="<f4").reshape(8, 8)
        ids[2, 5] = value
        ids.tofile(tmp_path / "object_ids.bin")
        with pytest.raises(MalformedContainer, match=r"pixel \(2, 5\) holds .*integer >= -1"):
            cio.read_ground_truth(tmp_path)

    def test_poses_are_views_of_one_stack(self, written):
        poses = cio.read_chunk(written).poses
        rotations, translations = poses[0].rotation.base, poses[0].translation.base
        assert rotations.shape == (len(poses), 3, 3) and translations.shape == (len(poses), 3)
        for p in poses:
            for a, stack in ((p.rotation, rotations), (p.translation, translations)):
                assert np.shares_memory(a, stack)
                assert not a.flags.writeable and a.flags.c_contiguous
                with pytest.raises(ValueError):
                    a.setflags(write=True)

    def test_garbage_rotation_rejected(self, written):
        data = np.fromfile(written / "poses.bin", dtype="<f4").reshape(-1, 4, 4)
        data[0, :3, :3] *= 3.0
        data.tofile(written / "poses.bin")
        with pytest.raises(MalformedContainer):
            cio.read_chunk(written)

    @pytest.mark.parametrize("entry,value", [((0, 1, 2), np.nan), ((1, 0, 3), np.inf),
                                             ((0, 2, 3), -np.inf)])
    def test_nonfinite_pose_rejected(self, written, entry, value):
        data = np.fromfile(written / "poses.bin", dtype="<f4").reshape(-1, 4, 4)
        data[entry] = value
        data.tofile(written / "poses.bin")
        with pytest.raises(MalformedContainer, match=f"frame {entry[0]}"):
            cio.read_chunk(written)

    @pytest.mark.parametrize("array,frame,value,message", [
        ("confidence", 11, 1.5, "frame 11: confidence values must lie in"),
        ("points", 12, np.nan, "frame 12: non-finite points"),
    ])
    def test_bad_frame_named(self, rng, tmp_path, array, frame, value, message):
        chunk = random_chunk(rng, start=10)
        cio.write_chunk(chunk, tmp_path)
        data = np.fromfile(tmp_path / f"{array}.bin", dtype="<f4").reshape(4, -1)
        data[frame - 10, 7] = value  # points: a coordinate of pixel 2
        assert chunk.confidence[frame - 10].ravel()[2] > 0.0
        data.tofile(tmp_path / f"{array}.bin")
        with pytest.raises(MalformedContainer, match=message):
            cio.read_chunk(tmp_path)

    @pytest.mark.parametrize("shape", [[4.0, 6, 5, 3], [4, 6, 5, True], [4, 6, 5, "3"], None])
    def test_shape_entries_must_be_ints(self, written, shape):
        m = self._manifest(written)
        entry = next(e for e in m["arrays"] if e["name"] == "points")
        if shape is None:
            del entry["shape"]
        else:
            entry["shape"] = shape
        self._write(written, m)
        with pytest.raises(MalformedContainer, match="'points' shape"):
            cio.read_chunk(written)

    def test_missing_required_array_entry(self, written):
        m = self._manifest(written)
        m["arrays"] = [e for e in m["arrays"] if e["name"] != "points"]
        self._write(written, m)
        with pytest.raises(MalformedContainer, match="points"):
            cio.read_chunk(written)

    def test_manifest_not_json(self, written):
        (written / cio.MANIFEST_NAME).write_text("{nope")
        with pytest.raises(MalformedContainer, match="JSON"):
            cio.read_chunk(written)


class TestGroundTruthContainer:
    def test_roundtrip(self, tmp_path):
        spec = gauge_recovery_spec(num_frames=10, grid=10)
        gt = generate(spec)
        cio.write_ground_truth(gt, tmp_path / "gt")
        again = cio.read_ground_truth(tmp_path / "gt")
        assert np.abs(again.points - gt.points).max() < 1e-4
        assert np.array_equal(again.object_ids, gt.object_ids)
        assert np.array_equal(again.visible, gt.visible)
        assert again.scene_scale == pytest.approx(gt.scene_scale)
        # arrays and a manifest only: ``chunkfuse generate`` writes the spec beside them
        assert not (tmp_path / "gt" / "scene_spec.json").exists()

    def test_kind_checked(self, rng, tmp_path):
        cio.write_chunk(random_chunk(rng), tmp_path / "c")
        with pytest.raises(MalformedContainer, match="ground_truth"):
            cio.read_ground_truth(tmp_path / "c")
        cio.write_ground_truth(generate(gauge_recovery_spec(num_frames=6, grid=8)), tmp_path / "gt")
        with pytest.raises(MalformedContainer, match="kind='ground_truth'"):
            cio.read_chunk(tmp_path / "gt")


class TestSidecars:
    def test_gauges_roundtrip(self, rng, tmp_path):
        gauges = [
            SimilarityTransform(float(rng.uniform(0.5, 2)), random_rotation(rng),
                                rng.normal(size=3))
            for _ in range(5)
        ]
        cio.write_gauges(gauges, tmp_path / "gauges.json")
        again = cio.read_gauges(tmp_path / "gauges.json")
        for a, b in zip(gauges, again):
            assert a.scale == b.scale
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)

    def test_trajectories_roundtrip(self, rng, tmp_path):
        trajectories = [
            Trajectory(7, tuple(range(3, 8)), rng.normal(size=(5, 3)),
                       ((0, 1, (2, 3)), (1, 4, (2, 3)))),
            Trajectory(9, tuple(range(0, 2)), rng.normal(size=(2, 3)), ((0, 2, (5, 5)),)),
        ]
        cio.write_trajectories(trajectories, tmp_path / "t.txt")
        parsed = cio.read_trajectories(tmp_path / "t.txt")
        assert [p[0] for p in parsed] == [7, 9]
        assert list(parsed[0][1]) == list(range(3, 8))
        assert np.array_equal(parsed[0][2], trajectories[0].positions)

    def test_fused_trajectories_roundtrip(self, rng, tmp_path):
        trajectories = [
            Trajectory(7, tuple(range(3, 8)), rng.normal(size=(5, 3)),
                       ((0, 1, (2, 3)), (1, 4, (2, 3)))),
            Trajectory(9, (4,), rng.normal(size=(1, 3)), ()),
        ]
        cio.write_fusion_outputs(scene(trajectories=trajectories), tmp_path)
        again = cio.read_fused_trajectories(tmp_path, 8, (6, 6))
        for a, b in zip(trajectories, again, strict=True):
            assert (a.trajectory_id, a.frames, a.sources) == (b.trajectory_id, b.frames, b.sources)
            assert np.array_equal(a.positions, b.positions)

    def test_malformed_fused_trajectories(self, tmp_path):
        (tmp_path / "trajectories_meta.json").write_text("{}\n")
        (tmp_path / "trajectories.txt").write_text("0 3 3\n")
        np.zeros((2, 3)).tofile(tmp_path / "trajectories.bin")
        with pytest.raises(MalformedContainer, match="48 bytes, expected 72"):
            cio.read_fused_trajectories(tmp_path, 8, (6, 6))
        np.zeros((3, 3)).tofile(tmp_path / "trajectories.bin")
        with pytest.raises(MalformedContainer, match=r"outside \[0, 5\)"):
            cio.read_fused_trajectories(tmp_path, 5, (6, 6))
        (tmp_path / "trajectories_meta.json").write_text("{not json")
        with pytest.raises(MalformedContainer):
            cio.read_fused_trajectories(tmp_path, 8, (6, 6))

    @pytest.mark.parametrize("sources", [
        ((0, 2, (6, 0)),),
        ((0, 2, (0, 6)),),
        ((0, 2, (-1, 0)),),
        ((0, 2, (999, 3)),),
        ((0, 2, (0, 0)), (1, 0, (0, -1))),
    ], ids=["row-past", "col-past", "row-negative", "row-999", "later-source"])
    def test_fused_trajectory_off_grid_rejected(self, rng, tmp_path, sources):
        trajectories = [
            Trajectory(3, (0, 1), rng.normal(size=(2, 3)), ((0, 1, (5, 5)),)),
            Trajectory(7, (2,), rng.normal(size=(1, 3)), sources),
        ]
        cio.write_fusion_outputs(scene(trajectories=trajectories), tmp_path)
        with pytest.raises(MalformedContainer, match="^trajectory 7: a source pixel lies off the 6x6 grid$"):
            cio.read_fused_trajectories(tmp_path, 8, (6, 6))

    @pytest.mark.parametrize("index, floats, pattern", [
        ("0 0 1\n", None, "missing trajectory positions 't.bin'"),
        ("", 3, "24 bytes, expected 0"),
        ("0 9223372036854775807 2\n", 6, "frames past the int64 range"),
        ("0 0 2\n1 0 -1\n", 3, "negative length"),
    ], ids=["missing-sidecar", "sidecar-past-empty-index", "frames-past-int64",
            "negative-length-within-sidecar"])
    def test_malformed_index_or_sidecar(self, tmp_path, index, floats, pattern):
        (tmp_path / "t.txt").write_text(index)
        if floats is not None:
            np.zeros(floats).tofile(tmp_path / "t.bin")
        with pytest.raises(MalformedContainer, match=re.escape(pattern)):
            cio.read_trajectories(tmp_path / "t.txt")

    def test_trajectory_checks_frames_and_shape(self):
        with pytest.raises(ValueError, match="contiguous"):
            Trajectory(0, (3, 5), np.zeros((2, 3)), ())
        with pytest.raises(ValueError, match="positions"):
            Trajectory(0, (3, 4), np.zeros((3, 3)), ())
        assert Trajectory(0, (), np.zeros((0, 3)), ()).frames == ()


def reference_sidecars(fused: FusedScene) -> dict[str, bytes]:
    """``trajectories_meta.json`` and ``matches.json`` as
    ``json.dumps(indent=1)`` writes them from plain lists and dicts, kept
    as the reference for the values of the sidecar writers."""
    meta = {
        str(tr.trajectory_id): {
            "sources": [[int(c), int(t), int(px[0]), int(px[1])] for c, t, px in tr.sources]
        }
        for tr in fused.trajectories
    }
    dumps = []
    for chunk_i, chunk_j, match_set, pixels_i, pixels_j in fused.match_sets:
        pix_i, pix_j = pixels_i.tolist(), pixels_j.tolist()
        dumps.append(
            {
                "chunk_i": chunk_i,
                "chunk_j": chunk_j,
                "matches": [[a, b, c] for a, b, c in match_set.matches],
                "tracklets_i": [[k, *px] for k, px in enumerate(pix_i)],
                "tracklets_j": [[k, *px] for k, px in enumerate(pix_j)],
            }
        )
    return {
        "trajectories_meta.json": (json.dumps(meta, indent=1) + "\n").encode(),
        "matches.json": (json.dumps(dumps, indent=1) + "\n").encode(),
    }


def written_sidecars(fused: FusedScene, directory: Path) -> dict[str, bytes]:
    """The JSON sidecars of ``write_fusion_outputs``, after checking that
    its trajectory files read back as the records of the text writer, that
    both sidecars load to the reference's values, and that every JSON file
    it writes is the encoding of its own value: compact for the two
    sidecars, indented by one for the rest."""
    cio.write_fusion_outputs(fused, directory)
    assert_reference_records(fused.trajectories, directory / "trajectories.txt")
    reference = reference_sidecars(fused)
    written = {name: (directory / name).read_bytes() for name in reference}
    assert {name: json.loads(text) for name, text in written.items()} == \
        {name: json.loads(text) for name, text in reference.items()}
    paths = sorted(directory.glob("*.json"))
    assert [p.name for p in paths] == \
        ["matches.json", "report.json", "trajectories_meta.json", "transforms.json"]
    for path in paths:
        text = path.read_text()
        indent = None if path.name in reference else 1
        assert text == json.dumps(json.loads(text), indent=indent) + "\n", path.name
    return written


def assert_same_records(got, want):
    """Trajectory records equal in ids, int64 frames and position bytes."""
    assert [(tid, frames.dtype, frames.tolist()) for tid, frames, _ in got] == \
        [(tid, np.dtype(np.int64), frames.tolist()) for tid, frames, _ in want]
    assert [(p.dtype, p.shape, p.tobytes()) for _, _, p in got] == \
        [(np.dtype(np.float64), p.shape, p.tobytes()) for _, _, p in want]


def assert_reference_records(trajectories, index: Path):
    """The records read back from the trajectory files at ``index`` equal
    those the text reader parses from the text writer's file."""
    text = index.with_name("reference.txt")
    ref.write_trajectories(trajectories, text)
    assert_same_records(cio.read_trajectories(index), ref.read_trajectories(text))


def pixels(rows) -> np.ndarray:
    """The (N, 2) seed pixels of one side's tracklets, as a fuse keeps them."""
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def scene(trajectories=(), match_sets=()) -> FusedScene:
    return FusedScene(num_frames=4, chunk_transforms=[SimilarityTransform.identity()],
                      trajectories=list(trajectories), reports=[], match_sets=list(match_sets))


@pytest.fixture(scope="module")
def fused_ablations():
    spec = gauge_recovery_spec(num_frames=28, grid=12)
    cfg = PipelineConfig(chunk_length=8, overlap=4, seed_stride=1, min_displacement=0.05)
    gt = generate(spec)
    return {ablation: fuse_sequence(emit_chunks(gt, cfg, spec).chunks, cfg, ablation=ablation,
                                    frame_sink=[].append)
            for ablation in ABLATION_MODES}


class TestSidecarBytes:
    """The sidecar writers give the reference writer's values, and every
    JSON file of a fuse is laid out as ``write_json`` lays it out."""

    @pytest.mark.parametrize("ablation", ABLATION_MODES)
    def test_fused_scene(self, fused_ablations, ablation, tmp_path):
        fused = fused_ablations[ablation]
        if ablation == "full":
            assert sum(len(m[2]) for m in fused.match_sets) > 0
            assert any(len(tr.sources) > 1 for tr in fused.trajectories)
        written_sidecars(fused, tmp_path)

    def test_no_match_sets_and_no_trajectories(self, tmp_path):
        fused = scene()
        assert written_sidecars(fused, tmp_path) == \
            {"trajectories_meta.json": b"{}\n", "matches.json": b"[]\n"}
        assert (tmp_path / "trajectories.txt").read_bytes() == b""
        assert (tmp_path / "trajectories.bin").read_bytes() == b""

    def test_junctions_without_matches_or_tracklets(self, tmp_path):
        fused = scene(match_sets=[
            (0, 1, MatchSet((), (), ()), pixels([]), pixels([])),
            (1, 2, MatchSet((), (0,), (0, 1)), pixels([(4, 5)]),
             pixels([(6, 7), (8, 9)])),
            (2, 3, MatchSet((), (), (0,)), pixels([]), pixels([(1, 1)])),
            (3, 4, MatchSet(((1, 0, 0.30000000000000004), (0, 1, np.float64(1e-17))), (), ()),
             pixels([(0, 2), (2, 4)]), pixels([(3, 1), (5, 0)])),
        ])
        written_sidecars(fused, tmp_path)

    def test_trajectory_edge_cases(self, tmp_path):
        fused = scene(trajectories=[
            Trajectory(0, (5,), [[1.0, -0.0, 1e-300]], ((0, 4, (1, 2)),)),
            Trajectory(1, (0, 1, 2), [[np.nan, np.inf, -np.inf], [5e-324, 1e300, 0.1],
                                      [1e16, -2.5, 3.0]], ((0, 1, (0, 0)), (1, 7, (2, 3)))),
            Trajectory(2, (), np.zeros((0, 3)), ()),
            Trajectory(12, (3, 4), np.ones((2, 3)), ((2, 0, (9, 9)),)),
        ])
        written_sidecars(fused, tmp_path)

    def test_trajectory_files(self, tmp_path):
        fused = scene(trajectories=[
            Trajectory(3, (5, 6), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], ()),
            Trajectory(1, (), np.zeros((0, 3)), ()),
            Trajectory(8, (0,), [[-0.0, 0.5, 7.0]], ()),
        ])
        cio.write_fusion_outputs(fused, tmp_path)
        assert (tmp_path / "trajectories.txt").read_text() == "3 5 2\n1 0 0\n8 0 1\n"
        assert (tmp_path / "trajectories.bin").read_bytes() == np.array(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -0.0, 0.5, 7.0], dtype="<f8").tobytes()

    def test_non_finite_cost_rejected(self, tmp_path):
        for cost in (math.inf, -math.inf, math.nan):
            fused = scene(match_sets=[(0, 1, MatchSet(((0, 0, cost),), (), ()),
                                       pixels([(0, 0)]), pixels([(0, 0)]))])
            with pytest.raises(ValueError, match="not JSON compliant"):
                cio.write_fusion_outputs(fused, tmp_path)

    def test_refused_document_writes_nothing(self, tmp_path):
        refused = scene(
            trajectories=[Trajectory(0, (1, 2), np.ones((2, 3)), ((0, 0, (0, 0)),))],
            match_sets=[(0, 1, MatchSet(((0, 0, math.inf),), (), ()),
                         pixels([(0, 0)]), pixels([(0, 0)]))],
        )
        with pytest.raises(ValueError, match="matches.json"):
            cio.write_fusion_outputs(refused, tmp_path / "new")
        assert not (tmp_path / "new").exists()
        # an earlier fuse's outputs stay as they were, every file of them
        cio.write_fusion_outputs(scene(), tmp_path / "old")
        before = {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()}
        assert len(before) == 6
        with pytest.raises(ValueError, match="matches.json"):
            cio.write_fusion_outputs(refused, tmp_path / "old")
        assert {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()} == before


SAME_BITS_RECIPES = {
    "ablation_spec(0)": (lambda: scenes.ablation_spec(0), scenes.ablation_config),
    "association_spec(0)": (lambda: scenes.association_spec(0), scenes.association_config),
    "dynamic_overlap_spec(0)": (lambda: scenes.dynamic_overlap_spec(0), scenes.ablation_config),
}


@pytest.fixture(scope="module")
def recipe_chunks():
    """The emitted chunks and config of each same-bits recipe, made once."""
    out = {}
    for name, (make_spec, make_cfg) in SAME_BITS_RECIPES.items():
        spec, cfg = make_spec(), make_cfg()
        out[name] = list(emit_chunks(generate(spec), cfg, spec).chunks), cfg
    return out


class TestTrajectoryFiles:
    """The index and the positions sidecar read back as the records the
    text writer's file parsed to, with every position's bytes."""

    @pytest.mark.parametrize("ablation", ABLATION_MODES)
    @pytest.mark.parametrize("recipe", sorted(SAME_BITS_RECIPES))
    def test_fused_recipes(self, recipe_chunks, recipe, ablation, tmp_path):
        chunks, cfg = recipe_chunks[recipe]
        fused = fuse_sequence(chunks, cfg, ablation, frame_sink=[].append)
        written_sidecars(fused, tmp_path)
        if ablation == "full":
            assert any(len(tr.sources) > 1 for tr in fused.trajectories)

    def test_hole_without_smoothness(self, chunks_with_hole, tmp_path):
        cfg = PipelineConfig(**{**HOLE_CFG.to_dict(), "lambda_sm": 0.0})
        fused = fuse_sequence(chunks_with_hole[0], cfg, "full", frame_sink=[].append)
        written_sidecars(fused, tmp_path)
        assert any(np.isnan(tr.positions).any() for tr in fused.trajectories)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3).flatmap(lambda n: st.tuples(
        st.integers(-2**40, 2**40), st.integers(-2**40, 2**40),
        st.lists(st.floats(width=64), min_size=3 * n, max_size=3 * n))), max_size=6))
    @example([])
    @example([(0, 0, []), (1, 9, [1.0, -2.0, 3.0])])
    @example([(4, 2, [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2e-308]),
              (5, 0, [-math.nan, 0.0, 1e-310])])
    def test_round_trip(self, records):
        trajectories = [Trajectory(tid, tuple(range(start, start + len(coords) // 3)),
                                   np.reshape(coords, (-1, 3)), ())
                        for tid, start, coords in records]
        with tempfile.TemporaryDirectory() as directory:
            index = Path(directory) / "trajectories.txt"
            cio.write_trajectories(trajectories, index)
            got = cio.read_trajectories(index)
        assert_same_records(got, [(tr.trajectory_id, np.array(tr.frames, dtype=np.int64),
                                   tr.positions) for tr in trajectories])


class TestManifests:
    """Every container manifest reads as the hand-built dict it replaced."""

    @staticmethod
    def entry(name, shape):
        return {"name": name, "dtype": "float32", "shape": shape, "path": f"{name}.bin",
                "byte_order": "little"}

    def test_chunk_and_streamed(self, rng, tmp_path):
        chunk = random_chunk(rng, chunk_id=3, start=12)
        cio.write_chunk(chunk, tmp_path / "chunk")
        writer = cio.StreamingFrameWriter(tmp_path / "streamed")
        for fp in chunk.frames:
            writer(fp)
        writer.finish()
        T, H, W = 4, 6, 5
        manifest = {
            "format_version": 1, "kind": "chunk", "chunk_id": 3, "start_frame": 12,
            "end_frame": 15, "height": H, "width": W,
            "arrays": [self.entry("points", [T, H, W, 3]), self.entry("confidence", [T, H, W]),
                       self.entry("poses", [T, 4, 4])],
        }
        text = (tmp_path / "chunk" / cio.MANIFEST_NAME).read_text()
        assert text == json.dumps(manifest, indent=1) + "\n"
        manifest["chunk_id"] = 0
        text = (tmp_path / "streamed" / cio.MANIFEST_NAME).read_text()
        assert text == json.dumps(manifest, indent=1) + "\n"

    def test_ground_truth(self, tmp_path):
        gt = generate(gauge_recovery_spec(num_frames=6, grid=8))
        cio.write_ground_truth(gt, tmp_path)
        manifest = {
            "format_version": 1, "kind": "ground_truth", "chunk_id": -1, "start_frame": 0,
            "end_frame": 5, "height": 8, "width": 8, "scene_scale": gt.scene_scale,
            "arrays": [self.entry("points", [6, 8, 8, 3]), self.entry("poses", [6, 4, 4]),
                       self.entry("object_ids", [8, 8]), self.entry("visible", [6, 8, 8])],
        }
        assert (tmp_path / cio.MANIFEST_NAME).read_text() == json.dumps(manifest, indent=1) + "\n"


class TestConfigFiles:
    def test_partial_file_takes_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"chunk_length": 8, "overlap": 3}))
        cfg = cio.load_pipeline_config(p)
        assert cfg == PipelineConfig(chunk_length=8, overlap=3)

    def test_unknown_key_is_error(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"chunk_legnth": 8}))
        with pytest.raises(InvalidConfig, match="chunk_legnth"):
            cio.load_pipeline_config(p)

    def test_invalid_value_is_error(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"overlap": 99}))
        with pytest.raises(InvalidConfig):
            cio.load_pipeline_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidConfig):
            cio.load_pipeline_config(tmp_path / "none.json")

    def test_scene_spec_roundtrip(self, tmp_path):
        spec = gauge_recovery_spec()
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(cio.spec_to_dict(spec)))
        assert cio.load_scene_spec(p) == spec

    def test_scene_spec_bad_key(self, tmp_path):
        p = tmp_path / "scene.json"
        p.write_text(json.dumps({"n_frames": 4}))
        with pytest.raises(InvalidSpec):
            cio.load_scene_spec(p)

    @pytest.mark.parametrize("recipe", [*SPEC_RECIPES, "bench:assoc-dense", "bench:long-stream"])
    def test_recipe_specs_roundtrip(self, tmp_path, monkeypatch, recipe):
        if recipe.startswith("bench:"):
            monkeypatch.syspath_prepend(str(BENCH))
            monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
            spec = importlib.import_module("workloads").WORKLOADS[recipe[6:]].spec(0)
        else:
            spec = SPEC_RECIPES[recipe]()
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(cio.spec_to_dict(spec)))
        assert cio.load_scene_spec(p) == spec


class TestStreaming:
    def test_streaming_writer_matches_batch_fusion(self, tmp_path):
        spec = gauge_recovery_spec(num_frames=20, grid=10)
        gt = generate(spec)
        cfg = PipelineConfig(chunk_length=8, overlap=4, gamma_stat_frac=0.05)
        frames = []
        fuse_sequence(emit_chunks(gt, cfg, spec).chunks, cfg, frame_sink=frames.append)
        writer = cio.StreamingFrameWriter(tmp_path / "fused")
        fuse_sequence(emit_chunks(gt, cfg, spec).chunks, cfg, frame_sink=writer)
        writer.finish()
        again = cio.read_chunk(tmp_path / "fused")
        assert len(again.frames) == 20
        for a, b in zip(frames, again.frames):
            assert np.abs(a.points - b.points).max() < 1e-4

    def test_frame_gap_rejected(self, rng, tmp_path):
        frames = random_chunk(rng, start=3).frames
        with cio.StreamingFrameWriter(tmp_path / "out") as writer:
            writer(frames[0])
            with pytest.raises(ValueError, match="^frame 5: expected frame 4$"):
                writer(frames[2])
            writer(frames[1])  # the rejected frame wrote nothing
            writer.finish()
        again = cio.read_chunk(tmp_path / "out")
        assert [fp.frame_index for fp in again.frames] == [3, 4]
        assert np.array_equal(again.points[1], frames[1].points.astype(np.float32))

    def test_grid_change_rejected(self, rng, tmp_path):
        first = random_chunk(rng, start=3).frames[0]
        other = random_chunk(rng, start=3, H=7).frames[1]
        with cio.StreamingFrameWriter(tmp_path / "out") as writer:
            writer(first)
            with pytest.raises(ValueError, match=r"^frame 4: grid \(7, 5\) differs from the "
                                                 r"first frame's \(6, 5\)$"):
                writer(other)

    def test_lazy_reader_keeps_two_chunks_resident(self, rng, tmp_path):
        for k in range(10):
            cio.write_chunk(random_chunk(rng, chunk_id=k, start=4 * k), tmp_path / f"chunk_{k:04d}")

        alive: set[int] = set()
        peak = 0

        def instrumented():
            nonlocal peak
            for chunk in cio.iter_chunks(tmp_path):
                token = id(chunk)
                alive.add(token)
                weakref.finalize(chunk, alive.discard, token)
                peak = max(peak, len(alive))
                yield chunk

        consumed = 0
        prev = None
        for chunk in instrumented():
            prev = chunk
            consumed += 1
            peak = max(peak, len(alive))
        assert consumed == 10
        assert peak <= 2
