import dataclasses
import importlib
import json
import math
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import references as ref
from chunkfuse import cli
from chunkfuse import io as cio
from chunkfuse.chunking import slice_overlap
from chunkfuse.cli import main
from chunkfuse.fusion import camera_scale
from chunkfuse.metrics import build_fused_table, dense_epe
from chunkfuse.model import Chunk, PipelineConfig
from chunkfuse.registration import select_anchors
from conftest import make_chunk
from scenes import ablation_config, ablation_spec, gauge_recovery_spec

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generate -> fuse pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "scene.json"
    spec_path.write_text(json.dumps(cio.spec_to_dict(gauge_recovery_spec(num_frames=28, grid=12))))
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps({
        "chunk_length": 8, "overlap": 4,
        "seed_stride": 1, "min_displacement": 0.05,
    }))
    data = root / "data"
    code = main(["generate", "--spec", str(spec_path), "--out", str(data),
                 "--chunk-length", "8", "--overlap", "4"])
    assert code == 0
    out = root / "fused"
    code = main(["fuse", "--chunks", str(data / "chunks"), "--config", str(cfg_path),
                 "--out", str(out)])
    assert code == 0
    return root, data, out, cfg_path


def test_generate_layout(workspace):
    root, data, out, _ = workspace
    assert (data / "gt" / cio.MANIFEST_NAME).is_file()
    spec = cio.load_scene_spec(data / "gt" / "scene_spec.json")
    assert spec == gauge_recovery_spec(num_frames=28, grid=12)
    assert (data / "chunks" / "gauges.json").is_file()
    chunk_dirs = sorted(p.name for p in (data / "chunks").iterdir() if p.is_dir())
    assert chunk_dirs == [f"chunk_{k:04d}" for k in range(len(chunk_dirs))]


def test_fuse_outputs(workspace):
    root, data, out, _ = workspace
    for name in ("transforms.json", "report.json", "trajectories.txt", "trajectories.bin",
                 "trajectories_meta.json", "matches.json", "fuse_info.json"):
        assert (out / name).is_file(), name
    fused = cio.read_chunk(out / "fused")
    assert len(fused.frames) == 28


def test_inspect(workspace, capsys):
    root, data, out, _ = workspace
    assert main(["inspect", "--chunks", str(data / "chunks")]) == 0
    text = capsys.readouterr().out
    assert "chunk 0" in text and "overlap with previous" in text


def test_inspect_prints_thresholds_and_scales(workspace, capsys):
    """Each overlap line ends with what ``select_anchors`` resolves and
    the scale the camera tier takes, which on this noise-free scene is the
    ratio of the true gauges' scales up to the containers' float32."""
    root, data, out, _ = workspace
    assert main(["inspect", "--chunks", str(data / "chunks")]) == 0
    lines = capsys.readouterr().out.splitlines()
    chunks = [cio.read_chunk(d) for d in cio.chunk_dirs(data / "chunks")]
    gauges = cio.read_gauges(data / "chunks" / "gauges.json")
    assert len(lines) == len(chunks) > 2
    for k, line in enumerate(lines[1:]):
        a = select_anchors(slice_overlap(chunks[k], chunks[k + 1]), PipelineConfig())
        assert line.endswith(
            f"gamma_stat i/j {a.gamma_stat:.6g}/{a.gamma_stat_j:.6g}, scene scale i "
            f"{a.scene_scale:.6g}, camera scale j->i {camera_scale(a):.6g}")
        assert camera_scale(a) == pytest.approx(gauges[k].scale / gauges[k + 1].scale, rel=1e-5)


def test_evaluate_all_metrics(workspace, capsys):
    root, data, out, _ = workspace
    code = main(["evaluate", "--pred", str(out), "--gt", str(data),
                 "--metrics", "epe,ate,rpe,assoc"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[-1])
    # noise-free scene read back through f32 containers: quantization only
    assert report["epe"] < 5e-4
    assert report["ate"] < 5e-4
    assert report["rpe_trans"] < 5e-4
    assert report["assoc_f1"] == pytest.approx(1.0)
    assert (out / "metrics.json").is_file()


def test_evaluate_poses_sheared_within_storage_tolerance(workspace, tmp_path, capsys):
    """Fused poses the container accepts score, though the relative
    motions RPE derives from them deviate about twice as far."""
    root, data, out, _ = workspace
    sheared = tmp_path / "out"
    shutil.copytree(out, sheared)
    path = sheared / "fused" / "poses.bin"
    poses = np.fromfile(path, dtype="<f4").reshape(-1, 4, 4)
    poses[:, :3, 1] += np.float32(9e-5) * poses[:, :3, 0]
    poses.tofile(path)
    R = np.stack([fp.pose.rotation for fp in cio.read_chunk(sheared / "fused").frames])
    deviation = np.abs(R.transpose(0, 2, 1) @ R - np.eye(3)).max()
    assert 8e-5 < deviation <= cio.POSE_STORAGE_TOL
    assert main(["evaluate", "--pred", str(sheared), "--gt", str(data)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert math.isfinite(report["rpe_trans"]) and math.isfinite(report["rpe_rot"])


def reference_pred_table(out, fused, trajectories: bool = True):
    """The EPE table the CLI built before it used ``build_fused_table``."""
    points = np.stack([fp.points for fp in fused.frames])
    table = {
        (r, c): points[:, r, c, :]
        for r in range(points.shape[1])
        for c in range(points.shape[2])
    }
    if not trajectories:
        return table
    meta = json.loads((out / "trajectories_meta.json").read_text())
    for tid, frames, positions in cio.read_trajectories(out / "trajectories.txt"):
        sources = meta.get(str(tid), {}).get("sources", [])
        if not sources:
            continue
        root = (sources[0][2], sources[0][3])
        if root in table:
            track = table[root].copy()
            track[frames] = positions
            table[root] = track
    return table


def test_evaluate_epe_matches_reference_table(workspace, capsys):
    root, data, out, _ = workspace
    assert main(["evaluate", "--pred", str(out), "--gt", str(data), "--metrics", "epe"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    fused = cio.read_chunk(out / "fused")
    table = reference_pred_table(out, fused)
    # stitched trajectories override some pixel tracks, so the override is exercised
    plain = reference_pred_table(out, fused, trajectories=False)
    assert any(not np.array_equal(table[k], plain[k]) for k in table)
    gt = cio.read_ground_truth(data / "gt")
    assert report["epe"] == dense_epe(table, gt.trajectory_table())


def test_dense_tables_match_dict_tables(workspace):
    root, data, out, _ = workspace
    frames = cio.read_chunk(out / "fused").frames
    trajectories = cio.read_fused_trajectories(out, len(frames), frames[0].points.shape[:2])
    fused = SimpleNamespace(frames=frames, trajectories=trajectories)
    gt = cio.read_ground_truth(data / "gt")
    pred, truth = build_fused_table(fused), gt.trajectory_table()
    pred_dict, truth_dict = ref.build_fused_table(fused), ref.trajectory_table(gt.points)
    assert list(pred) == list(pred_dict) and list(truth) == list(truth_dict)
    assert all(pred[k].tobytes() == pred_dict[k].tobytes() for k in pred_dict)
    assert all(truth[k].tobytes() == truth_dict[k].tobytes() for k in truth_dict)
    expected = ref.streamed_dense_epe(pred_dict, truth_dict)
    assert dense_epe(pred, truth) == expected
    assert dense_epe(pred_dict, truth_dict) == expected
    old = ref.dense_epe(pred_dict, truth_dict)
    assert abs(expected - old) <= ref.dense_epe_tolerance(pred_dict, truth_dict, old)


def test_evaluate_unknown_metric_is_config_error(workspace):
    root, data, out, _ = workspace
    assert main(["evaluate", "--pred", str(out), "--gt", str(data),
                 "--metrics", "nope"]) == 2


def exit_code(argv) -> int:
    """``main``'s exit code, also where argparse exits on a bad command line."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("flags", [
    ["--epe-stride", "1"],
    ["--rpe-delta", "2"],
    ["--no-align"],
], ids=["stride-gone", "delta-gone", "no-align-gone"])
def test_evaluate_bad_flag_exit_2(workspace, capsys, flags):
    """Every pixel is a seed of the EPE table, the EPE is always aligned
    and RPE pairs consecutive frames, so ``--epe-stride``, ``--rpe-delta``
    and ``--no-align`` are no options at all, whatever their value."""
    root, data, out, _ = workspace
    assert exit_code(["evaluate", "--pred", str(out), "--gt", str(data),
                      "--metrics", "epe,ate,rpe", *flags]) == 2
    assert flags[0] in capsys.readouterr().err


def test_ablation_flag_produces_variants(workspace):
    root, data, out, cfg_path = workspace
    for mode in ("base", "overlap"):
        dest = root / f"fused_{mode}"
        assert main(["fuse", "--chunks", str(data / "chunks"), "--config", str(cfg_path),
                     "--out", str(dest), "--ablation", mode]) == 0
        info = json.loads((dest / "fuse_info.json").read_text())
        assert info["ablation"] == mode
    base_t = json.loads((root / "fused_base" / "transforms.json").read_text())
    for entry in base_t:
        assert entry["scale"] == 1.0
        assert entry["translation"] == [0.0, 0.0, 0.0]


def test_invalid_config_exit_2(workspace):
    root, data, out, _ = workspace
    bad = root / "bad.json"
    bad.write_text(json.dumps({"overlap": 64}))
    code = main(["fuse", "--chunks", str(data / "chunks"), "--config", str(bad),
                 "--out", str(root / "x")])
    assert code == 2


def test_unknown_config_key_exit_2(workspace, capsys):
    root, data, out, _ = workspace
    bad = root / "typo.json"
    # a typo, the fallback tiers' thresholds, constants of ``fusion``, and
    # the knobs that became constants or per-chunk derivations
    for key, value in (("chunk_legnth", 8), ("min_static_anchors", 50),
                       ("min_dynamic_matches", 8), ("static_rms_cap", 0.1),
                       ("gamma_c", 0.5), ("gamma_stat", 0.1), ("gamma_p", 0.2),
                       ("gamma_p_factor", 3.0), ("lambda_traj", 1.0)):
        bad.write_text(json.dumps({key: value}))
        assert main(["fuse", "--chunks", str(data / "chunks"), "--config", str(bad),
                     "--out", str(root / "y")]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"gamma_stat_frac": "0.5"},
    {"gamma_stat_frac": None},
    {"seed_stride": 2.0},
    {"refine_scale": 1},
    {"association_rounds": True},
], ids=["str-for-float", "null-for-float", "float-for-int", "int-for-bool", "bool-for-int"])
def test_config_value_type_exit_2(workspace, config, capsys):
    root, data, out, _ = workspace
    bad = root / "typed.json"
    bad.write_text(json.dumps(config))
    assert main(["fuse", "--chunks", str(data / "chunks"), "--config", str(bad),
                 "--out", str(root / "typed")]) == 2
    assert next(iter(config)) in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"camera": []}', '"x"', "[]"],
                         ids=["camera-not-object", "string", "list"])
def test_bad_scene_spec_exit_2(tmp_path, capsys, text):
    spec = tmp_path / "scene.json"
    spec.write_text(text)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert "bad scene spec" in capsys.readouterr().err


def small_spec_file(tmp_path, seed: int) -> Path:
    path = tmp_path / "scene.json"
    spec = cio.spec_to_dict(gauge_recovery_spec(num_frames=20, grid=10))
    path.write_text(json.dumps({**spec, "seed": seed}))
    return path


@pytest.mark.parametrize("seed_in_spec, flags", [(-1, []), (0, ["--seed", "-1"])],
                         ids=["spec", "flag"])
def test_negative_seed_exit_2(tmp_path, capsys, seed_in_spec, flags):
    """A negative seed is refused before any file is written."""
    spec = small_spec_file(tmp_path, seed=seed_in_spec)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out"), *flags]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generate_writes_the_seed_resolved_spec(tmp_path):
    spec = small_spec_file(tmp_path, 0)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out"), "--seed", "7"]) == 0
    written = cio.load_scene_spec(tmp_path / "out" / "gt" / "scene_spec.json")
    assert written == dataclasses.replace(cio.load_scene_spec(spec), seed=7)


@pytest.mark.parametrize("name, text, metrics", [
    ("fuse_info.json", "{nope", "ate"),
    ("fuse_info.json", "[]", "ate"),
    ("matches.json", "{nope", "assoc"),
    ("matches.json", '{"matches": []}', "assoc"),
    ("matches.json", '[{"chunk_i": 0, "chunk_j": 1, "matches": [], "tracklets_i": []}]', "assoc"),
], ids=["info-not-json", "info-not-object", "matches-not-json", "matches-not-list",
        "junction-without-tracklets_j"])
def test_malformed_sidecar_exit_3(workspace, tmp_path, capsys, name, text, metrics):
    root, data, out, _ = workspace
    broken = tmp_path / "fused"
    shutil.copytree(out, broken)
    (broken / name).write_text(text)
    assert main(["evaluate", "--pred", str(broken), "--gt", str(data), "--metrics", metrics]) == 3
    assert "malformed container" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    ('{"num_frames": 32.5}', "SceneSpec.num_frames"),
    ('{"height": 24.0}', "SceneSpec.height"),
    ('{"background": {"phase": [0.4]}}', "SceneSpec.background.phase"),
    ('{"objects": [{"position": [0, 0]}]}', "SceneSpec.objects[0].position"),
    ('{"objects": [{"trajectory": {"velocity": [1, 2]}}]}',
     "SceneSpec.objects[0].trajectory.velocity"),
    ('{"camera": {"start": [0, 0]}}', "SceneSpec.camera.start"),
    ('{"objects": [{"visible_ranges": [[0]]}]}', "SceneSpec.objects[0].visible_ranges[0]"),
    ('{"objects": [{"size": 0.4}]}', "SceneSpec.objects[0].size"),
    ('{"noise_sigma": NaN}', "SceneSpec.noise_sigma"),
    ('{"objects": [{"visible_ranges": [[5, 2]]}]}', "visible range (5, 2)"),
], ids=["float-frames", "float-height", "short-phase", "short-position", "short-velocity",
        "short-camera-start", "short-visible-range", "scalar-size", "nan-noise",
        "reversed-visible-range"])
def test_ill_typed_scene_spec_exit_2(tmp_path, capsys, text, where):
    spec = tmp_path / "scene.json"
    spec.write_text(text)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad scene spec" in err and where in err


@pytest.mark.parametrize("text, where", [
    ('{"pose_noise": 0.01}', "unknown keys ['pose_noise']"),
    ('{"camera": {"fov_deg": 60.0}}', "unknown keys ['fov_deg']"),
    ('{"camera": {"kind": "random_walk"}}', "unknown camera kind 'random_walk'"),
    ('{"objects": [{"trajectory": {"kind": "piecewise"}}]}', "unknown trajectory kind 'piecewise'"),
], ids=["pose-noise", "fov-deg", "random-walk-camera", "piecewise-trajectory"])
def test_removed_spec_feature_exit_2(tmp_path, capsys, text, where):
    spec = tmp_path / "scene.json"
    spec.write_text(text)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"gamma_stat_frac": NaN}', '{"lambda_sm": NaN}',
                                  '{"traj_cap": Infinity}'],
                         ids=["nan-gamma_stat_frac", "nan-lambda_sm", "inf-traj_cap"])
def test_nonfinite_config_exit_2(workspace, capsys, text):
    root, data, out, _ = workspace
    bad = root / "nonfinite.json"
    bad.write_text(text)
    assert main(["fuse", "--chunks", str(data / "chunks"), "--config", str(bad),
                 "--out", str(root / "nonfinite")]) == 2
    assert f"PipelineConfig.{json.loads(text).popitem()[0]}" in capsys.readouterr().err


def _junctions(matches=(), tracklets_i=([0, 0, 0],), tracklets_j=([0, 0, 0],)) -> str:
    return json.dumps([{"chunk_i": 0, "chunk_j": 1, "matches": list(matches),
                        "tracklets_i": list(tracklets_i), "tracklets_j": list(tracklets_j)}])


def _trajectory_files(index: str, floats: int) -> dict:
    """A trajectory index and a positions sidecar of ``floats`` zeros."""
    return {"trajectories.txt": index, "trajectories.bin": bytes(8 * floats)}


@pytest.mark.parametrize("files, metrics", [
    ({"matches.json": _junctions(tracklets_i=[[0, 1]])}, "assoc"),
    ({"matches.json": _junctions(tracklets_i=[[0, 99, 99]])}, "assoc"),
    ({"matches.json": _junctions(tracklets_j=[[0, -1, -1]])}, "assoc"),
    ({"matches.json": _junctions(tracklets_j=[[0, 1.5, 2]])}, "assoc"),
    ({"matches.json": _junctions(matches=[[0]])}, "assoc"),
    ({"matches.json": _junctions(matches=[[0, 5, 0.1]])}, "assoc"),
    ({"matches.json": _junctions(matches=[[0, 0, math.nan]])}, "assoc"),
    ({"matches.json": _junctions(matches=[[0, 0, "0.1"]])}, "assoc"),
    ({"trajectories_meta.json": "[]"}, "epe"),
    ({"trajectories_meta.json": '{"0": []}'}, "epe"),
    ({"trajectories_meta.json": '{"0": {"sources": [[0, 1, 2.5, 3]]}}'}, "epe"),
    ({"trajectories_meta.json": '{"0": {"sources": [[0, 1, 999, 3]]}}'}, "epe"),
    ({"trajectories_meta.json": '{"0": {"sources": [[0, 1, 3, -1]]}}'}, "epe"),
    (_trajectory_files("0 0.7 1\n", 3), "epe"),
    (_trajectory_files("0 1e0 1\n", 3), "epe"),
    (_trajectory_files("0 -1 1\n", 3), "epe"),
    (_trajectory_files("0 27 2\n", 6), "epe"),
    (_trajectory_files("0 0 -1\n", 0), "epe"),
    (_trajectory_files("0 0\n", 0), "epe"),
    (_trajectory_files("0 0 1 1\n", 3), "epe"),
    (_trajectory_files("0 0 2\n", 5), "epe"),
    (_trajectory_files("0 0 2\n", 7), "epe"),
], ids=["short-tracklet", "tracklet-off-grid", "tracklet-negative-pixel", "tracklet-float-pixel",
        "short-match", "match-unknown-id", "nan-cost", "string-cost", "meta-list",
        "meta-entry-list", "meta-float-pixel", "meta-root-off-grid", "meta-root-negative",
        "fractional-frame", "float-frame", "negative-frame", "frame-past-end", "negative-length",
        "two-tokens", "four-tokens", "sidecar-float-short", "sidecar-float-long"])
def test_malformed_records_exit_3(workspace, tmp_path, capsys, files, metrics):
    root, data, out, _ = workspace
    broken = tmp_path / "fused"
    shutil.copytree(out, broken)
    for name, content in files.items():
        if isinstance(content, bytes):
            (broken / name).write_bytes(content)
        else:
            (broken / name).write_text(content)
    assert main(["evaluate", "--pred", str(broken), "--gt", str(data), "--metrics", metrics]) == 3
    assert "malformed container" in capsys.readouterr().err


@pytest.mark.parametrize("change", ["unlisted", "unindexed"])
def test_meta_must_list_the_indexed_trajectories_exit_3(workspace, tmp_path, capsys, change):
    """A trajectory without its meta entry, or an entry without its
    trajectory, is refused rather than scored without its sources."""
    root, data, out, _ = workspace
    broken = tmp_path / "fused"
    shutil.copytree(out, broken)
    meta = json.loads((broken / "trajectories_meta.json").read_text())
    if change == "unlisted":
        del meta["0"]
    else:
        meta[str(len(meta) + 7)] = meta["0"]
    (broken / "trajectories_meta.json").write_text(json.dumps(meta))
    assert main(["evaluate", "--pred", str(broken), "--gt", str(data), "--metrics", "epe"]) == 3
    assert "malformed container" in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_frames(tmp_path_factory):
    """Ground truth and a fuse output of two frames."""
    root = tmp_path_factory.mktemp("two")
    spec_path, cfg_path = root / "scene.json", root / "config.json"
    spec_path.write_text(json.dumps(cio.spec_to_dict(gauge_recovery_spec(num_frames=2, grid=8))))
    cfg_path.write_text(json.dumps({"chunk_length": 8, "overlap": 4}))
    assert main(["generate", "--spec", str(spec_path), "--out", str(root / "data")]) == 0
    assert main(["fuse", "--chunks", str(root / "data" / "chunks"), "--config", str(cfg_path),
                 "--out", str(root / "out")]) == 0
    return root / "data", root / "out"


@pytest.mark.parametrize("metrics, named", [
    (None, "ate"), ("ate", "ate"), ("rpe", "rpe"), ("epe,rpe", "rpe"),
])
def test_pose_metrics_on_two_frames_exit_2(two_frames, capsys, metrics, named):
    """ATE and RPE align three camera centres or more first."""
    data, out = two_frames
    flags = [] if metrics is None else ["--metrics", metrics]
    assert main(["evaluate", "--pred", str(out), "--gt", str(data), *flags]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {named} needs at least 3 fused frames, got 2\n"


def test_epe_on_two_frames(two_frames, capsys):
    data, out = two_frames
    assert main(["evaluate", "--pred", str(out), "--gt", str(data), "--metrics", "epe"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["epe"] < 5e-4


@pytest.fixture(scope="module")
def small_truth(tmp_path_factory):
    """The ground truth of a 12-frame 8x8 scene."""
    root = tmp_path_factory.mktemp("small")
    spec_path = root / "scene.json"
    spec_path.write_text(json.dumps(cio.spec_to_dict(gauge_recovery_spec(num_frames=12, grid=8))))
    assert main(["generate", "--spec", str(spec_path), "--out", str(root / "data"),
                 "--chunk-length", "8", "--overlap", "4"]) == 0
    return root / "data"


def _bare_prediction(directory: Path, gt, points, confidence) -> Path:
    """A prediction of ``points`` at ``confidence`` with the true poses, as
    a bare container under ``directory``."""
    cio.write_chunk(Chunk(0, 0, points, confidence, tuple(gt.poses)), directory / "fused")
    return directory


@pytest.mark.parametrize("layout", ["coincident", "collinear"])
def test_epe_of_a_degenerate_prediction(small_truth, tmp_path, capsys, layout):
    """Points that all coincide, or lie on one line, fix no rotation or
    scale: the prediction aligns by the translation of its centroid onto
    the truth's, as collinear camera centres do for ATE."""
    gt = cio.read_ground_truth(small_truth / "gt")
    shape = gt.points.shape
    points = np.zeros(shape)
    if layout == "collinear":
        points[..., 0] = np.arange(math.prod(shape[:3])).reshape(shape[:3])
    pred = _bare_prediction(tmp_path, gt, points, np.ones(shape[:3]))
    assert main(["evaluate", "--pred", str(pred), "--gt", str(small_truth), "--metrics", "epe"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    p, g = points.reshape(-1, 3), gt.points.reshape(-1, 3)
    expected = np.linalg.norm(p + (g.mean(axis=0) - p.mean(axis=0)) - g, axis=1).mean()
    assert report["epe"] == pytest.approx(expected, rel=1e-9)


def test_epe_with_no_finite_sample_exit_4(small_truth, tmp_path, capsys):
    """A prediction of holes alone, NaN at confidence 0, leaves nothing to
    align: the EPE is refused, as ``assoc`` is with no junction."""
    gt = cio.read_ground_truth(small_truth / "gt")
    shape = gt.points.shape
    pred = _bare_prediction(tmp_path, gt, np.full(shape, np.nan), np.zeros(shape[:3]))
    assert main(["evaluate", "--pred", str(pred), "--gt", str(small_truth), "--metrics", "epe"]) == 4
    assert capsys.readouterr().err == "error: epe: no finite trajectory samples to compare\n"
    assert not (pred / "metrics.json").exists()


def _blocked_out(tmp_path: Path, where: str):
    """A file holding "kept", and an ``--out`` path that is the file
    (``out``), runs through it (``parent``), or else holds it as its entry
    named ``where``, under the directory ``taken``."""
    if where in ("out", "parent"):
        blocker = tmp_path / "taken"
        dest = blocker if where == "out" else blocker / "out"
    else:
        dest = tmp_path / "taken"
        dest.mkdir()
        blocker = dest / where
    blocker.write_text("kept\n")
    return blocker, dest


def _refused(blocker: Path, dest: Path, capsys):
    """The error names the file, which is kept as it was, alone."""
    assert capsys.readouterr().err == f"error: --out {dest}: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept\n"
    if dest.is_dir():
        assert list(dest.iterdir()) == [blocker]


@pytest.mark.parametrize("where", ["out", "parent", "fused"])
def test_fuse_out_through_a_file_exit_2(workspace, tmp_path, capsys, monkeypatch, where):
    """The path, with the ``fused`` entry the fuse moves into it, is
    refused before the fuse runs."""
    def fuse(*args, **kwargs):
        raise AssertionError("the fuse ran")

    root, data, out, cfg_path = workspace
    monkeypatch.setattr(cli, "fuse_sequence", fuse)
    blocker, dest = _blocked_out(tmp_path, where)
    assert main(["fuse", "--chunks", str(data / "chunks"), "--config", str(cfg_path),
                 "--out", str(dest)]) == 2
    _refused(blocker, dest, capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("where", ["out", "parent", "gt", "chunks"])
def test_generate_out_through_a_file_exit_2(tmp_path, capsys, monkeypatch, where):
    """The path, with the ``gt`` and ``chunks`` entries it makes in it,
    is refused before the oracle runs."""
    def oracle(spec):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cli, "generate", oracle)
    blocker, dest = _blocked_out(tmp_path, where)
    spec = small_spec_file(tmp_path, 0)
    assert main(["generate", "--spec", str(spec), "--out", str(dest)]) == 2
    _refused(blocker, dest, capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.json", "taken"]


@pytest.mark.parametrize("name", cio.TRAJECTORY_FILES)
def test_missing_trajectory_file_exit_3(workspace, tmp_path, capsys, name):
    """A fuse output scored without one of its trajectory files would
    silently lose its stitched trajectories."""
    root, data, out, _ = workspace
    broken = tmp_path / "fused"
    shutil.copytree(out, broken)
    (broken / name).unlink()
    assert main(["evaluate", "--pred", str(broken), "--gt", str(data), "--metrics", "epe"]) == 3
    assert f"no {name}" in capsys.readouterr().err


def test_evaluate_without_trajectory_files(workspace, tmp_path, capsys):
    """Without any trajectory file, EPE scores the fused frames' pixel tracks."""
    root, data, out, _ = workspace
    bare = tmp_path / "fused"
    shutil.copytree(out / "fused", bare / "fused")
    assert main(["evaluate", "--pred", str(bare), "--gt", str(data), "--metrics", "epe"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    table = reference_pred_table(out, cio.read_chunk(out / "fused"), trajectories=False)
    assert report["epe"] == dense_epe(table, cio.read_ground_truth(data / "gt").trajectory_table())


def test_malformed_container_exit_3(workspace, tmp_path):
    root, data, out, cfg_path = workspace
    broken = tmp_path / "chunks"
    shutil.copytree(data / "chunks", broken)
    target = broken / "chunk_0001" / "points.bin"
    target.write_bytes(target.read_bytes()[:-8])
    code = main(["fuse", "--chunks", str(broken), "--config", str(cfg_path),
                 "--out", str(tmp_path / "z")])
    assert code == 3


def _broken_stream_exit_3(chunks: Path, cfg_path: Path, out: Path, capsys, ranges: str):
    for command in (["fuse", "--chunks", str(chunks), "--config", str(cfg_path), "--out", str(out)],
                    ["inspect", "--chunks", str(chunks)]):
        assert main(command) == 3
        assert ranges in capsys.readouterr().err


def _gap_stream(data: Path, tmp_path: Path) -> Path:
    """The workspace's chunks without chunk 1: the fuse fails at its first junction."""
    gap = tmp_path / "chunks"
    shutil.copytree(data / "chunks", gap)
    shutil.rmtree(gap / "chunk_0001")
    return gap


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_chunk_gap_exit_3(workspace, tmp_path, capsys):
    """Without chunk 1, chunks [0, 7] and [8, 15] follow each other."""
    root, data, out, cfg_path = workspace
    _broken_stream_exit_3(_gap_stream(data, tmp_path), cfg_path, tmp_path / "out", capsys,
                          "[0, 7] and [8, 15]")


def test_failed_fuse_leaves_no_output(workspace, tmp_path):
    root, data, out, cfg_path = workspace
    runs = tmp_path / "runs"
    fresh = runs / "out"
    assert main(["fuse", "--chunks", str(_gap_stream(data, tmp_path)), "--config", str(cfg_path),
                 "--out", str(fresh)]) == 3
    assert not (fresh / "fused").exists()
    assert list(runs.iterdir()) == []  # nothing staged is left beside it either


def test_failed_refuse_keeps_earlier_output(workspace, tmp_path):
    root, data, out, cfg_path = workspace
    kept = tmp_path / "out"
    shutil.copytree(out, kept)
    before = _tree_bytes(kept)
    assert (kept / "fused" / "points.bin").is_file()
    assert main(["fuse", "--chunks", str(_gap_stream(data, tmp_path)), "--config", str(cfg_path),
                 "--out", str(kept)]) == 3
    assert _tree_bytes(kept) == before
    assert before["trajectories.bin"] == (out / "trajectories.bin").read_bytes() != b""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chunks", "out"]
    # a successful re-fuse replaces the outputs in place, with the same bytes
    assert main(["fuse", "--chunks", str(data / "chunks"), "--config", str(cfg_path),
                 "--out", str(kept)]) == 0
    assert _tree_bytes(kept) == before


def test_one_frame_overlap_exit_3(workspace, tmp_path, capsys):
    """Chunk 0 of an 8-frame plan next to chunk 1 of a 9-frame one, both
    with a 2-frame overlap: [0, 7] and [7, 15] share one frame."""
    root, data, out, cfg_path = workspace
    stream = tmp_path / "chunks"
    stream.mkdir()
    spec = tmp_path / "scene.json"
    spec.write_text(json.dumps(cio.spec_to_dict(gauge_recovery_spec(num_frames=16, grid=12))))
    for length, name in (("8", "chunk_0000"), ("9", "chunk_0001")):
        run = tmp_path / f"len{length}"
        assert main(["generate", "--spec", str(spec), "--out", str(run),
                     "--chunk-length", length, "--overlap", "2"]) == 0
        shutil.copytree(run / "chunks" / name, stream / name)
    _broken_stream_exit_3(stream, cfg_path, tmp_path / "out", capsys, "[0, 7] and [7, 15]")


def _write_stream(root: Path, shapes) -> Path:
    """A stream of chunks (start frame, frames, height, width) of a static
    plane in front of the camera, one per entry in that order."""
    stream = root / "chunks"
    for k, (start, frames, height, width) in enumerate(shapes):
        plane = np.stack(np.meshgrid(np.linspace(-1, 1, width), np.linspace(-1, 1, height)), -1)
        points = np.broadcast_to(np.concatenate([plane, np.full((height, width, 1), 4.0)], -1),
                                 (frames, height, width, 3))
        cio.write_chunk(make_chunk(points, chunk_id=k, start_frame=start),
                        stream / f"chunk_{k:04d}")
    return stream


def test_mismatched_grids_exit_3(workspace, tmp_path, capsys):
    """An 8x8 chunk followed by an 8x9 one breaks the stream."""
    root, data, out, cfg_path = workspace
    stream = _write_stream(tmp_path, [(0, 8, 8, 8), (4, 8, 8, 9)])
    _broken_stream_exit_3(stream, cfg_path, tmp_path / "out", capsys,
                          "[0, 7] and [4, 11]: chunk grids differ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ablation", ["base", "overlap", "full"])
@pytest.mark.parametrize("shapes, ranges", [
    ([(3, 6, 8, 8), (0, 6, 8, 8)], "[3, 8] and [0, 5]"),
    ([(0, 8, 8, 8), (2, 4, 8, 8)], "[0, 7] and [2, 5]"),
], ids=["starts-before", "nested"])
def test_chunk_that_does_not_advance_exit_3(workspace, tmp_path, capsys, ablation, shapes, ranges):
    """Each chunk of a stream starts and ends after its predecessor, as
    ``plan_chunks`` lays them out; a chunk that does not breaks the stream."""
    root, data, out, cfg_path = workspace
    stream = _write_stream(tmp_path, shapes)
    fresh = tmp_path / "runs" / "out"
    assert main(["fuse", "--chunks", str(stream), "--config", str(cfg_path), "--out", str(fresh),
                 "--ablation", ablation]) == 3
    err = capsys.readouterr().err
    assert "broken chunk stream" in err and ranges in err
    assert not (fresh / "fused").exists()
    assert list((tmp_path / "runs").iterdir()) == []


def test_key_mismatch_exit_4(workspace, tmp_path):
    root, data, out, _ = workspace
    other_spec = tmp_path / "scene.json"
    other_spec.write_text(
        json.dumps(cio.spec_to_dict(gauge_recovery_spec(num_frames=16, grid=12)))
    )
    other = tmp_path / "data"
    assert main(["generate", "--spec", str(other_spec), "--out", str(other),
                 "--chunk-length", "8", "--overlap", "4"]) == 0
    code = main(["evaluate", "--pred", str(out), "--gt", str(other), "--metrics", "ate"])
    assert code == 4
    # same frames on another grid: the matched pixels cannot be looked up
    other_spec.write_text(
        json.dumps(cio.spec_to_dict(gauge_recovery_spec(num_frames=28, grid=10)))
    )
    assert main(["generate", "--spec", str(other_spec), "--out", str(other),
                 "--chunk-length", "8", "--overlap", "4"]) == 0
    code = main(["evaluate", "--pred", str(out), "--gt", str(other), "--metrics", "assoc"])
    assert code == 4


def test_assoc_without_junctions_exit_4(workspace, tmp_path, capsys):
    """An ``overlap`` fuse associates nothing: its empty ``matches.json``
    has no score, as a missing one has none."""
    root, data, out, cfg_path = workspace
    dest = tmp_path / "fused_overlap"
    assert main(["fuse", "--chunks", str(data / "chunks"), "--config", str(cfg_path),
                 "--out", str(dest), "--ablation", "overlap"]) == 0
    assert json.loads((dest / "matches.json").read_text()) == []
    capsys.readouterr()
    assert main(["evaluate", "--pred", str(dest), "--gt", str(data), "--metrics", "assoc"]) == 4
    assert capsys.readouterr().err == \
        f"error: {dest / 'matches.json'} holds no junction (fused with association?)\n"
    assert not (dest / "metrics.json").exists()


def test_evaluate_reads_matches_with_pixels(workspace, tmp_path, capsys):
    """Records of older fuses repeat the pixels of a match after its cost;
    they score as the ``[a, b, cost]`` records of today."""
    root, data, out, _ = workspace
    argv = ["evaluate", "--gt", str(data), "--metrics", "assoc"]
    assert main([*argv, "--pred", str(out)]) == 0
    expected = capsys.readouterr().out
    older = tmp_path / "fused"
    shutil.copytree(out, older)
    junctions = json.loads((out / "matches.json").read_text())
    assert any(junction["matches"] for junction in junctions)
    for junction in junctions:
        assert all(len(m) == 3 for m in junction["matches"])
        pix_i = {t: [r, c] for t, r, c in junction["tracklets_i"]}
        pix_j = {t: [r, c] for t, r, c in junction["tracklets_j"]}
        junction["matches"] = [[a, b, cost, pix_i[a], pix_j[b]] for a, b, cost in junction["matches"]]
    (older / "matches.json").write_text(json.dumps(junctions))
    assert main([*argv, "--pred", str(older)]) == 0
    assert capsys.readouterr().out == expected


def test_object_id_not_an_integer_exit_3(workspace, tmp_path, capsys):
    root, data, out, _ = workspace
    broken = tmp_path / "data"
    shutil.copytree(data / "gt", broken / "gt")
    H, W = cio.read_ground_truth(data / "gt").grid_shape
    ids = np.fromfile(broken / "gt" / "object_ids.bin", dtype="<f4").reshape(H, W)
    ids[0, 1] = np.nan
    ids.tofile(broken / "gt" / "object_ids.bin")
    assert main(["evaluate", "--pred", str(out), "--gt", str(broken), "--metrics", "assoc"]) == 3
    assert "object_ids" in capsys.readouterr().err


def test_missing_pred_dir_exit_3(workspace, tmp_path):
    root, data, out, _ = workspace
    assert main(["evaluate", "--pred", str(tmp_path), "--gt", str(data),
                 "--metrics", "ate"]) == 3


def _drop_height(gt_dir: Path):
    manifest = json.loads((gt_dir / cio.MANIFEST_NAME).read_text())
    del manifest["height"]
    (gt_dir / cio.MANIFEST_NAME).write_text(json.dumps(manifest))


@pytest.mark.parametrize("text, reason", [
    (_junctions(matches=[[0, 0, 0.1, [0, 0], [0, 0]]] * 2), "not one-to-one"),
    (_junctions(matches=[[0, 0, 0.1, [0, 0], [0, 0]], [1, 0, 0.2, [0, 1], [0, 0]]],
                tracklets_i=[[0, 0, 0], [1, 0, 1]]), "not one-to-one"),
    (_junctions(tracklets_i=[[0, 0, 0], [0, 1, 1]]), "repeats in tracklets_i"),
    (_junctions(tracklets_j=[[0, 0, 0], [0, 1, 1]]), "repeats in tracklets_j"),
], ids=["doubled-match", "shared-partner", "repeated-id-i", "repeated-id-j"])
def test_matches_must_be_one_to_one_exit_3(workspace, tmp_path, capsys, text, reason):
    root, data, out, _ = workspace
    broken = tmp_path / "fused"
    shutil.copytree(out, broken)
    (broken / "matches.json").write_text(text)
    assert main(["evaluate", "--pred", str(broken), "--gt", str(data), "--metrics", "assoc"]) == 3
    err = capsys.readouterr().err
    assert "malformed container" in err and "junction 0" in err and reason in err


def _skewed_pose(gt_dir: Path):
    poses = np.fromfile(gt_dir / "poses.bin", dtype="<f4").reshape(-1, 4, 4)
    poses[2, :3, :3] *= 1.5
    poses.tofile(gt_dir / "poses.bin")


@pytest.mark.parametrize("corrupt", [_drop_height, _skewed_pose],
                         ids=["no-height", "pose-not-orthonormal"])
def test_malformed_ground_truth_exit_3(workspace, tmp_path, capsys, corrupt):
    root, data, out, _ = workspace
    broken = tmp_path / "data"
    shutil.copytree(data / "gt", broken / "gt")
    corrupt(broken / "gt")
    assert main(["evaluate", "--pred", str(out), "--gt", str(broken), "--metrics", "ate"]) == 3
    assert "malformed container" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("chunk_id", 0.7),
    ("height", "12"),
    ("end_frame", 27.9),
    ("scene_scale", math.nan),
], ids=["float-chunk_id", "string-height", "float-end_frame", "nan-scene_scale"])
def test_ill_typed_ground_truth_exit_3(workspace, tmp_path, capsys, key, value):
    root, data, out, _ = workspace
    broken = tmp_path / "data"
    shutil.copytree(data / "gt", broken / "gt")
    path = broken / "gt" / cio.MANIFEST_NAME
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    assert main(["evaluate", "--pred", str(out), "--gt", str(broken), "--metrics", "ate"]) == 3
    err = capsys.readouterr().err
    assert "malformed container" in err and key in err


def _set_spec_field(key, value):
    def corrupt(gt_dir: Path):
        path = gt_dir / "scene_spec.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    return corrupt


@pytest.mark.parametrize("corrupt", [
    lambda gt_dir: (gt_dir / "scene_spec.json").write_text("{nope"),
    _set_spec_field("num_frmaes", 3),
    lambda gt_dir: (gt_dir / "scene_spec.json").write_text('{"camera": []}'),
    _set_spec_field("num_frames", 28.0),
    _set_spec_field("camera", {"start": [0, 0]}),
    lambda gt_dir: (gt_dir / "scene_spec.json").unlink(),
], ids=["spec-not-json", "spec-unknown-key", "spec-wrong-type", "spec-float-frames",
        "spec-short-camera-start", "spec-deleted"])
def test_evaluate_reads_no_scene_spec(workspace, tmp_path, capsys, corrupt):
    """Evaluation reads the ground truth's arrays and manifest only: a
    corrupt or deleted ``scene_spec.json`` beside them changes nothing."""
    root, data, out, _ = workspace
    argv = ["evaluate", "--pred", str(out), "--metrics", "epe,ate,rpe,assoc"]
    assert main([*argv, "--gt", str(data)]) == 0
    expected = capsys.readouterr().out
    broken = tmp_path / "data"
    shutil.copytree(data / "gt", broken / "gt")
    corrupt(broken / "gt")
    assert main([*argv, "--gt", str(broken)]) == 0
    assert capsys.readouterr().out == expected


@pytest.fixture(scope="module")
def ablation_workspace(tmp_path_factory):
    """``ablation_spec(0)`` generated and fused by the CLI: association
    there is imperfect, so both levels of the score are below 1."""
    root = tmp_path_factory.mktemp("ablation")
    cfg = ablation_config()
    (root / "scene.json").write_text(json.dumps(cio.spec_to_dict(ablation_spec(0))))
    (root / "config.json").write_text(json.dumps(cfg.to_dict()))
    data, out = root / "data", root / "fused"
    assert main(["generate", "--spec", str(root / "scene.json"), "--out", str(data),
                 "--chunk-length", str(cfg.chunk_length), "--overlap", str(cfg.overlap)]) == 0
    assert main(["fuse", "--chunks", str(data / "chunks"), "--config", str(root / "config.json"),
                 "--out", str(out)]) == 0
    return data, out


def test_evaluate_assoc_levels(ablation_workspace, capsys, monkeypatch):
    data, out = ablation_workspace
    assert main(["evaluate", "--pred", str(out), "--gt", str(data), "--metrics", "assoc"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert json.loads((out / "metrics.json").read_text()) == report
    junctions = json.loads((out / "matches.json").read_text())

    point = (report["assoc_precision"], report["assoc_recall"], report["assoc_f1"])
    assert point == ref.same_pixel_prf(junctions)
    assert max(point) < 1.0

    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    harness = importlib.import_module("harness")
    gt = cio.read_ground_truth(data / "gt")
    obj = (report["assoc_obj_precision"], report["assoc_obj_recall"])
    assert obj == harness.pooled_object_prf(junctions, gt.object_ids)
    assert report["assoc_obj_recall"] < 1.0
