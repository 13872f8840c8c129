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
from chunkfuse import io as cio
from chunkfuse.cli import main
from chunkfuse.metrics import build_fused_table, dense_epe
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


@pytest.mark.parametrize("flag", [None, "--no-align"])
def test_evaluate_epe_matches_reference_table(workspace, capsys, flag):
    root, data, out, _ = workspace
    flags = [] if flag is None else [flag]
    assert main(["evaluate", "--pred", str(out), "--gt", str(data), "--metrics", "epe", *flags]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    fused = cio.read_chunk(out / "fused")
    table = reference_pred_table(out, fused)
    # stitched trajectories override some pixel tracks, so the override is exercised
    plain = reference_pred_table(out, fused, trajectories=False)
    assert any(not np.array_equal(table[k], plain[k]) for k in table)
    gt = cio.read_ground_truth(data / "gt")
    assert report["epe"] == dense_epe(table, gt.trajectory_table(), align=flag is None)


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
    for align in (True, False):
        expected = ref.streamed_dense_epe(pred_dict, truth_dict, align=align)
        assert dense_epe(pred, truth, align=align) == expected
        assert dense_epe(pred_dict, truth_dict, align=align) == expected
        old = ref.dense_epe(pred_dict, truth_dict, align=align)
        assert abs(expected - old) <= ref.dense_epe_tolerance(pred_dict, truth_dict, align, old)


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
    ["--epe-stride", "0"],
    ["--epe-stride", "-1"],
    ["--epe-stride", "1"],
    ["--rpe-delta", "0"],
    ["--rpe-delta", "28"],
    ["--rpe-delta", "50"],
], ids=["stride-0", "stride-negative", "stride-gone", "delta-0", "delta-frames", "delta-past-frames"])
def test_evaluate_bad_flag_exit_2(workspace, capsys, flags):
    """The workspace's fused scene has 28 frames. Every pixel is a seed of
    the EPE table, so ``--epe-stride`` is no option at all."""
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
    ({"matches.json": _junctions(matches=[[0, 5, 0.1, [0, 0], [0, 0]]])}, "assoc"),
    ({"matches.json": _junctions(matches=[[0, 0, math.nan, [0, 0], [0, 0]]])}, "assoc"),
    ({"matches.json": _junctions(matches=[[0, 0, "0.1", [0, 0], [0, 0]]])}, "assoc"),
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


@pytest.mark.parametrize("where", ["out", "parent"])
def test_fuse_out_through_a_file_exit_2(workspace, tmp_path, capsys, where):
    root, data, out, cfg_path = workspace
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    dest = blocker if where == "out" else blocker / "out"
    assert main(["fuse", "--chunks", str(data / "chunks"), "--config", str(cfg_path),
                 "--out", str(dest)]) == 2
    assert capsys.readouterr().err == f"error: --out {dest}: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


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


def test_missing_pred_dir_exit_3(workspace, tmp_path):
    root, data, out, _ = workspace
    assert main(["evaluate", "--pred", str(tmp_path), "--gt", str(data),
                 "--metrics", "ate"]) == 3


def _drop_height(gt_dir: Path):
    manifest = json.loads((gt_dir / cio.MANIFEST_NAME).read_text())
    del manifest["height"]
    (gt_dir / cio.MANIFEST_NAME).write_text(json.dumps(manifest))


def _unknown_spec_key(gt_dir: Path):
    spec = json.loads((gt_dir / "scene_spec.json").read_text())
    spec["num_frmaes"] = 3
    (gt_dir / "scene_spec.json").write_text(json.dumps(spec))


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


@pytest.mark.parametrize("corrupt", [
    _drop_height,
    lambda gt_dir: (gt_dir / "scene_spec.json").write_text("{nope"),
    _unknown_spec_key,
    lambda gt_dir: (gt_dir / "scene_spec.json").write_text('{"camera": []}'),
    _skewed_pose,
], ids=["no-height", "spec-not-json", "spec-unknown-key", "spec-wrong-type",
        "pose-not-orthonormal"])
def test_malformed_ground_truth_exit_3(workspace, tmp_path, capsys, corrupt):
    root, data, out, _ = workspace
    broken = tmp_path / "data"
    shutil.copytree(data / "gt", broken / "gt")
    corrupt(broken / "gt")
    assert main(["evaluate", "--pred", str(out), "--gt", str(broken), "--metrics", "ate"]) == 3
    assert "malformed container" in capsys.readouterr().err


@pytest.mark.parametrize("name, key, value", [
    ("scene_spec.json", "num_frames", 28.0),
    ("scene_spec.json", "camera", {"start": [0, 0]}),
    (cio.MANIFEST_NAME, "chunk_id", 0.7),
    (cio.MANIFEST_NAME, "height", "12"),
    (cio.MANIFEST_NAME, "end_frame", 27.9),
    (cio.MANIFEST_NAME, "scene_scale", math.nan),
], ids=["spec-float-frames", "spec-short-camera-start", "float-chunk_id", "string-height",
        "float-end_frame", "nan-scene_scale"])
def test_ill_typed_ground_truth_exit_3(workspace, tmp_path, capsys, name, key, value):
    root, data, out, _ = workspace
    broken = tmp_path / "data"
    shutil.copytree(data / "gt", broken / "gt")
    path = broken / "gt" / name
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    assert main(["evaluate", "--pred", str(out), "--gt", str(broken), "--metrics", "ate"]) == 3
    err = capsys.readouterr().err
    assert "malformed container" in err and key in err


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
