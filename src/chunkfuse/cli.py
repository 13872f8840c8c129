"""Command-line surface: generate, fuse, evaluate, inspect.

``generate`` writes the ground-truth container and the seed-resolved
``scene_spec.json`` under ``gt/``, and the chunk containers and their
true gauges under ``chunks/``.

``evaluate`` prints a table and one JSON line, and writes the JSON to
``metrics.json`` next to the fused container. Its keys are ``variant``
(the ablation of the fuse, from ``fuse_info.json``, else ``pred``) and
those of the metrics asked for:

- ``epe``: the dense tracking end-point error after one global Sim(3)
  alignment of the predicted tracks onto the true ones;
- ``ate``: the RMS camera-centre error after a Sim(3) alignment of the
  camera centres;
- ``rpe_trans``, ``rpe_rot``: the relative pose error over consecutive
  frames, after that alignment, in scene units and degrees;
- with ``assoc`` in ``--metrics``, the matches of ``matches.json`` scored
  against the ground truth at two levels, counts pooled over all junctions:

  - point level, ``assoc_precision``, ``assoc_recall``, ``assoc_f1``: a
    match is correct when both tracklets are seeded at the same pixel,
    which under the oracle's binding is the same surface point;
  - object level, ``assoc_obj_precision``, ``assoc_obj_recall``,
    ``assoc_obj_f1``: a match is correct when both seed pixels carry the
    same ground-truth object id.

``fuse`` writes its outputs beside ``--out`` and moves them in only when
the fuse succeeds, so a failed fuse leaves an earlier output as it was.

``inspect`` prints, for each overlap of the previous chunk i and the next
chunk j, the sizes of its static and dynamic sets, the rigidity threshold
``gamma_stat`` resolved in each chunk, chunk i's scene scale, and the
scale j -> i the camera tier takes (``fusion.camera_scale``).

Exit codes: 0 success; 2 invalid config, scene spec or flag (among them a
negative seed, and a ``generate`` or ``fuse`` ``--out`` on a path through
a file or whose ``gt``, ``chunks`` or ``fused`` entry is a file, all
refused before any work is done, and ATE or RPE on fewer than 3 fused
frames, which their alignment needs); 3 malformed container (among them
ground truth with an object id that is not an integer >= -1), or a broken
chunk stream (see ``NoOverlap``: a missing chunk, a one-frame overlap,
another grid, or a chunk that does not advance); 4 evaluation key mismatch
(among them ``assoc`` on a ``matches.json`` that is missing or holds no
junction, as after a ``base`` or ``overlap`` fuse or of one chunk, and
``epe`` on fewer than 3 samples finite in both the prediction and the
ground truth). A prediction whose samples are collinear or coincident
aligns by translation, and scores.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import io as cio
from .chunking import slice_overlap
from .errors import (
    InvalidConfig,
    InvalidSpec,
    KeyMismatch,
    MalformedContainer,
    NoOverlap,
    NotEnoughPoints,
)
from .fusion import ABLATION_MODES, camera_scale, fuse_sequence
from .metrics import (
    align_trajectories,
    ate,
    build_fused_table,
    dense_epe,
    format_metrics_table,
    junction_prf,
    rpe,
)
from .model import PipelineConfig
from .registration import select_anchors
from .synthetic import emit_chunks, generate


def _out_dir(path: str, *entries: str) -> Path:
    """``--out`` as a path; InvalidConfig when it, a parent or one of the
    ``entries`` the command makes in it is a file."""
    out = Path(path)
    for d in (out, *out.parents, *(out / e for e in entries)):
        if d.exists() and not d.is_dir():
            raise InvalidConfig(f"--out {out}: {d} is not a directory")
    return out


def _cmd_generate(args) -> int:
    spec = cio.load_scene_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    cfg = PipelineConfig(chunk_length=args.chunk_length, overlap=args.overlap)
    out = _out_dir(args.out, "gt", "chunks")
    gt = generate(spec)
    cio.write_ground_truth(gt, out / "gt")
    cio.write_json(out / "gt" / "scene_spec.json", cio.spec_to_dict(spec))
    emitted = emit_chunks(gt, cfg, spec)
    chunk_root = out / "chunks"
    chunk_root.mkdir(parents=True, exist_ok=True)
    count = 0
    for chunk in emitted.chunks:
        cio.write_chunk(chunk, chunk_root / f"chunk_{chunk.chunk_id:04d}")
        count += 1
    cio.write_gauges(emitted.gauges, chunk_root / "gauges.json")
    print(f"wrote ground truth ({gt.num_frames} frames) and {count} chunks to {out}")
    return 0


def _move_into(src: Path, dst: Path) -> None:
    """Move every entry of ``src`` into ``dst``, replacing what it names there."""
    dst.mkdir(exist_ok=True)
    for entry in src.iterdir():
        target = dst / entry.name
        if target.is_dir():
            shutil.rmtree(target)
        os.replace(entry, target)


def _cmd_fuse(args) -> int:
    cfg = cio.load_pipeline_config(args.config)
    out = _out_dir(args.out, "fused")
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=out.parent))
    try:
        with cio.StreamingFrameWriter(staging / "fused") as writer:
            fused = fuse_sequence(cio.iter_chunks(args.chunks), cfg, ablation=args.ablation,
                                  frame_sink=writer)
            writer.finish()
        cio.write_fusion_outputs(fused, staging)
        cio.write_json(staging / "fuse_info.json", {"ablation": args.ablation, "config": cfg.to_dict()})
        _move_into(staging, out)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    tiers = ",".join(r.tier for r in fused.reports) or "-"
    print(
        f"fused {fused.num_frames} frames across {len(fused.chunk_transforms)} chunks "
        f"({len(fused.trajectories)} trajectories; tiers: {tiers})"
    )
    return 0


def _resolve_container(path: Path, sub: str) -> Path:
    """``path`` if it is a container, else its ``sub`` container."""
    for d in (path, path / sub):
        if (d / cio.MANIFEST_NAME).is_file():
            return d
    raise MalformedContainer(f"no container under {path} or {path / sub}")


def _cmd_evaluate(args) -> int:
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = set(wanted) - {"epe", "ate", "rpe", "assoc"}
    if unknown:
        raise InvalidConfig(f"unknown metrics: {sorted(unknown)}")
    pred_dir = _resolve_container(Path(args.pred), "fused")
    gt_dir = _resolve_container(Path(args.gt), "gt")
    fused = cio.read_chunk(pred_dir)
    gt = cio.read_ground_truth(gt_dir)

    if len(fused.frames) != gt.num_frames:
        raise KeyMismatch(
            f"prediction covers {len(fused.frames)} frames but ground truth has {gt.num_frames}"
        )

    info_path = pred_dir.parent / "fuse_info.json"
    variant = "pred"
    if info_path.is_file():
        variant = cio.read_json(info_path).get("ablation", "pred")

    for metric in ("ate", "rpe"):
        # both align the camera centres first, which takes three of them
        if metric in wanted and len(fused.frames) < 3:
            raise InvalidConfig(f"{metric} needs at least 3 fused frames, got {len(fused.frames)}")

    result: dict[str, object] = {"variant": variant}
    pred_poses = fused.poses
    if "ate" in wanted:
        result["ate"] = ate(pred_poses, gt.poses)
    if "rpe" in wanted:
        # aligning away the monocular gauge first keeps RPE scale-free
        T = align_trajectories(pred_poses, gt.poses)
        result["rpe_trans"], result["rpe_rot"] = rpe(T.apply_poses(pred_poses), gt.poses)
    if "epe" in wanted:
        out_dir = pred_dir.parent
        # a bare chunk container has no trajectory files; a fuse output has all
        missing = [name for name in cio.TRAJECTORY_FILES if not (out_dir / name).is_file()]
        if missing and len(missing) < len(cio.TRAJECTORY_FILES):
            raise MalformedContainer(f"{out_dir} has trajectory files but no {', '.join(missing)}")
        trajectories = [] if missing else cio.read_fused_trajectories(out_dir, len(fused.frames),
                                                                      fused.grid_shape)
        pred_table = build_fused_table(SimpleNamespace(frames=fused.frames, trajectories=trajectories))
        try:
            result["epe"] = dense_epe(pred_table, gt.trajectory_table())
        except NotEnoughPoints as e:
            # fewer than 3 samples finite in both tables: nothing to align
            raise KeyMismatch(f"epe: {e}") from None
    if "assoc" in wanted:
        matches_path = pred_dir.parent / "matches.json"
        if not matches_path.is_file():
            raise KeyMismatch(f"no matches.json under {pred_dir.parent} (fused with association?)")
        if fused.grid_shape != gt.grid_shape:
            raise KeyMismatch(f"prediction grid {fused.grid_shape} but ground truth has {gt.grid_shape}")
        junctions = cio.read_matches(matches_path, gt.grid_shape)
        if not junctions:
            # a base or overlap fuse, or one chunk: no association to score
            raise KeyMismatch(f"{matches_path} holds no junction (fused with association?)")
        H, W = gt.grid_shape
        # point level: generate binds each pixel to one surface point, so a
        # pixel identifies its point
        levels = {"assoc": np.arange(H * W).reshape(H, W), "assoc_obj": gt.object_ids}
        for prefix, labels in levels.items():
            p, r, f1 = junction_prf(junctions, labels)
            result.update({f"{prefix}_precision": p, f"{prefix}_recall": r, f"{prefix}_f1": f1})

    print(format_metrics_table([result]))
    print(json.dumps(result))
    cio.write_json(pred_dir.parent / "metrics.json", result)
    return 0


def _cmd_inspect(args) -> int:
    cfg = cio.load_pipeline_config(args.config) if args.config else PipelineConfig()
    dirs = cio.chunk_dirs(args.chunks)
    prev = None
    for d in dirs:
        chunk = cio.read_chunk(d)
        H, W = chunk.grid_shape
        line = (
            f"chunk {chunk.chunk_id}: frames [{chunk.start_frame}, {chunk.end_frame}] "
            f"({len(chunk.frames)} frames, {H}x{W})"
        )
        if prev is not None:
            overlap = slice_overlap(prev, chunk)
            abstraction = select_anchors(overlap, cfg)
            line += (
                f"; overlap with previous: {len(overlap)} frames, "
                f"{abstraction.num_static} static anchors, {abstraction.num_dynamic} dynamic supports, "
                f"gamma_stat i/j {abstraction.gamma_stat:.6g}/{abstraction.gamma_stat_j:.6g}, "
                f"scene scale i {abstraction.scene_scale:.6g}, "
                f"camera scale j->i {camera_scale(abstraction):.6g}"
            )
        print(line)
        prev = chunk
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chunkfuse",
        description="Cross-chunk registration, association, and fusion for chunked 4D scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize ground truth and a chunk stream")
    g.add_argument("--spec", required=True, help="scene spec JSON")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, default=None, help="override the spec's rng seed")
    g.add_argument("--chunk-length", type=int, default=16)
    g.add_argument("--overlap", type=int, default=4)
    g.set_defaults(func=_cmd_generate)

    f = sub.add_parser("fuse", help="register, associate, and fuse a chunk stream")
    f.add_argument("--chunks", required=True, help="directory of chunk containers")
    f.add_argument("--config", required=True, help="pipeline config JSON")
    f.add_argument("--out", required=True, help="output directory")
    f.add_argument("--ablation", choices=ABLATION_MODES, default="full")
    f.set_defaults(func=_cmd_fuse)

    e = sub.add_parser("evaluate", help="score a fused scene against ground truth")
    e.add_argument("--pred", required=True, help="fuse output directory")
    e.add_argument("--gt", required=True, help="generate output directory")
    e.add_argument("--metrics", default="epe,ate,rpe", help="comma list: epe,ate,rpe,assoc")
    e.set_defaults(func=_cmd_evaluate)

    i = sub.add_parser("inspect", help="summarize chunk containers and overlap abstractions")
    i.add_argument("--chunks", required=True)
    i.add_argument("--config", default=None)
    i.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, InvalidSpec) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MalformedContainer as e:
        print(f"error: malformed container: {e}", file=sys.stderr)
        return 3
    except NoOverlap as e:
        print(f"error: broken chunk stream: {e}", file=sys.stderr)
        return 3
    except KeyMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
