"""One benchmark run: set up a workload, fuse it, score it, check it.

The path timed is the one the ``chunkfuse`` CLI runs: ``generate``
(oracle, chunk emission, containers), then ``fuse`` (``io.iter_chunks`` ->
``fusion.fuse_sequence`` with an ``io.StreamingFrameWriter`` sink ->
``io.write_fusion_outputs``), then an evaluation that reads the outputs
back and scores them with ``chunkfuse.metrics``.

An untraced run reports the end-to-end metrics. A traced run reports the
per-layer metrics: it times the library from outside, by wrapping the
functions ``fuse_sequence`` calls through the ``chunkfuse.fusion``
namespace, and by spans around the calls the benchmark makes itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from chunkfuse import fusion, io, metrics, synthetic
from chunkfuse.association import MatchSet

from spans import NO_TRACE, Tracer, installed_wrappers

ABLATIONS = ("base", "overlap", "full")
MIN_SETUPS = 3  # a small panel sets its scenes up again to reach this many
OUTPUT_FILES = ("transforms.json", "report.json", "matches.json")
TRACED_MODULES = (fusion,)  # the modules whose attributes the traced run wraps

# Quality metric -> (ablation, key of ``evaluate``'s result, unit). Scene
# coordinates are in world units, read as metres.
QUALITY = {
    "epe_base": ("base", "epe", "m"),
    "epe_overlap": ("overlap", "epe", "m"),
    "epe_full": ("full", "epe", "m"),
    "epe_dyn_full": ("full", "epe_dyn", "m"),
    "ate_overlap": ("overlap", "ate", "m"),
    "ate_full": ("full", "ate", "m"),
    "rpe_trans_full": ("full", "rpe_trans", "m"),
    "rpe_rot_full": ("full", "rpe_rot", "deg"),
    "assoc_obj_precision": ("full", "assoc_precision", "ratio"),
    "assoc_obj_recall": ("full", "assoc_recall", "ratio"),
}
# Quality metrics steady enough from seed to seed to carry a bound; each is
# the median over the run's panel. The others depend on the random chunk
# gauges of a scene far more than on the program, so they are reported
# per layer as ``quality.*``, for the panel's first scene.
BOUNDED_QUALITY = ("epe_overlap", "epe_full", "epe_dyn_full",
                   "assoc_obj_precision", "assoc_obj_recall")

END_TO_END = {
    "setup_s": "s",
    "fuse_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    **{name: QUALITY[name][2] for name in BOUNDED_QUALITY},
}


def _count_anchors(tr, args, result):
    tr.counts["registration.static_anchors"] += result.num_static
    tr.counts["registration.dynamic_supports"] += result.num_dynamic


def _count_tracklets(tr, args, result):
    tr.counts["association.tracklets"] += len(result)


def _count_candidates(tr, args, result):
    tr.counts["association.candidates"] += len(result)
    tr.counts["association.gated_tracklets"] += len(args[0])


def _count_costs(tr, args, result):
    tr.counts["association.costs_kept"] += result is not None


def _count_matches(tr, args, result):
    tr.counts["association.matches"] += len(result)


# The names ``fuse_sequence`` resolves in its own module, with their span
# and the counter hook run on each result.
FUSION_CALLS = (
    ("slice_overlap", "chunking.slice_overlap", None),
    ("select_anchors", "registration.select_anchors", _count_anchors),
    ("register_pair", "registration.register_pair", None),
    ("build_tracklets", "association.build_tracklets", _count_tracklets),
    ("gate_candidates", "association.gate_candidates", _count_candidates),
    ("pair_cost", "association.pair_cost", _count_costs),
    ("assign", "association.assign", _count_matches),
    ("refine_transform", "fusion.refine_transform", None),
    ("choose_transform", "fusion.choose_transform", None),
    ("pose_only_transform", "fusion.pose_only_transform", None),
    ("reconstruct_boundary", "fusion.reconstruct_boundary", None),
)

# Span totals reported as per-layer self times, in seconds: those of a
# setup, then those of a full fuse and its evaluation.
SETUP_SPANS = ("synthetic.generate", "synthetic.emit", "io.write_containers")
RUN_SPANS = (
    "io.read_chunks",
    "io.frame_sink",
    "io.write_outputs",
    "io.read_fused",
    "io.read_gt",
) + tuple(span for _, span, _ in FUSION_CALLS) + (
    "metrics.build_fused_table",
    "metrics.dense_epe",
    "metrics.ate",
    "metrics.rpe",
    "metrics.object_prf",
)

PER_LAYER = {f"{name}_s": "s" for name in SETUP_SPANS + RUN_SPANS}
PER_LAYER.update({
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "registration.static_anchors": "count",
    "registration.dynamic_supports": "count",
    "association.tracklets": "count",
    "association.candidates": "count",
    "association.pair_cost_calls": "count",
    "association.costs_kept": "count",
    "association.matches": "count",
    "association.candidates_per_tracklet": "ratio",
    "association.cost_accept_ratio": "ratio",
    "association.match_yield": "ratio",
    "fusion.self_s": "s",
    "fusion.junction_ms_p50": "ms",
    "fusion.reconstruct_boundary_calls": "count",
    "fusion.trajectories": "count",
    "fusion.tier_refined": "count",
    "fusion.tier_static": "count",
    "fusion.tier_pose": "count",
    "trace.overhead_s": "s",
})
PER_LAYER.update({
    f"quality.{name}": unit for name, (_, _, unit) in QUALITY.items() if name not in BOUNDED_QUALITY
})


class InvalidOutput(Exception):
    """The program produced output that fails a validity check."""


@dataclass
class Tally:
    """Operations attempted and failed, and every failed check."""

    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def attempt(self, what: str, fn, *args):
        """``fn(*args)``, or None when it raises: a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except InvalidOutput as e:
            self.problems.append(f"{what}: {e}")
            return None
        except Exception as e:  # the run goes on with the next operation
            self.failed += 1
            self.failures[f"{what}: {type(e).__name__}"] += 1
            traceback.print_exc(file=sys.stderr)
            return None


# ---------------------------------------------------------------------------
# The three steps of the CLI path


def setup(spec, cfg, root: Path, tr=NO_TRACE) -> None:
    """What ``chunkfuse generate`` does: ground truth plus chunk containers."""
    with tr.span("synthetic.generate"):
        gt = synthetic.generate(spec)
    with tr.span("io.write_containers"):
        io.write_ground_truth(gt, root / "gt")
    with tr.span("synthetic.emit"):
        emitted = synthetic.emit_chunks(gt, cfg, spec)
    chunk_root = root / "chunks"
    chunk_root.mkdir(parents=True, exist_ok=True)
    for chunk in tr.iterate("synthetic.emit", emitted.chunks):
        with tr.span("io.write_containers"):
            io.write_chunk(chunk, chunk_root / f"chunk_{chunk.chunk_id:04d}")
    with tr.span("io.write_containers"):
        io.write_gauges(emitted.gauges, chunk_root / "gauges.json")


def fuse(cfg, chunk_root: Path, out: Path, ablation: str, tr=NO_TRACE):
    """What ``chunkfuse fuse`` does; returns the fused scene."""
    writer = io.StreamingFrameWriter(out / "fused")
    with tr.span("fusion.fuse_sequence"):
        fused = fusion.fuse_sequence(
            tr.iterate("io.read_chunks", io.iter_chunks(chunk_root)),
            cfg,
            ablation=ablation,
            frame_sink=tr.wrap("io.frame_sink", writer),
        )
    with tr.span("io.write_outputs"):
        writer.finish()
        io.write_fusion_outputs(fused, out)
    return fused


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        h.update((out / name).read_bytes())
    return h.hexdigest()


def check_valid(pred, transforms, records, num_frames: int) -> None:
    if len(pred.frames) != num_frames:
        raise InvalidOutput(f"fused {len(pred.frames)} frames, ground truth has {num_frames}")
    for fp in pred.frames:
        if not np.isfinite(fp.pose.matrix()).all():
            raise InvalidOutput(f"frame {fp.frame_index}: pose is not finite")
    for k, t in enumerate(transforms):
        if not np.isfinite([t["scale"], *t["rotation"], *t["translation"]]).all():
            raise InvalidOutput(f"chunk transform {k} is not finite")
    for tid, frames, _ in records:
        if len(frames) and (frames.min() < 0 or frames.max() >= num_frames):
            raise InvalidOutput(f"trajectory {tid} has frames outside [0, {num_frames})")


def pooled_object_prf(dumps: list, object_ids) -> tuple[float, float]:
    """Object-level precision and recall with counts pooled over junctions.

    Tracklet ids are offset per junction and labels carry the junction, so
    one ``object_level_prf`` call sums the per-junction counts.
    """
    matches, labels_i, labels_j = [], {}, {}
    off_i = off_j = 0
    for k, pair in enumerate(dumps):
        for tid, r, c in pair["tracklets_i"]:
            labels_i[off_i + tid] = (k, int(object_ids[r, c]))
        for tid, r, c in pair["tracklets_j"]:
            labels_j[off_j + tid] = (k, int(object_ids[r, c]))
        matches += [(off_i + m[0], off_j + m[1], m[2]) for m in pair["matches"]]
        off_i += len(pair["tracklets_i"])
        off_j += len(pair["tracklets_j"])
    precision, recall, _ = metrics.object_level_prf(
        MatchSet(tuple(matches), (), ()), labels_i, labels_j
    )
    return precision, recall


def evaluate(out: Path, gt_dir: Path, tr=NO_TRACE) -> dict:
    """What ``chunkfuse evaluate`` does, with every quality metric."""
    with tr.span("io.read_fused"):
        pred = io.read_chunk(out / "fused")
        transforms = json.loads((out / "transforms.json").read_text())
        records = io.read_trajectories(out / "trajectories.txt")
        meta = json.loads((out / "trajectories_meta.json").read_text())
        dumps = json.loads((out / "matches.json").read_text())
    with tr.span("io.read_gt"):
        gt = io.read_ground_truth(gt_dir)
    check_valid(pred, transforms, records, gt.num_frames)

    trajectories = [
        fusion.Trajectory(
            trajectory_id=tid,
            frames=tuple(int(f) for f in frames),
            positions=positions,
            sources=tuple((c, t, (r, col)) for c, t, r, col in meta[str(tid)]["sources"]),
        )
        for tid, frames, positions in records
    ]
    gt_table = gt.trajectory_table()
    with tr.span("metrics.build_fused_table"):
        table = metrics.build_fused_table(SimpleNamespace(frames=pred.frames, trajectories=trajectories))
    with tr.span("metrics.dense_epe"):
        epe = metrics.dense_epe(table, gt_table)
        dyn = [k for k in gt_table if gt.object_ids[k] >= 0]
        epe_dyn = metrics.dense_epe({k: table[k] for k in dyn}, {k: gt_table[k] for k in dyn})
    poses = [fp.pose for fp in pred.frames]
    with tr.span("metrics.ate"):
        ate = metrics.ate(poses, gt.poses)
    with tr.span("metrics.rpe"):
        # aligning away the monocular gauge first keeps RPE scale-free, as the CLI does
        T = metrics.align_trajectories(poses, gt.poses)
        rpe_trans, rpe_rot = metrics.rpe([T.apply_pose(p) for p in poses], gt.poses, delta=1)
    quality = {"epe": epe, "epe_dyn": epe_dyn, "ate": ate, "rpe_trans": rpe_trans, "rpe_rot": rpe_rot}
    if dumps:
        with tr.span("metrics.object_prf"):
            quality["assoc_precision"], quality["assoc_recall"] = pooled_object_prf(
                dumps, gt.object_ids
            )
    return quality


# ---------------------------------------------------------------------------
# Runs


def _median(values):
    return statistics.median(values) if values else None


class Scene:
    """One scene of a run's panel, in a directory of its own."""

    def __init__(self, seed: int, spec, work: Path):
        self.seed, self.spec, self.work = seed, spec, work
        self.chunk_root = work / "chunks"
        self.gt_dir = work / "gt"

    def out(self, ablation: str) -> Path:
        return self.work / f"out_{ablation}"


class Bench:
    """One run of one workload: a panel of scenes, set up at least
    ``MIN_SETUPS`` times in all, then fused and evaluated under every
    ablation, pass after pass, while another pass fits before the deadline."""

    def __init__(self, scenes: list[tuple[int, object]], cfg, work: Path, deadline: float):
        self.scenes = [Scene(seed, spec, work / f"scene_{seed}") for seed, spec in scenes]
        self.cfg = cfg
        self.deadline = deadline  # a time.perf_counter() reading
        self.tally = Tally()
        self.digests: dict[int, dict[str, str]] = {}
        self.quality: dict[int, dict[str, dict]] = {}
        self.passes = 0
        self.samples: dict = {}

    def _time_left(self, step_s: float) -> bool:
        return time.perf_counter() + step_s <= self.deadline

    def _check_repeat(self, scene: Scene, ablation: str, quality: dict | None) -> None:
        """Outputs must be bit-identical across the repetitions of a run."""
        d = digest(scene.out(ablation))
        if self.digests.setdefault(scene.seed, {}).setdefault(ablation, d) != d:
            self.tally.problems.append(f"scene {scene.seed} {ablation}: output digest changed")
        known = self.quality.setdefault(scene.seed, {})
        if quality is not None and known.setdefault(ablation, quality) != quality:
            self.tally.problems.append(f"scene {scene.seed} {ablation}: quality changed")

    def fuse_and_evaluate(self, scene: Scene, ablation: str, tr=NO_TRACE):
        """Timed fuse then timed evaluate; a failure is tallied, not raised.

        Returns (fuse seconds, evaluate seconds, fused scene), with None
        for what did not complete.
        """
        t0 = time.perf_counter()
        fused = self.tally.attempt(f"fuse {ablation}", fuse, self.cfg, scene.chunk_root,
                                   scene.out(ablation), ablation, tr)
        fuse_s = time.perf_counter() - t0
        if fused is None:
            return None, None, None
        t0 = time.perf_counter()
        quality = self.tally.attempt(f"evaluate {ablation}", evaluate, scene.out(ablation),
                                     scene.gt_dir, tr)
        evaluate_s = time.perf_counter() - t0
        self._check_repeat(scene, ablation, quality)
        return fuse_s, (evaluate_s if quality is not None else None), fused

    def _check_no_wrappers(self, when: str) -> None:
        leaked = installed_wrappers(TRACED_MODULES)
        if leaked:
            self.tally.problems.append(f"{when}: span wrappers installed: {leaked}")

    # -- untraced: end-to-end metrics ---------------------------------------

    def end_to_end(self) -> dict:
        self._check_no_wrappers("untraced run")
        setup_s = []
        for scene in self.scenes * math.ceil(MIN_SETUPS / len(self.scenes)):
            t0 = time.perf_counter()
            setup(scene.spec, self.cfg, scene.work)
            setup_s.append(time.perf_counter() - t0)
        fuse_s = {scene.seed: [] for scene in self.scenes}
        evaluate_s = {scene.seed: [] for scene in self.scenes}
        while True:
            t0 = time.perf_counter()
            for scene in self.scenes:
                for ablation in ABLATIONS:
                    f, e, _ = self.fuse_and_evaluate(scene, ablation)
                    if ablation == "full" and e is not None:
                        fuse_s[scene.seed].append(f)
                        evaluate_s[scene.seed].append(e)
            self.passes += 1
            if not self._time_left(time.perf_counter() - t0):
                break
        self._check_no_wrappers("untraced run")
        self.samples = {"setup_s": setup_s, "fuse_s": fuse_s, "evaluate_s": evaluate_s}

        values = {
            "setup_s": _median(setup_s),
            "fuse_s": _scene_mean(fuse_s),
            "evaluate_s": _scene_mean(evaluate_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name in BOUNDED_QUALITY:
            ablation, key, _ = QUALITY[name]
            values[name] = self._scene_median(ablation, key)
        for seed, by_ablation in self.quality.items():
            if "full" in by_ablation and "base" in by_ablation \
                    and not by_ablation["full"]["epe"] < by_ablation["base"]["epe"]:
                self.tally.problems.append(f"scene {seed}: full fusion does not beat base on EPE")
        return values

    def _scene_median(self, ablation: str, key: str):
        """Median over the panel; None unless every scene has the value."""
        got = [self.quality.get(s.seed, {}).get(ablation, {}).get(key) for s in self.scenes]
        return None if None in got else statistics.median(got)

    # -- traced: per-layer metrics ------------------------------------------

    def per_layer(self) -> dict:
        """Per-layer figures of the panel's first scene: one traced setup,
        one untraced pass over the other ablations for their quality, then
        untraced and traced full fuses in turn until the time is up."""
        scene = self.scenes[0]
        setup_tr = Tracer()
        setup(scene.spec, self.cfg, scene.work, setup_tr)
        for ablation in ABLATIONS[:-1]:
            self.fuse_and_evaluate(scene, ablation)
        layer_runs, plain_fuse_s, traced_fuse_s = [], [], []
        while True:
            t0 = time.perf_counter()
            f, _, _ = self.fuse_and_evaluate(scene, "full")
            plain_fuse_s += [f] if f is not None else []
            tr = Tracer()
            with tr.patched(self._fusion_patches()):
                f, e, fused = self.fuse_and_evaluate(scene, "full", tr)
            if e is not None:
                traced_fuse_s.append(f)
                layer_runs.append(self._layer_figures(tr, fused))
            self.passes += 1
            if not self._time_left(time.perf_counter() - t0):
                break
        self._check_no_wrappers("after the traced run")

        values: dict[str, float | None] = {name: None for name in PER_LAYER}
        for name in PER_LAYER:
            per_run = [r[name] for r in layer_runs if r.get(name) is not None]
            if per_run:
                values[name] = _median(per_run)
        quality = self.quality.get(scene.seed, {})
        for name, (ablation, key, _) in QUALITY.items():
            if name not in BOUNDED_QUALITY:
                values[f"quality.{name}"] = quality.get(ablation, {}).get(key)
        setup_selfs = setup_tr.self_by_name()
        for name in SETUP_SPANS:
            values[f"{name}_s"] = setup_selfs.get(name, 0.0)
        if plain_fuse_s and traced_fuse_s:
            values["trace.overhead_s"] = _median(traced_fuse_s) - _median(plain_fuse_s)
        # computed from file sizes: one setup and one full fuse write these
        # trees; the fuse and its evaluation read all of them but two files
        written = sum(_tree_bytes(d) for d in (scene.gt_dir, scene.chunk_root, scene.out("full")))
        unread = (scene.chunk_root / "gauges.json", scene.out("full") / "report.json")
        values["io.bytes_written"] = written
        values["io.bytes_read"] = written - sum(p.stat().st_size for p in unread)
        return values

    def _fusion_patches(self) -> list[tuple]:
        patches = []
        for attr, span, hook in FUSION_CALLS:
            if hasattr(fusion, attr):
                patches.append((fusion, attr, span, hook))
            else:
                self.tally.problems.append(f"chunkfuse.fusion has no {attr!r} to trace")
        return patches

    def _layer_figures(self, tr: Tracer, fused) -> dict:
        """Per-layer figures of one traced full fuse and evaluate."""
        (root,) = tr.find("fusion.fuse_sequence")
        inside = tr.subtree(root)
        selfs = tr.self_by_name(inside)
        gap = sum(selfs.values()) - tr.duration(root)
        if abs(gap) > 1e-6:
            self.tally.problems.append(f"span self times miss the fuse span by {gap:.3g} s")
        figures = {f"{name}_s": secs for name, secs in tr.self_by_name().items()}
        figures["fusion.self_s"] = selfs.get("fusion.fuse_sequence", 0.0)
        for name in RUN_SPANS:
            figures.setdefault(f"{name}_s", 0.0)
        c = tr.counts
        pair_cost_calls = tr.calls("association.pair_cost")
        figures.update({
            "registration.static_anchors": c["registration.static_anchors"],
            "registration.dynamic_supports": c["registration.dynamic_supports"],
            "association.tracklets": c["association.tracklets"],
            "association.candidates": c["association.candidates"],
            "association.pair_cost_calls": pair_cost_calls,
            "association.costs_kept": c["association.costs_kept"],
            "association.matches": c["association.matches"],
            "association.candidates_per_tracklet": _ratio(
                c["association.candidates"], c["association.gated_tracklets"]),
            "association.cost_accept_ratio": _ratio(c["association.costs_kept"], pair_cost_calls),
            "association.match_yield": _ratio(c["association.matches"], c["association.candidates"]),
            "fusion.junction_ms_p50": _junction_ms_p50(tr, inside),
            "fusion.reconstruct_boundary_calls": tr.calls("fusion.reconstruct_boundary"),
            "fusion.trajectories": len(fused.trajectories),
        })
        tiers = Counter(r.tier for r in fused.reports)
        for tier in ("refined", "static", "pose"):
            figures[f"fusion.tier_{tier}"] = tiers[tier]
        return figures


def _scene_mean(samples: dict[int, list[float]]):
    """Mean over the panel of each scene's median; None if one is missing."""
    if any(not v for v in samples.values()):
        return None
    return statistics.fmean(statistics.median(v) for v in samples.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _junction_ms_p50(tr: Tracer, inside: list[int]) -> float | None:
    """Median time from a chunk leaving the iterator to its last new frame
    leaving the sink, over every chunk after the first."""
    latencies, handed_in, last_sink, chunk = [], None, None, -1
    for idx in inside:
        s = tr.spans[idx]
        if s.name == "io.read_chunks":
            if chunk >= 1 and last_sink is not None:
                latencies.append(last_sink - handed_in)
            chunk += 1
            handed_in, last_sink = s.end, None
        elif s.name == "io.frame_sink":
            last_sink = s.end
    return 1000.0 * statistics.median(latencies) if latencies else None


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def result(values: dict, units: dict, tally: Tally) -> dict:
    """The run's last line: every metric in ``units``, by name."""
    missing = sorted(name for name in units if values.get(name) is None)
    if missing:
        tally.problems.append(f"metrics not measured: {missing}")
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }
