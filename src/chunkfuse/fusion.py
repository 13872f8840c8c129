"""Trajectory-guided dynamic fusion: transform refinement from matched
tracklets plus camera centers, tiered fallback selection, boundary
continuity reconstruction, and sequence-level fusion.

Matched tracklets travel as row-aligned :class:`TrackletSet` pairs, so the
refinement, the boundary reconstruction and the trajectory stitching of a
junction each run once over all of its matches. The boundary reconstruction
returns only the positions of the window it solves; the stitcher joins them
to each trajectory's frames before the window and to its track in the next
chunk after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .association import (
    MatchSet,
    assign,
    build_tracklets,
    gate_candidates,
    pair_cost,
    resolve_gamma_p,
)
from .chunking import slice_overlap
from .errors import DegenerateConfiguration, NotEnoughPoints, WindowTooShort
from .model import (
    Chunk,
    FramePrediction,
    PipelineConfig,
    Pose,
    SimilarityTransform,
    TrackletSet,
    finite3,
    norm3,
)
from .registration import (
    OverlapAbstraction,
    nearest_rotation,
    register_pair,
    select_anchors,
    solve_weighted_rigid,
    solve_weighted_similarity,
)

ABLATION_MODES = ("base", "overlap", "full")

# The fallback tiers' thresholds: a static registration is trusted with at
# least MIN_STATIC_ANCHORS anchors and a residual RMS within STATIC_RMS_CAP
# scene scales, a refined transform with at least MIN_DYNAMIC_MATCHES matches.
MIN_STATIC_ANCHORS = 50
STATIC_RMS_CAP = 0.1
MIN_DYNAMIC_MATCHES = 8


# ---------------------------------------------------------------------------
# Refined overlap alignment


def refine_transform(
    matches: MatchSet,
    tracklets_i: TrackletSet,
    tracklets_j: TrackletSet,
    poses_i: Sequence[Pose],
    poses_j: Sequence[Pose],
    initial: SimilarityTransform,
    cfg: PipelineConfig,
) -> SimilarityTransform:
    """Re-solve the pairwise transform on matched dynamic points plus
    camera centers.

    Tracklet positions must be in their raw chunk gauges, over the same
    frames. Each matched correspondence is weighted by the confidence
    geometric mean attenuated by its residual under ``initial`` (rescaled
    to [0, 1]); gross outliers, beyond 5x the median residual, are zeroed
    outright so a few wrong matches cannot destabilize the transform.
    Camera-center pairs carry ``lambda_cam`` times the mean track weight.
    The solve is a rigid weighted Kabsch with the scale frozen from
    ``initial`` unless ``refine_scale`` is set.
    """
    if tracklets_i.frames != tracklets_j.frames:
        raise ValueError("refinement needs both tracklet sets over the same frames")
    pairs = matches.pairs()
    if len(pairs):
        a, b = pairs[:, 0], pairs[:, 1]
        src = tracklets_j.positions[b].reshape(-1, 3)
        dst = tracklets_i.positions[a].reshape(-1, 3)
        conf = np.sqrt(tracklets_i.conf[a] * tracklets_j.conf[b]).reshape(-1)
        residual = norm3(initial.apply(src) - dst)
        rmax = residual.max()
        scaled = residual / rmax if rmax > 0 else residual
        track_w = conf / (1.0 + scaled)
        med = np.median(residual)
        if med > 0:
            track_w[residual > 5.0 * med] = 0.0
        mean_track_w = float(track_w[track_w > 0].mean()) if (track_w > 0).any() else 1.0
    else:
        src = dst = np.zeros((0, 3))
        track_w, mean_track_w = np.zeros(0), 1.0

    # at lambda_cam 0 the centres carry zero weight, which the solve drops;
    # fewer than 3 positive weights raise NotEnoughPoints there
    src = np.concatenate([src, np.stack([p.center for p in poses_j])])
    dst = np.concatenate([dst, np.stack([p.center for p in poses_i])])
    weights = np.concatenate([track_w, np.full(len(poses_j), cfg.lambda_cam * mean_track_w)])
    if cfg.refine_scale:
        return solve_weighted_similarity(src, dst, weights)
    return solve_weighted_rigid(src, dst, weights, scale=initial.scale)


def camera_scale(abstraction: OverlapAbstraction) -> float:
    """The ``pose`` tier's scale, chunk j -> chunk i: ``gamma_stat / gamma_stat_j``, or 1
    where a median point on its camera leaves that ratio not positive and finite."""
    s = abstraction.gamma_stat / abstraction.gamma_stat_j if abstraction.gamma_stat_j > 0 else 0.0
    return s if s > 0 and np.isfinite(s) else 1.0


def pose_only_transform(poses_i: Sequence[Pose], poses_j: Sequence[Pose],
                        scale: float) -> SimilarityTransform:
    """Alignment of the overlap cameras at ``scale``, chunk j -> chunk i,
    for any number and layout of cameras: R is the rotation nearest to the
    sum of the per-frame relative rotations R_i R_j^T, and the translation
    maps the centre mean of chunk j onto that of chunk i."""
    M = sum(pi.rotation @ pj.rotation.T for pi, pj in zip(poses_i, poses_j))
    R, _, _ = nearest_rotation(M)
    mu_i, mu_j = (np.stack([p.center for p in poses]).mean(axis=0) for poses in (poses_i, poses_j))
    return SimilarityTransform(scale, R, mu_i - scale * (R @ mu_j))


def choose_transform(
    ablation: str,
    abstraction: OverlapAbstraction,
    static: tuple[SimilarityTransform, float] | None,
    refined: SimilarityTransform | None,
    num_matches: int,
    poses_i: Sequence[Pose],
    poses_j: Sequence[Pose],
) -> tuple[SimilarityTransform, str]:
    """The pair transform of one junction under ``ablation``, and its tier.

    ``static`` is the static registration's transform and residual RMS,
    ``refined`` the last association round's transform, backed by
    ``num_matches`` matches; either is None when it was not solved.

    - ``base``: the identity, tier ``base``, whatever the inputs.
    - ``overlap`` isolates static-aware registration, with no dynamic
      feedback and no pose fallback: the trusted static transform
      (``static``), else the identity (``identity``).
    - ``full`` falls back from refined (``refined``) to trusted static
      (``static``) to the alignment of the overlap cameras at
      :func:`camera_scale` (``pose``).
    """
    if ablation == "base":
        return SimilarityTransform.identity(), "base"
    if ablation == "full" and refined is not None and num_matches >= MIN_DYNAMIC_MATCHES:
        return refined, "refined"
    if (static is not None and abstraction.num_static >= MIN_STATIC_ANCHORS
            and static[1] <= STATIC_RMS_CAP * abstraction.scene_scale):
        return static[0], "static"
    if ablation == "overlap":
        return SimilarityTransform.identity(), "identity"
    return pose_only_transform(poses_i, poses_j, camera_scale(abstraction)), "pose"


# ---------------------------------------------------------------------------
# Boundary continuity reconstruction


def solve_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm for a tridiagonal system along the first axis.

    ``rhs`` may be (n,), (n, k) or deeper. Row k of each coefficient array
    broadcasts against ``rhs[k]``, so a (n, m, 1) ``diag`` with a
    (n, m, 3) ``rhs`` solves m independent systems at once.
    """
    n = len(diag)
    cp = np.empty((max(n - 1, 0),) + np.shape(diag)[1:])
    dp = np.empty_like(rhs, dtype=np.float64)
    denom = diag[0]
    if n > 1:
        cp[0] = upper[0] / denom
    dp[0] = rhs[0] / denom
    for k in range(1, n):
        denom = diag[k] - lower[k - 1] * cp[k - 1]
        if k < n - 1:
            cp[k] = upper[k] / denom
        dp[k] = (rhs[k] - lower[k - 1] * dp[k - 1]) / denom
    for k in range(n - 2, -1, -1):
        dp[k] -= cp[k] * dp[k + 1]
    return dp


def blend_weights(num: int) -> tuple[np.ndarray, np.ndarray]:
    """cos^2 ramp: the first source dominates early, the second late."""
    r = np.linspace(0.0, 1.0, num)
    alpha = np.cos(0.5 * np.pi * r) ** 2
    return alpha, 1.0 - alpha


def _window_data(tracks: TrackletSet, window: range):
    """Positions of ``tracks`` over the frames of ``window``, with a (N,
    len(window)) mask of where a position is given and finite; positions
    are zero elsewhere."""
    frames = tracks.frames
    lo = max(window.start, frames.start)
    hi = max(lo, min(window.stop, frames.stop))
    pos = np.full((len(tracks), len(window), 3), np.nan)
    pos[:, lo - window.start:hi - window.start] = tracks.positions[:, lo - frames.start:hi - frames.start]
    has = finite3(pos)
    pos[~has] = 0.0
    return pos, has


def reconstruct_boundary(
    d_a: TrackletSet,
    d_b_aligned: TrackletSet,
    window: range,
    cfg: PipelineConfig,
) -> np.ndarray:
    """Continuity reconstruction over ``window``, a range of consecutive
    frames around the junction, for every row pair (d_a[k],
    d_b_aligned[k]) at once: the (N, len(window), 3) positions.

    Minimizes, per row and coordinate,
      sum_t alpha_t ||x_t - a_t||^2 + beta_t ||x_t - b_t||^2
      + lambda_sm * sum ||x_t - x_{t-1}||^2,
    a symmetric tridiagonal quadratic solved exactly by one batched Thomas
    solve. alpha/beta follow a cos^2 ramp across the window; where only one
    source covers a frame with a finite position it receives the full unit
    data weight, and a frame neither covers gets zero data weight, so the
    smoothness chain fills it in. With lambda_sm == 0 nothing fills such a
    frame, and it comes back NaN. The chain is anchored to the fixed
    neighbors just outside the window when the sources extend there. The
    window must start within d_a or just after it, and end within
    d_b_aligned or just before it.
    """
    if len(window) < 2:
        raise WindowTooShort(f"boundary window needs >= 2 frames, got {len(window)}")
    fa, fb = d_a.frames, d_b_aligned.frames
    if not (fa.start <= window.start <= fa.stop and fb.start <= window.stop <= fb.stop):
        raise ValueError(f"boundary window {window} leaves a gap to sources over {fa} and {fb}")
    if len(d_a) != len(d_b_aligned):
        raise ValueError("boundary sources must pair up row by row")
    m = len(window)

    A, has_a = _window_data(d_a, window)
    B, has_b = _window_data(d_b_aligned, window)
    ramp_a, ramp_b = blend_weights(m)
    alpha = np.where(has_a, np.where(has_b, ramp_a, 1.0), 0.0)
    beta = np.where(has_b, np.where(has_a, ramp_b, 1.0), 0.0)

    lam = cfg.lambda_sm
    diag = alpha + beta + lam * 2.0
    diag[:, 0] -= lam
    diag[:, -1] -= lam
    rhs = alpha[..., None] * A + beta[..., None] * B

    anchor_a, has_prev = _window_data(d_a, range(window.start - 1, window.start))
    anchor_b, has_next = _window_data(d_b_aligned, range(window.stop, window.stop + 1))
    has_prev, has_next = has_prev[:, 0], has_next[:, 0]
    diag[has_prev, 0] += lam
    rhs[has_prev, 0] += lam * anchor_a[has_prev, 0]
    diag[has_next, -1] += lam
    rhs[has_next, -1] += lam * anchor_b[has_next, 0]

    if lam > 0:
        off = np.full(m - 1, -lam)
        return solve_tridiagonal(off, diag.T[..., None], off, rhs.transpose(1, 0, 2)).transpose(1, 0, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return rhs / diag[..., None]


# ---------------------------------------------------------------------------
# Sequence-level fusion


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A long-range trajectory stitched from associated tracklets."""

    trajectory_id: int
    frames: tuple[int, ...]
    positions: np.ndarray
    sources: tuple[tuple[int, int, tuple[int, int]], ...]

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64).copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        frames = tuple(self.frames)
        if frames and frames != tuple(range(frames[0], frames[0] + len(frames))):
            raise ValueError("trajectory frames must be contiguous and increasing")
        if pos.shape != (len(frames), 3):
            raise ValueError(f"positions must be {(len(frames), 3)}, got {pos.shape}")


def _pixel_tracks(chunk: Chunk, pixels: np.ndarray, gauge: SimilarityTransform) -> TrackletSet:
    """Whole-chunk tracks of the given pixels, mapped by ``gauge``."""
    rows, cols = pixels[:, 0], pixels[:, 1]
    # (N, T, ...) in C order: ``apply`` rounds a C-ordered operand as it always has
    tracks = np.ascontiguousarray(chunk.points[:, rows, cols].swapaxes(0, 1))
    return TrackletSet(
        start_frame=chunk.start_frame,
        pixels=pixels,
        positions=gauge.apply(tracks),
        conf=np.ascontiguousarray(chunk.confidence[:, rows, cols].T),
    )


class _Stitcher:
    """Grows long-range trajectories junction by junction: trajectory ``t``
    runs over consecutive frames from ``starts[t]``, holds ``positions[t]``
    and was stitched from the (chunk, tracklet id, pixel) ``sources[t]``.
    It stays open while the pixel of its newest tracklet is matched again at
    the next junction; ``open`` holds the open ids at the newest chunk's
    pixels, -1 where none is open."""

    def __init__(self, grid_shape: tuple[int, int]):
        self.starts: list[int] = []
        self.positions: list[np.ndarray] = []
        self.sources: list[list[tuple[int, int, tuple[int, int]]]] = []
        self.open = np.full(grid_shape, -1)

    def _start(self, chunk: Chunk, tracks: TrackletSet, rows: np.ndarray) -> np.ndarray:
        """Ids of new trajectories from ``rows`` of ``tracks``, tracklets of ``chunk``."""
        self.starts += [chunk.start_frame] * len(rows)
        self.positions += list(tracks.positions[rows])
        self.sources += [[(chunk.chunk_id, row, tuple(pixel))]
                         for row, pixel in zip(rows.tolist(), tracks.pixels[rows].tolist())]
        return np.arange(len(self.starts) - len(rows), len(self.starts))

    def junction(self, prev: Chunk, cur: Chunk, G_prev: SimilarityTransform,
                 G_cur: SimilarityTransform, raw_i: TrackletSet, raw_j: TrackletSet,
                 match_set: MatchSet, cfg: PipelineConfig):
        """Stitch the matches of one junction across its boundary window.

        Every match shares the window that runs from the first of the n
        frames the two chunks share to n frames past the last, clipped to
        ``cur``, and all are reconstructed in one solve; ``cfg`` gives only
        the smoothness weight. A stitched trajectory keeps its frames
        before the window, takes the reconstructed window, and goes on with
        its track in ``cur`` after it. A match whose window cannot be
        reconstructed is handled as two unmatched tracklets. New ids go to
        the stitched matches not open yet, in match order, then to the
        rest of ``raw_i`` not open yet and of ``raw_j``, each in row order.
        """
        n = prev.end_frame - cur.start_frame + 1
        window = range(cur.start_frame, min(prev.end_frame + n, cur.end_frame) + 1)
        rows_a, rows_b = match_set.pairs().T
        tracks_i = _pixel_tracks(prev, raw_i.pixels, G_prev)
        tracks_j = _pixel_tracks(cur, raw_j.pixels, G_cur)
        x = reconstruct_boundary(tracks_i.take(rows_a), tracks_j.take(rows_b), window, cfg)
        stitched = finite3(x).all(axis=1)

        open_i = self.open[tuple(raw_i.pixels.T)]
        a, b = rows_a[stitched], rows_b[stitched]
        lone_i = np.sort(np.concatenate([np.asarray(match_set.unmatched_i, np.intp), rows_a[~stitched]]))
        lone_j = np.sort(np.concatenate([np.asarray(match_set.unmatched_j, np.intp), rows_b[~stitched]]))
        ids = open_i[a]
        # a new stitched trajectory starts as its track in prev, whose frames before the window it keeps
        ids[ids < 0] = self._start(prev, tracks_i, a[ids < 0])
        self._start(prev, tracks_i, lone_i[open_i[lone_i] < 0])
        after = tracks_j.positions[:, window.stop - cur.start_frame:]
        for t, pos, row, pixel in zip(ids.tolist(), x[stitched], b.tolist(), raw_j.pixels[b].tolist()):
            kept = self.positions[t][: window[0] - self.starts[t]]
            self.positions[t] = np.concatenate([kept, pos, after[row]])
            self.sources[t].append((cur.chunk_id, row, tuple(pixel)))
        self.open.fill(-1)
        self.open[tuple(raw_j.pixels[b].T)] = ids
        self.open[tuple(raw_j.pixels[lone_j].T)] = self._start(cur, tracks_j, lone_j)

    def finish(self) -> list[Trajectory]:
        return [Trajectory(t, tuple(range(start, start + len(pos))), pos, tuple(src))
                for t, (start, pos, src) in enumerate(zip(self.starts, self.positions, self.sources))]


@dataclass(frozen=True)
class PairReport:
    """What happened at one chunk junction."""

    chunk_i: int
    chunk_j: int
    tier: str
    num_static: int
    num_dynamic: int
    num_tracklets_i: int
    num_tracklets_j: int
    num_candidates: int
    num_matches: int
    static_rms: float | None
    pair_transform: SimilarityTransform


@dataclass
class FusedScene:
    """Chunk transforms and long-range trajectories, all expressed in the
    first chunk's gauge; the fused frames went to the frame sink. Each
    depends on the chunks and the config's weights and thresholds, not on
    its ``chunk_length`` or ``overlap``. Trajectory ids are given in
    creation order, junction by junction, so start frames never decrease
    with id. A ``full`` fuse keeps (chunk i, chunk j, matches, pixels i,
    pixels j) per junction in ``match_sets``, row k of each (N, 2) pixels
    being tracklet k."""

    num_frames: int
    chunk_transforms: list[SimilarityTransform]
    trajectories: list[Trajectory]
    reports: list[PairReport]
    match_sets: list[tuple[int, int, MatchSet, np.ndarray, np.ndarray]] = field(
        default_factory=list
    )


def _emit_frames(chunk: Chunk, first: int, G: SimilarityTransform,
                 frame_sink: Callable[[FramePrediction], None]) -> None:
    """Hand the frames of ``chunk`` from frame ``first`` on, mapped by
    ``G``, to ``frame_sink``: views of one mapped point stack and one
    mapped pose stack. ``G.apply`` rounds each row of the stack as it
    rounds the row of one frame alone, so every frame keeps its bits."""
    k = first - chunk.start_frame
    points = G.apply(chunk.points[k:])
    poses = G.apply_poses(chunk.poses[k:])
    for t, (p, c, pose) in enumerate(zip(points, chunk.confidence[k:], poses), start=first):
        frame_sink(FramePrediction(points=p, confidence=c, pose=pose, frame_index=t))


def _align_pair(prev: Chunk, cur: Chunk, cfg: PipelineConfig, ablation: str):
    """Register and associate one junction under ``ablation``, from its
    overlap alone: its report, the match set, and both raw tracklet sets
    (None unless "full").

    Association starts from the transform the junction takes without
    refinement, the trusted static one, else the cameras'. A static solve
    or a refinement that raises NotEnoughPoints or
    DegenerateConfiguration is left out, and the tiers fall back past it.
    """
    overlap = slice_overlap(prev, cur)
    abstraction = select_anchors(overlap, cfg)
    poses_i, poses_j = overlap.poses_i, overlap.poses_j

    static = None
    if ablation != "base":
        try:
            static = register_pair(overlap, abstraction)
        except (NotEnoughPoints, DegenerateConfiguration):
            pass

    raw_i = raw_j = refined = None
    match_set = MatchSet((), (), ())
    num_candidates = 0
    if ablation == "full":
        # an untrusted static transform may be fitted to the noise of a
        # pixel or two, far from the true gauge, so it seeds nothing
        T_assoc, _ = choose_transform(ablation, abstraction, static, None, 0, poses_i, poses_j)
        raw_i = build_tracklets(overlap.frames.start, overlap.points_i, overlap.conf_i,
                                abstraction.dynamic_mask, abstraction.gamma_stat, cfg)
        raw_j = build_tracklets(overlap.frames.start, overlap.points_j, overlap.conf_j,
                                abstraction.dynamic_mask, abstraction.gamma_stat_j, cfg)
        # associate, refine, then re-associate in the improved gauge: the
        # first alignment may be off by more than a seed spacing, which
        # skews the one-to-one matching
        for _ in range(cfg.association_rounds):
            aligned_j = raw_j.transformed(T_assoc)
            candidates = gate_candidates(raw_i, aligned_j, resolve_gamma_p(raw_i, aligned_j))
            num_candidates = len(candidates)
            costs = pair_cost(raw_i, aligned_j, candidates, cfg, abstraction.scene_scale)
            match_set = assign(candidates, costs, len(raw_i), len(raw_j), cfg)
            refined = None
            if len(match_set) == 0:
                break
            try:
                refined = refine_transform(match_set, raw_i, raw_j, poses_i, poses_j, T_assoc, cfg)
            except (NotEnoughPoints, DegenerateConfiguration):
                break
            T_assoc = refined

    T_pair, tier = choose_transform(ablation, abstraction, static, refined, len(match_set),
                                    poses_i, poses_j)

    report = PairReport(
        chunk_i=prev.chunk_id,
        chunk_j=cur.chunk_id,
        tier=tier,
        num_static=abstraction.num_static,
        num_dynamic=abstraction.num_dynamic,
        num_tracklets_i=len(raw_i) if raw_i is not None else 0,
        num_tracklets_j=len(raw_j) if raw_j is not None else 0,
        num_candidates=num_candidates,
        num_matches=len(match_set),
        static_rms=static[1] if static else None,
        pair_transform=T_pair,
    )
    return report, match_set, raw_i, raw_j


def fuse_sequence(
    chunks: Iterable[Chunk],
    cfg: PipelineConfig,
    ablation: str = "full",
    *,
    frame_sink: Callable[[FramePrediction], None],
) -> FusedScene:
    """Register, associate, and fuse a stream of chunks.

    Keeps at most two chunk payloads resident: the previous and the
    incoming one. Each chunk's new frames (overlap frames belong to the
    earlier chunk) are mapped into the first chunk's gauge as one stack
    once its transform is known, and handed to ``frame_sink`` one frame
    at a time; only that one chunk's mapped stack is held meanwhile.
    Each junction is solved from the frames its two chunks share, as
    :func:`~chunkfuse.chunking.slice_overlap` finds them; ``cfg.overlap``
    and ``cfg.chunk_length``, which plan the chunks, are not read. A static
    registration or refinement that fails never aborts; the tier hierarchy
    always produces a transform.
    """
    if ablation not in ABLATION_MODES:
        raise ValueError(f"ablation must be one of {ABLATION_MODES}, got {ablation!r}")
    it = iter(chunks)
    try:
        prev = next(it)
    except StopIteration:
        raise ValueError("fuse_sequence needs at least one chunk") from None

    identity = SimilarityTransform.identity()
    transforms = [identity]
    reports: list[PairReport] = []
    match_dumps: list[tuple[int, int, MatchSet, np.ndarray, np.ndarray]] = []
    stitcher = _Stitcher(prev.grid_shape)

    _emit_frames(prev, prev.start_frame, identity, frame_sink)

    for cur in it:
        G_prev = transforms[-1]
        report, match_set, raw_i, raw_j = _align_pair(prev, cur, cfg, ablation)
        G_cur = G_prev.compose(report.pair_transform)
        transforms.append(G_cur)
        reports.append(report)

        if ablation == "full":
            match_dumps.append((prev.chunk_id, cur.chunk_id, match_set, raw_i.pixels, raw_j.pixels))
            stitcher.junction(prev, cur, G_prev, G_cur, raw_i, raw_j, match_set, cfg)

        _emit_frames(cur, prev.end_frame + 1, G_cur, frame_sink)
        prev = cur

    return FusedScene(
        num_frames=prev.end_frame + 1,
        chunk_transforms=transforms,
        trajectories=stitcher.finish(),
        reports=reports,
        match_sets=match_dumps,
    )
