from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkfuse import fusion
from chunkfuse.association import MatchSet
from chunkfuse.chunking import slice_overlap
from chunkfuse.errors import NotEnoughPoints, WindowTooShort
from chunkfuse.fusion import (
    MIN_DYNAMIC_MATCHES,
    MIN_STATIC_ANCHORS,
    blend_weights,
    camera_scale,
    choose_transform,
    fuse_sequence,
    pose_only_transform,
    reconstruct_boundary,
    refine_transform,
    solve_tridiagonal,
)
from chunkfuse.metrics import build_fused_table, dense_epe
from chunkfuse.model import (
    Chunk,
    PipelineConfig,
    Pose,
    SimilarityTransform,
    TrackletSet,
    TrackTable,
)
from chunkfuse.registration import OverlapAbstraction, select_anchors
from chunkfuse.synthetic import emit_chunks, generate
import references as ref
from conftest import HOLE_CFG, frac_for, make_chunk, random_rotation
from scenes import (
    ablation_config,
    ablation_spec,
    association_config,
    association_spec,
    dynamic_overlap_spec,
    end_to_end_spec,
    gauge_recovery_spec,
    identity_span_spec,
    with_camera_noise,
)


def tracklets(positions, frames: range):
    """A set from an (N, T, 3) stack over ``frames``; row k seeds at pixel (k, 0)."""
    positions = np.asarray(positions, dtype=float).reshape(-1, len(frames), 3)
    n = len(positions)
    pixels = np.stack([np.arange(n), np.zeros(n, dtype=int)], axis=1)
    return TrackletSet(frames.start, pixels, positions, np.ones((n, len(frames))))


def tracklet(positions, frames):
    """A one-row set."""
    return tracklets([positions], frames)


NO_TRACKS = tracklets(np.empty((0, 4, 3)), range(4))


def assert_same_window(d_a, d_b, window, cfg):
    """The reconstruction over ``window``, checked bit for bit against the
    window of the whole-span reference."""
    out = reconstruct_boundary(d_a, d_b, window, cfg)
    full = ref.reconstruct_boundary(d_a, d_b, window, cfg)
    expected = full.positions[:, window.start - full.start_frame:window.stop - full.start_frame]
    assert out.shape == (len(d_a), len(window), 3)
    assert out.tobytes() == expected.tobytes()
    return out


def dense_boundary_oracle(d_a, d_b, frames, cfg):
    """Independent dense solve of the boundary objective.

    Re-assembles the documented quadratic (cos^2 ramp, one-sided full data
    weight, zero data weight where neither source has a finite position,
    smoothness chain anchored to fixed outside neighbors) as a full
    matrix and solves with numpy's generic solver.
    """
    frames = list(frames)
    m = len(frames)
    a_map = {f: p for f, p in zip(d_a.frames, d_a.positions[0]) if np.isfinite(p).all()}
    b_map = {f: p for f, p in zip(d_b.frames, d_b.positions[0]) if np.isfinite(p).all()}
    r = np.linspace(0.0, 1.0, m)
    alpha = np.cos(0.5 * np.pi * r) ** 2
    beta = 1.0 - alpha
    A = np.zeros((m, m))
    rhs = np.zeros((m, 3))
    lam = cfg.lambda_sm
    for k, f in enumerate(frames):
        has_a, has_b = f in a_map, f in b_map
        ak, bk = alpha[k], beta[k]
        if has_a and not has_b:
            ak, bk = 1.0, 0.0
        if has_b and not has_a:
            ak, bk = 0.0, 1.0
        if not has_a and not has_b:
            ak, bk = 0.0, 0.0
        A[k, k] += ak + bk
        if has_a:
            rhs[k] += ak * a_map[f]
        if has_b:
            rhs[k] += bk * b_map[f]
    for k in range(m - 1):
        A[k, k] += lam
        A[k + 1, k + 1] += lam
        A[k, k + 1] -= lam
        A[k + 1, k] -= lam
    if frames[0] - 1 in a_map:
        A[0, 0] += lam
        rhs[0] += lam * a_map[frames[0] - 1]
    if frames[-1] + 1 in b_map:
        A[-1, -1] += lam
        rhs[-1] += lam * b_map[frames[-1] + 1]
    return np.linalg.solve(A, rhs)


class TestTridiagonal:
    def test_against_dense(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 14))
            lower = rng.uniform(-1, 0, size=n - 1)
            upper = rng.uniform(-1, 0, size=n - 1)
            diag = np.abs(lower := lower) * 0  # placeholder, replaced below
            lower = rng.uniform(-1, 0, size=n - 1)
            upper = lower.copy()
            diag = 2.5 + np.abs(rng.normal(size=n))  # diagonally dominant SPD
            rhs = rng.normal(size=(n, 3))
            A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
            expect = np.linalg.solve(A, rhs)
            got = solve_tridiagonal(lower, diag, upper, rhs)
            assert np.abs(got - expect).max() < 1e-9


class TestReconstructBoundary:
    CFG = PipelineConfig(lambda_sm=1.0)

    def test_consistent_constant_inputs_fixed_point(self):
        pos = np.tile(np.array([1.0, -2.0, 3.0]), (10, 1))
        d_a = tracklet(pos[:7], range(0, 7))
        d_b = tracklet(pos[2:], range(2, 10))
        for lam in (0.0, 0.3, 1.0, 10.0):
            cfg = PipelineConfig(lambda_sm=lam)
            out = reconstruct_boundary(d_a, d_b, range(2, 7), cfg)
            assert out.shape == (1, 5, 3)
            assert np.abs(out[0] - pos[2:7]).max() < 1e-12

    def test_lambda_zero_closed_form(self, rng):
        frames = range(8)
        pa = np.cumsum(rng.normal(size=(8, 3)), axis=0)
        pb = pa + rng.normal(scale=0.3, size=(8, 3))
        d_a = tracklet(pa, frames)
        d_b = tracklet(pb, frames)
        cfg = PipelineConfig(lambda_sm=1e-12)  # config requires > 0; solver path hits Thomas
        out = reconstruct_boundary(d_a, d_b, frames, cfg)
        alpha, beta = blend_weights(8)
        expect = (alpha[:, None] * pa + beta[:, None] * pb) / (alpha + beta)[:, None]
        assert np.abs(out[0] - expect).max() < 1e-9
        for lam in (1e-12, 0.0):
            assert_same_window(d_a, d_b, frames, PipelineConfig(lambda_sm=lam))

    def test_step_discontinuity_dense_oracle_and_damping(self):
        delta = 0.8
        frames_a = range(0, 9)
        frames_b = range(3, 15)
        pa = np.tile(np.array([0.0, 0.0, 0.0]), (9, 1))
        pb = np.tile(np.array([delta, 0.0, 0.0]), (12, 1))
        d_a = tracklet(pa, frames_a)
        d_b = tracklet(pb, frames_b)
        window = range(3, 9)  # |B| = 6
        cfg = PipelineConfig(lambda_sm=1.0)
        out = reconstruct_boundary(d_a, d_b, window, cfg)
        oracle = dense_boundary_oracle(d_a, d_b, window, cfg)
        assert np.abs(out[0] - oracle).max() < 1e-9
        # the stitched track: d_a before the window, d_b after it
        track = np.concatenate([pa[:3], out[0], pb[9 - 3:]])
        jumps = np.linalg.norm(np.diff(track, axis=0), axis=1)
        assert jumps.max() < delta

    def test_dense_oracle_random_windows(self, rng):
        for _ in range(40):
            n_b = int(rng.integers(2, 13))
            start = int(rng.integers(0, 4))
            frames_a = range(0, start + n_b + int(rng.integers(0, 3)))
            frames_b = range(start, start + n_b + int(rng.integers(1, 4)))
            pa = np.cumsum(rng.normal(size=(len(frames_a), 3)), axis=0)
            pb = np.cumsum(rng.normal(size=(len(frames_b), 3)), axis=0)
            d_a = tracklet(pa, frames_a)
            d_b = tracklet(pb, frames_b)
            window = range(start, start + n_b)
            lam = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
            cfg = PipelineConfig(lambda_sm=lam) if lam > 0 else PipelineConfig(lambda_sm=1e-300)
            out = assert_same_window(d_a, d_b, window, cfg)
            cfg_oracle = PipelineConfig(lambda_sm=lam) if lam > 0 else cfg
            oracle = dense_boundary_oracle(d_a, d_b, window, cfg_oracle)
            assert np.abs(out[0] - oracle).max() < 1e-9

    def test_monotone_blending_bound(self, rng):
        frames = range(6)
        pa = rng.normal(size=(6, 3))
        pb = rng.normal(size=(6, 3))
        d_a = tracklet(pa, frames)
        d_b = tracklet(pb, frames)
        out = reconstruct_boundary(d_a, d_b, frames, PipelineConfig(lambda_sm=1e-300))
        lo = np.minimum(pa, pb) - 1e-9
        hi = np.maximum(pa, pb) + 1e-9
        assert (out[0] >= lo).all() and (out[0] <= hi).all()

    def test_window_too_short(self):
        pos = np.zeros((4, 3))
        d_a = tracklet(pos, range(4))
        d_b = tracklet(pos, range(4))
        with pytest.raises(WindowTooShort):
            reconstruct_boundary(d_a, d_b, range(2, 3), PipelineConfig())

    @pytest.mark.parametrize("frames_a, frames_b, window", [
        (range(3, 8), range(3, 12), range(2, 6)),  # d_a starts inside the window
        (range(0, 3), range(3, 12), range(4, 8)),  # d_a ends a frame before it
        (range(0, 8), range(6, 9), range(5, 10)),  # d_b ends inside the window
        (range(0, 8), range(10, 14), range(5, 9)),  # d_b starts a frame after it
    ])
    def test_window_leaving_a_gap_rejected(self, frames_a, frames_b, window):
        d_a = tracklet(np.zeros((len(frames_a), 3)), frames_a)
        d_b = tracklet(np.zeros((len(frames_b), 3)), frames_b)
        with pytest.raises(ValueError, match="gap"):
            reconstruct_boundary(d_a, d_b, window, PipelineConfig())

    def test_rows_not_paired_rejected(self):
        d_a = tracklets(np.zeros((2, 6, 3)), range(6))
        d_b = tracklet(np.zeros((6, 3)), range(2, 8))
        with pytest.raises(ValueError, match="row by row"):
            reconstruct_boundary(d_a, d_b, range(3, 6), PipelineConfig())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batched_rows_equal_single_row_solves(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        start, m = int(rng.integers(0, 4)), int(rng.integers(2, 9))
        frames_a = range(0, start + m + int(rng.integers(0, 3)))
        frames_b = range(start, start + m + int(rng.integers(1, 4)))
        pa = np.cumsum(rng.normal(size=(n, len(frames_a), 3)), axis=1)
        pb = np.cumsum(rng.normal(size=(n, len(frames_b), 3)), axis=1)
        # legal holes: a missing point in either source
        pa[rng.random(pa.shape[:2]) < 0.2] = np.nan
        pb[rng.random(pb.shape[:2]) < 0.2] = np.nan
        window = range(start, start + m)
        cfg = PipelineConfig(lambda_sm=float(rng.choice([0.0, 0.1, 1.0, 10.0])))
        both = assert_same_window(tracklets(pa, frames_a), tracklets(pb, frames_b), window, cfg)
        for k in range(n):
            one = reconstruct_boundary(tracklet(pa[k], frames_a), tracklet(pb[k], frames_b),
                                       window, cfg)
            assert one.shape == (1, m, 3)
            assert np.array_equal(one[0], both[k], equal_nan=True)

    def test_uncovered_frame_filled_by_smoothness(self, rng):
        pa = np.cumsum(rng.normal(size=(6, 3)), axis=0)
        pb = np.cumsum(rng.normal(size=(7, 3)), axis=0)
        pb[3] = np.nan  # frame 6: after d_a ends, and d_b has no point there
        d_a = tracklet(pa, range(0, 6))
        d_b = tracklet(pb, range(3, 10))
        window = range(3, 9)
        out = assert_same_window(d_a, d_b, window, self.CFG)
        assert np.isfinite(out).all()
        oracle = dense_boundary_oracle(d_a, d_b, window, self.CFG)
        assert np.abs(out[0] - oracle).max() < 1e-9
        # the filled frame sits on the chain between its neighbors
        x5, x6, x7 = (out[0][window.index(f)] for f in (5, 6, 7))
        assert np.abs(x6 - (x5 + x7) / 2).max() < 1e-12

    def test_uncovered_frame_without_smoothness_is_nan(self, rng):
        pa = rng.normal(size=(2, 6, 3))
        pb = rng.normal(size=(2, 7, 3))
        pb[1, 3] = np.nan
        window = range(3, 9)
        out = assert_same_window(tracklets(pa, range(0, 6)), tracklets(pb, range(3, 10)),
                                 window, PipelineConfig(lambda_sm=0.0))
        assert np.isfinite(out[0]).all()
        hole = window.index(6)
        assert np.isnan(out[1][hole]).all()
        assert np.isfinite(np.delete(out[1], hole, axis=0)).all()


def _overlap_poses(rng, n=4, collinear=False):
    if collinear:
        centers = np.outer(np.arange(n, dtype=float), np.array([0.1, 0.02, 0.3])) + [0, 0, -1]
    else:
        centers = rng.normal(size=(n, 3))
    rots = [random_rotation(rng) for _ in range(n)]
    return [Pose(R, c) for R, c in zip(rots, centers)]


class TestRefineTransform:
    def _matched_tracklets(self, rng, T_star, n_tracks=6, frames=range(4)):
        base = rng.normal(size=(n_tracks, 1, 3)) * 2
        vel = rng.normal(size=(n_tracks, 1, 3)) * 0.2
        world = base + np.arange(len(frames), dtype=float)[:, None] * vel
        matches = MatchSet(tuple((k, k, 0.0) for k in range(n_tracks)), (), ())
        return matches, tracklets(world, frames), tracklets(T_star.apply(world), frames)

    def test_rigid_injected_gauge_recovered(self, rng):
        T_star = SimilarityTransform(1.0, random_rotation(rng), rng.normal(size=3))
        matches, ti, tj = self._matched_tracklets(rng, T_star)
        poses_i = _overlap_poses(rng)
        poses_j = [T_star.apply_pose(p) for p in poses_i]
        cfg = PipelineConfig()
        T = refine_transform(matches, ti, tj, poses_i, poses_j,
                             SimilarityTransform.identity(), cfg)
        inv = T_star.invert()
        assert np.linalg.norm(T.rotation - inv.rotation) < 1e-9
        assert np.linalg.norm(T.translation - inv.translation) < 1e-9

    def test_similarity_injected_gauge_with_scale_refinement(self, rng):
        T_star = SimilarityTransform(1.7, random_rotation(rng), rng.normal(size=3))
        matches, ti, tj = self._matched_tracklets(rng, T_star)
        poses_i = _overlap_poses(rng)
        poses_j = [T_star.apply_pose(p) for p in poses_i]
        cfg = PipelineConfig(refine_scale=True)
        T = refine_transform(matches, ti, tj, poses_i, poses_j,
                             SimilarityTransform.identity(), cfg)
        inv = T_star.invert()
        assert abs(T.scale - inv.scale) < 1e-9
        assert np.linalg.norm(T.rotation - inv.rotation) < 1e-9
        assert np.linalg.norm(T.translation - inv.translation) < 1e-9

    def test_empty_matches_without_cameras_raises(self, rng):
        poses = _overlap_poses(rng, n=2)
        cfg = PipelineConfig(lambda_cam=0.0)
        with pytest.raises(NotEnoughPoints):
            refine_transform(MatchSet((), (), ()), NO_TRACKS, NO_TRACKS, poses, poses,
                             SimilarityTransform.identity(), cfg)

    def test_centers_only_equals_reduced_kabsch(self, rng):
        from chunkfuse.registration import solve_weighted_rigid

        T_star = SimilarityTransform(1.0, random_rotation(rng), rng.normal(size=3))
        poses_i = _overlap_poses(rng, n=4)
        poses_j = [T_star.apply_pose(p) for p in poses_i]
        cfg = PipelineConfig(lambda_cam=1.0)
        T = refine_transform(MatchSet((), (), ()), NO_TRACKS, NO_TRACKS, poses_i, poses_j,
                             SimilarityTransform.identity(), cfg)
        src = np.stack([p.center for p in poses_j])
        dst = np.stack([p.center for p in poses_i])
        direct = solve_weighted_rigid(src, dst, np.ones(4))
        assert np.abs(T.rotation - direct.rotation).max() < 1e-9
        assert np.abs(T.translation - direct.translation).max() < 1e-9

    def test_refinement_never_hurts_on_consistent_data(self, rng):
        T_star = SimilarityTransform(1.0, random_rotation(rng), rng.normal(size=3))
        matches, ti, tj = self._matched_tracklets(rng, T_star, n_tracks=8)
        # noise on both sides; matches remain all correct
        ti, tj = (tracklets(t.positions + rng.normal(scale=0.01, size=t.positions.shape), t.frames)
                  for t in (ti, tj))
        poses_i = _overlap_poses(rng)
        poses_j = [T_star.apply_pose(p) for p in poses_i]
        # a deliberately sloppy static estimate
        wobble = SimilarityTransform(1.0, random_rotation(rng) * 0 + np.eye(3),
                                     rng.normal(scale=0.05, size=3))
        T_static = T_star.invert().compose(wobble)
        cfg = PipelineConfig()
        T_ref = refine_transform(matches, ti, tj, poses_i, poses_j, T_static, cfg)

        # evaluate both under the same correspondence weights
        src = tj.positions.reshape(-1, 3)
        dst = ti.positions.reshape(-1, 3)
        resid = np.linalg.norm(T_static.apply(src) - dst, axis=1)
        w = 1.0 / (1.0 + resid / resid.max())
        med = np.median(resid)
        w[resid > 5 * med] = 0.0
        cam_src = np.stack([p.center for p in poses_j])
        cam_dst = np.stack([p.center for p in poses_i])
        cam_w = cfg.lambda_cam * w[w > 0].mean()

        def loss(T):
            track = (w * np.linalg.norm(T.apply(src) - dst, axis=1) ** 2).sum()
            cam = (cam_w * np.linalg.norm(T.apply(cam_src) - cam_dst, axis=1) ** 2).sum()
            return track + cam

        assert loss(T_ref) <= loss(T_static) + 1e-12


def _is_identity(T: SimilarityTransform) -> bool:
    return (T.scale == 1.0 and np.array_equal(T.rotation, np.eye(3))
            and not T.translation.any())


class TestChooseTransform:
    A = SimilarityTransform(1.0, np.eye(3), np.array([1.0, 0, 0]))
    B = SimilarityTransform(1.0, np.eye(3), np.array([2.0, 0, 0]))

    @staticmethod
    def _abstraction(anchors=100, scale=5.0, scale_j=5.0):
        """Chunk i's scene scale ``scale`` and chunk j's ``scale_j``, each
        with its rigidity threshold at 1% of it."""
        static = np.arange(anchors + 10) < anchors
        return OverlapAbstraction(static, np.zeros_like(static), 0.01 * scale, scale, 0.01 * scale_j)

    def test_prefers_refined_with_enough_matches(self, rng):
        poses = _overlap_poses(rng)
        T, tier = choose_transform("full", self._abstraction(), (self.A, 1e-6), self.B,
                                   MIN_DYNAMIC_MATCHES, poses, poses)
        assert tier == "refined" and np.array_equal(T.translation, self.B.translation)

    def test_too_few_matches_falls_to_static(self, rng):
        poses = _overlap_poses(rng)
        T, tier = choose_transform("full", self._abstraction(), (self.A, 1e-6), self.B,
                                   MIN_DYNAMIC_MATCHES - 1, poses, poses)
        assert tier == "static" and np.array_equal(T.translation, self.A.translation)

    def test_weak_static_falls_to_pose(self, rng):
        T_star = SimilarityTransform(1.3, random_rotation(rng), rng.normal(size=3))
        poses_i = _overlap_poses(rng)
        poses_j = [T_star.apply_pose(p) for p in poses_i]
        # chunk j sees the scene T_star.scale times as far
        weak = self._abstraction(anchors=MIN_STATIC_ANCHORS - 1, scale_j=5.0 * T_star.scale)
        T, tier = choose_transform("full", weak, (SimilarityTransform.identity(), 1e-6), None, 0,
                                   poses_i, poses_j)
        assert tier == "pose"
        inv = T_star.invert()
        assert np.linalg.norm(T.rotation - inv.rotation) < 1e-9
        assert abs(T.scale - inv.scale) < 1e-9

    def test_high_residual_falls_to_pose(self, rng):
        poses = _overlap_poses(rng)
        _, tier = choose_transform("full", self._abstraction(anchors=100, scale=5.0),
                                   (SimilarityTransform.identity(), 10.0), None, 0, poses, poses)
        assert tier == "pose"

    def test_overlap_never_takes_pose(self, rng):
        """``overlap`` takes the trusted static transform, never the refined
        one, and the identity where ``full`` would fall back to pose."""
        poses = _overlap_poses(rng)
        T, tier = choose_transform("overlap", self._abstraction(), (self.A, 1e-6), self.B,
                                   MIN_DYNAMIC_MATCHES, poses, poses)
        assert tier == "static" and np.array_equal(T.translation, self.A.translation)
        untrusted = [
            (self._abstraction(), None),
            (self._abstraction(anchors=MIN_STATIC_ANCHORS - 1), (self.A, 1e-6)),
            (self._abstraction(scale=5.0), (self.A, 10.0)),
        ]
        for abstraction, static in untrusted:
            T, tier = choose_transform("overlap", abstraction, static, self.B,
                                       MIN_DYNAMIC_MATCHES, poses, poses)
            assert tier == "identity" and _is_identity(T)

    def test_base_ignores_every_input(self, rng):
        poses = _overlap_poses(rng)
        for args in ((None, None, None, 0, None, None),
                     (self._abstraction(), (self.A, 1e-6), self.B, MIN_DYNAMIC_MATCHES,
                      poses, poses)):
            T, tier = choose_transform("base", *args)
            assert tier == "base" and _is_identity(T)


RECIPE_TIERS = {
    "ablation_spec(0)": (ablation_spec, {"base": "base", "overlap": "static", "full": "refined"}),
    "dynamic_overlap_spec(0)": (dynamic_overlap_spec,
                                {"base": "base", "overlap": "identity", "full": "refined"}),
}


@pytest.mark.parametrize("recipe", sorted(RECIPE_TIERS))
def test_recipe_junction_tiers(recipe):
    """The tier each ablation takes at every junction of a frozen recipe:
    ``dynamic_overlap_spec`` has no trusted static anchors, so ``overlap``
    leaves its chunks unaligned."""
    make_spec, tiers = RECIPE_TIERS[recipe]
    spec, cfg = make_spec(0), ablation_config()
    chunks = list(emit_chunks(generate(spec), cfg, spec).chunks)
    for ablation, tier in tiers.items():
        reports = fuse_sequence(chunks, cfg, ablation=ablation, frame_sink=[].append).reports
        assert len(reports) == len(chunks) - 1
        assert [r.tier for r in reports] == [tier] * len(reports), ablation
        if tier in ("base", "identity"):
            assert all(_is_identity(r.pair_transform) for r in reports)


def _few_static_pixels_junction(rng, pixels):
    """Two 8-frame chunks, four frames shared, the second in a random
    gauge. Their overlap holds the confident static ``pixels``, their
    samples noisy in each chunk alone, and four confident rows moving too
    fast to be rigid; every other pixel has zero confidence."""
    T, grid, L = 12, 8, 8
    rows, cols = np.array(pixels).T
    base = rng.normal(size=(grid, grid, 3)) + [0.0, 0.0, 5.0]
    world = np.broadcast_to(base, (T, grid, grid, 3)).copy()
    world[:, :4] += np.arange(T)[:, None, None, None] * np.array([0.3, 0.05, 0.0])
    conf = np.zeros((T, grid, grid))
    conf[:, :4] = 1.0
    conf[:, rows, cols] = 1.0
    centers = np.stack([[0.02 * t, 0.01 * np.sin(t), -1.0 + 0.015 * t] for t in range(T)])
    gauge = SimilarityTransform(1.4, random_rotation(rng), rng.normal(size=3))
    chunks = []
    for k, (start, g) in enumerate(((0, SimilarityTransform.identity()), (4, gauge))):
        points = world[start:start + L].copy()
        points[:, rows, cols] += rng.normal(scale=1e-3, size=(L, len(pixels), 3))
        poses = tuple(g.apply_pose(Pose(np.eye(3), c)) for c in centers[start:start + L])
        chunks.append(Chunk(k, start, g.apply(points), conf[start:start + L].copy(), poses))
    return chunks


def test_untrusted_static_does_not_seed_association(rng, monkeypatch):
    """A static transform solved on the samples of a few pixels is fitted
    to their noise, and on one pixel none is solved: either way
    association starts from the cameras."""
    gate = fusion.gate_candidates
    for pixels in ([(6, 6)], [(6, 6), (6, 7), (7, 6)]):
        prev, cur = _few_static_pixels_junction(rng, pixels)
        cfg = PipelineConfig(chunk_length=8, overlap=4,
                             gamma_stat_frac=frac_for(0.1, prev, range(4, 8)))
        seeds = []

        def recording_gate(raw_i, aligned_j, gamma_p):
            seeds.append(aligned_j)
            return gate(raw_i, aligned_j, gamma_p)

        monkeypatch.setattr(fusion, "gate_candidates", recording_gate)
        report, _, _, raw_j = fusion._align_pair(prev, cur, cfg, "full")
        # fewer than 3 pixels are refused; three are solved, and not trusted
        assert report.num_static == len(pixels)
        assert (report.static_rms is not None) == (len(pixels) >= 3)
        overlap = slice_overlap(prev, cur)
        cameras = pose_only_transform(overlap.poses_i, overlap.poses_j,
                                      camera_scale(select_anchors(overlap, cfg)))
        assert ref.same_bits(seeds[0].positions, raw_j.transformed(cameras).positions)


@pytest.mark.parametrize("seed", range(6))
def test_dynamic_overlap_full_epe_bound(seed):
    """``full`` on ``dynamic_overlap_spec``, whose static sets are never
    trusted, keeps EPE below 0.17. The bound is 10% above the largest of
    seeds 0-2 when it was set (0.1405, 0.1411, 0.1538); seeds 3-5 were held
    out and gave 0.1418, 0.1413 and 0.1447. Association seeded from a
    static transform fitted to one pixel gave 0.3775 on seed 0."""
    spec, cfg = dynamic_overlap_spec(seed), ablation_config()
    gt = generate(spec)
    frames = []
    fused = fuse_sequence(emit_chunks(gt, cfg, spec).chunks, cfg, "full", frame_sink=frames.append)
    table = build_fused_table(SimpleNamespace(frames=frames, trajectories=fused.trajectories))
    assert dense_epe(table, gt.trajectory_table()) < 0.17


NOISY_RECIPES = {
    "ablation_spec": (ablation_spec, ablation_config),
    "association_spec": (association_spec, association_config),
    "dynamic_overlap_spec": (dynamic_overlap_spec, ablation_config),
}


def _noisy_recipe(recipe: str, seed: int):
    """Ground truth, config, true chunk gauges and the chunks of a recipe,
    their cameras noisy (``scenes.with_camera_noise``)."""
    make_spec, make_cfg = NOISY_RECIPES[recipe]
    spec, cfg = make_spec(seed), make_cfg()
    gt = generate(spec)
    emitted = emit_chunks(gt, cfg, spec)
    return gt, cfg, emitted.gauges, with_camera_noise(emitted, gt.scene_scale, spec.seed)


def _camera_transforms(chunks, cfg):
    """The ``pose`` tier's transform at each junction of ``chunks``: what
    ``full`` takes where no static or refined transform is solved."""
    for prev, cur in zip(chunks, chunks[1:]):
        overlap = slice_overlap(prev, cur)
        T, tier = choose_transform("full", select_anchors(overlap, cfg), None, None, 0,
                                   overlap.poses_i, overlap.poses_j)
        assert tier == "pose"
        yield T


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("recipe", sorted(NOISY_RECIPES))
def test_camera_scale_under_camera_noise(recipe, seed):
    """With noisy cameras, the ``pose`` tier's scale at every junction is
    within 0.4% of the true one. The bound is the largest error of seeds
    0-2 on the three recipes (0.337%), plus 10% and rounded up; seeds 3-5
    were held out and gave at most 0.359%. The ratio of the centre spreads
    that the depth ratio replaced was off by 16-126%."""
    _, cfg, gauges, chunks = _noisy_recipe(recipe, seed)
    for k, T in enumerate(_camera_transforms(chunks, cfg)):
        assert abs(T.scale * gauges[k + 1].scale / gauges[k].scale - 1.0) < 0.004


@pytest.mark.parametrize("seed", range(6))
def test_dynamic_overlap_full_epe_bound_under_camera_noise(seed):
    """``full`` on ``dynamic_overlap_spec`` seeds association from the
    cameras, and keeps the bound of exact cameras, 0.17, with noisy ones:
    0.140, 0.144 and 0.154 on seeds 0-2, 0.143, 0.141 and 0.147 on seeds
    3-5 held out. The centre-spread scale gave 1.12-2.13, with some
    junctions falling to the cameras."""
    gt, cfg, _, chunks = _noisy_recipe("dynamic_overlap_spec", seed)
    frames = []
    fused = fuse_sequence(chunks, cfg, "full", frame_sink=frames.append)
    table = build_fused_table(SimpleNamespace(frames=frames, trajectories=fused.trajectories))
    assert dense_epe(table, gt.trajectory_table()) < 0.17


# EPE of the camera baseline on ``ablation_spec`` with noisy cameras
CAMERA_BASELINE_EPE = {
    0: 0.13720883953608734,
    1: 0.16087018293178096,
    2: 0.14513592691124258,
    3: 0.17110177407154353,
    4: 0.1225497185669276,
    5: 0.12862827690803771,
}


@pytest.mark.parametrize("seed", sorted(CAMERA_BASELINE_EPE))
def test_camera_baseline_epe_under_camera_noise(seed):
    """The camera baseline, the ``pose`` tier at every junction and no
    association, on ``ablation_spec`` with noisy cameras: the figure
    ``full`` is to reach. The centre-spread scale gave 1.15-2.44."""
    gt, cfg, _, chunks = _noisy_recipe("ablation_spec", seed)
    G, points = SimilarityTransform.identity(), [chunks[0].points]
    for T, prev, cur in zip(_camera_transforms(chunks, cfg), chunks, chunks[1:]):
        G = G.compose(T)
        points.append(G.apply(cur.points[prev.end_frame + 1 - cur.start_frame:]))
    epe = dense_epe(TrackTable(np.concatenate(points)), gt.trajectory_table())
    assert epe == pytest.approx(CAMERA_BASELINE_EPE[seed], abs=1e-6)


def _collapsed_chunks(collapsed: int):
    """Chunks [0, 7] and [4, 11] of a static scene in one gauge, with
    unit confidence. In chunk ``collapsed``, the points of five of the
    eight rows sit on their frame's camera, so its median
    camera-to-point distance is 0."""
    T, grid = 12, 8
    base = np.random.default_rng(0).normal(size=(grid, grid, 3)) + [0.0, 0.0, 5.0]
    world = np.broadcast_to(base, (T, grid, grid, 3)).copy()
    centers = np.array([[0.02 * t, 0.01 * np.sin(t), -1.0 + 0.015 * t] for t in range(T)])
    chunks = []
    for k, start in enumerate((0, 4)):
        points = world[start:start + 8].copy()
        if k == collapsed:
            points[:, :5] = centers[start:start + 8, None, None]
        chunks.append(make_chunk(points, chunk_id=k, start_frame=start, centers=centers[start:start + 8]))
    return chunks


@pytest.mark.parametrize("collapsed", [0, 1])
def test_zero_median_distance_keeps_unit_camera_scale(collapsed):
    """A median distance of 0 leaves no depth ratio: the camera tier takes
    scale 1 and the ``full`` fuse completes."""
    chunks = _collapsed_chunks(collapsed)
    cfg = PipelineConfig(chunk_length=8, overlap=4)
    assert camera_scale(select_anchors(slice_overlap(*chunks), cfg)) == 1.0
    (report,) = fuse_sequence(chunks, cfg, "full", frame_sink=[].append).reports
    assert report.tier == "pose" and report.pair_transform.scale == 1.0


def _one_mover_chunks():
    """Chunks [0, 9] and [6, 15] of a flat 8x8 wall in one gauge, the
    camera drifting, with one pixel moving at constant velocity: the one
    match at their junction moves on a line."""
    T, grid = 16, 8
    rows, cols = np.mgrid[:grid, :grid]
    wall = np.stack([0.2 * cols, 0.2 * rows, np.full((grid, grid), 5.0)], axis=-1).astype(float)
    world = np.broadcast_to(wall, (T, grid, grid, 3)).copy()
    world[:, 3, 4] += np.arange(T)[:, None] * np.array([0.2, 0.0, 0.0])
    centers = [[0.02 * t, 0.01 * np.sin(t), -1.0 + 0.015 * t] for t in range(T)]
    return [make_chunk(world[s:e + 1], chunk_id=k, start_frame=s, centers=centers[s:e + 1])
            for k, (s, e) in enumerate(((0, 9), (6, 15)))]


def test_refinement_on_a_line_falls_back_to_static():
    """With no camera weight the refinement sees only the samples of one
    match, on a line, which fix no rotation: the junction falls back to
    the trusted static transform and keeps its match."""
    cfg = PipelineConfig(chunk_length=10, overlap=4, lambda_cam=0.0, seed_stride=1,
                         min_displacement=0.1)
    fused = fuse_sequence(_one_mover_chunks(), cfg, "full", frame_sink=[].append)
    (report,) = fused.reports
    assert report.tier == "static"
    assert report.num_matches == 1


class TestPoseOnly:
    def test_exact_recovery(self, rng):
        T_star = SimilarityTransform(1.6, random_rotation(rng), rng.normal(size=3))
        poses_i = _overlap_poses(rng, n=5)
        poses_j = [T_star.apply_pose(p) for p in poses_i]
        inv = T_star.invert()
        T = pose_only_transform(poses_i, poses_j, inv.scale)
        assert np.linalg.norm(T.rotation - inv.rotation) < 1e-9
        assert abs(T.scale - inv.scale) < 1e-9
        assert np.linalg.norm(T.translation - inv.translation) < 1e-9

    def test_collinear_centers_degrade_to_averaged_rotation(self, rng):
        T_star = SimilarityTransform(0.7, random_rotation(rng), rng.normal(size=3))
        poses_i = _overlap_poses(rng, n=4, collinear=True)
        poses_j = [T_star.apply_pose(p) for p in poses_i]
        inv = T_star.invert()
        T = pose_only_transform(poses_i, poses_j, inv.scale)
        assert np.linalg.norm(T.rotation - inv.rotation) < 1e-9
        assert abs(T.scale - inv.scale) < 1e-9
        assert np.linalg.norm(T.translation - inv.translation) < 1e-9

    def test_coincident_centers_keep_unit_scale(self, rng):
        """Centres of chunk i that coincide leave the transform defined: it
        keeps the unit scale it is given, and the centre means still map
        onto each other."""
        center = np.array([0.3, -0.2, 1.0])
        poses_i = [Pose(random_rotation(rng), center) for _ in range(4)]
        poses_j = _overlap_poses(rng, n=4)
        T = pose_only_transform(poses_i, poses_j, 1.0)
        assert T.scale == 1.0
        mean_j = np.mean([p.center for p in poses_j], axis=0)
        assert np.linalg.norm(T.apply(mean_j) - center) < 1e-12


class TestFuseSequence:
    def _static_chunks(self, rng, gauges, grid=10, L=8, O=4):
        base = rng.normal(size=(grid, grid, 3)) + np.array([0, 0, 5.0])
        num = L + (len(gauges) - 1) * (L - O)
        pts = np.broadcast_to(base, (num, grid, grid, 3)).copy()
        centers = np.stack([np.array([0.02 * t, 0.01 * np.sin(t), -1.0 + 0.015 * t])
                            for t in range(num)])
        chunks = []
        start = 0
        for k, g in enumerate(gauges):
            end = min(start + L - 1, num - 1)
            poses = tuple(g.apply_pose(Pose(np.eye(3), c)) for c in centers[start:end + 1])
            chunks.append(Chunk(k, start, g.apply(pts[start:end + 1]),
                                np.ones((end - start + 1, grid, grid)), poses))
            start = end - O + 1
        return chunks

    def test_single_chunk_identity(self, rng):
        chunk = make_chunk(rng.normal(size=(5, 4, 4, 3)))
        frames = []
        fused = fuse_sequence([chunk], PipelineConfig(chunk_length=16, overlap=4),
                              frame_sink=frames.append)
        assert len(frames) == 5
        assert len(fused.chunk_transforms) == 1
        assert fused.chunk_transforms[0].scale == 1.0
        assert fused.trajectories == []
        for got, want in zip(frames, chunk.frames):
            assert np.array_equal(got.points, want.points)

    def test_injected_gauges_recovered_over_three_chunks(self, rng):
        gauges = [SimilarityTransform.identity()] + [
            SimilarityTransform(float(rng.uniform(0.5, 2.0)), random_rotation(rng),
                                rng.normal(size=3))
            for _ in range(2)
        ]
        chunks = self._static_chunks(rng, gauges)
        # a threshold of 0.1 in chunk 0 at the first junction, scaled with each gauge
        cfg = PipelineConfig(chunk_length=8, overlap=4,
                             gamma_stat_frac=frac_for(0.1, chunks[0], range(4, 8)))
        fused = fuse_sequence(chunks, cfg, frame_sink=[].append)
        for k, G in enumerate(fused.chunk_transforms):
            expect = gauges[k].invert()
            assert np.abs(G.rotation - expect.rotation).max() < 1e-9
            assert abs(G.scale - expect.scale) < 1e-9
            assert np.abs(G.translation - expect.translation).max() < 1e-9
        assert [r.tier for r in fused.reports] == ["static", "static"]

    def test_ablation_flag_validated(self, rng):
        chunk = make_chunk(rng.normal(size=(5, 4, 4, 3)))
        with pytest.raises(ValueError):
            fuse_sequence([chunk], PipelineConfig(), ablation="everything", frame_sink=[].append)

    def test_frame_sink_streams_everything(self, rng):
        gauges = [SimilarityTransform.identity(),
                  SimilarityTransform(1.2, random_rotation(rng), rng.normal(size=3))]
        chunks = self._static_chunks(rng, gauges)
        seen = []
        cfg = PipelineConfig(chunk_length=8, overlap=4,
                             gamma_stat_frac=frac_for(0.1, chunks[0], range(4, 8)))
        fused = fuse_sequence(chunks, cfg, frame_sink=seen.append)
        assert len(fused.chunk_transforms) == 2
        assert [fp.frame_index for fp in seen] == list(range(12))


class TestBoundaryHoles:
    @staticmethod
    def _trajectory_from(fused, source):
        (tr,) = [t for t in fused.trajectories if source in t.sources]
        return tr

    def test_hole_after_junction_is_filled(self, chunks_with_hole):
        chunks, chunk_j, b, pixel = chunks_with_hole
        fused = fuse_sequence(chunks, HOLE_CFG, frame_sink=[].append)
        tr = self._trajectory_from(fused, (chunk_j, b, pixel))
        junction = chunks[0].end_frame
        bw = HOLE_CFG.overlap
        assert tr.frames[0] <= junction - bw + 1 and tr.frames[-1] >= junction + bw
        assert np.isfinite(tr.positions).all()

    def test_hole_without_smoothness_leaves_match_unstitched(self, chunks_with_hole):
        chunks, chunk_j, b, pixel = chunks_with_hole
        fused = fuse_sequence(chunks, PipelineConfig(**{**HOLE_CFG.to_dict(), "lambda_sm": 0.0}),
                              frame_sink=[].append)
        tr = self._trajectory_from(fused, (chunk_j, b, pixel))
        assert tr.sources[0] == (chunk_j, b, pixel)
        assert tr.frames[0] == chunks[1].start_frame


@pytest.mark.parametrize("chunk_length, overlap", [(16, 2), (40, 7)])
def test_fuse_ignores_the_chunk_plan_of_its_config(chunk_length, overlap):
    """A junction takes its stitch window from the frames its chunks
    share, so the config's chunk plan leaves a fuse as it was."""
    spec = identity_span_spec()
    chunks = list(emit_chunks(generate(spec), HOLE_CFG, spec).chunks)
    other = PipelineConfig(**{**HOLE_CFG.to_dict(), "chunk_length": chunk_length, "overlap": overlap})
    want, got = (fuse_sequence(chunks, cfg, "full", frame_sink=[].append) for cfg in (HOLE_CFG, other))
    assert ([(t.trajectory_id, t.frames, t.positions.tobytes()) for t in got.trajectories]
            == [(t.trajectory_id, t.frames, t.positions.tobytes()) for t in want.trajectories])
    assert ([(T.scale, T.rotation.tobytes(), T.translation.tobytes()) for T in got.chunk_transforms]
            == [(T.scale, T.rotation.tobytes(), T.translation.tobytes()) for T in want.chunk_transforms])
    assert ([(i, j, m.matches, m.unmatched_i, m.unmatched_j) for i, j, m, _, _ in got.match_sets]
            == [(i, j, m.matches, m.unmatched_i, m.unmatched_j) for i, j, m, _, _ in want.match_sets])


def assert_stitched_like_reference(chunks, cfg, monkeypatch):
    """A ``full`` fuse's trajectories equal the reference stitcher's in
    ids, frames, sources and position bytes; ids count up from 0 and start
    frames never decrease with id."""
    got = fuse_sequence(chunks, cfg, "full", frame_sink=[].append).trajectories
    with monkeypatch.context() as mp:
        mp.setattr(fusion, "_Stitcher", lambda grid_shape: ref.Stitcher())
        want = fuse_sequence(chunks, cfg, "full", frame_sink=[].append).trajectories
    assert ([(t.trajectory_id, t.frames, t.sources) for t in got]
            == [(t.trajectory_id, t.frames, t.sources) for t in want])
    assert [t.positions.tobytes() for t in got] == [t.positions.tobytes() for t in want]
    assert [t.trajectory_id for t in got] == list(range(len(got)))
    starts = [t.frames[0] for t in got]
    assert starts == sorted(starts)


GAUGE_RECOVERY_CFG = PipelineConfig(chunk_length=8, overlap=4, seed_stride=1, min_displacement=0.05)
STITCH_RECIPES = {
    "ablation_spec(0)": (lambda: ablation_spec(0), ablation_config),
    "association_spec(0)": (lambda: association_spec(0), association_config),
    "dynamic_overlap_spec(0)": (lambda: dynamic_overlap_spec(0), ablation_config),
    "gauge_recovery_spec()": (gauge_recovery_spec, lambda: GAUGE_RECOVERY_CFG),
}


@pytest.mark.parametrize("recipe", sorted(STITCH_RECIPES))
def test_stitcher_matches_reference(recipe, monkeypatch):
    make_spec, make_cfg = STITCH_RECIPES[recipe]
    spec, cfg = make_spec(), make_cfg()
    chunks = list(emit_chunks(generate(spec), cfg, spec).chunks)
    assert_stitched_like_reference(chunks, cfg, monkeypatch)


@pytest.mark.parametrize("lambda_sm", [HOLE_CFG.lambda_sm, 0.0], ids=["HOLE_CFG", "lambda_sm=0"])
def test_stitcher_matches_reference_across_a_hole(chunks_with_hole, lambda_sm, monkeypatch):
    """At ``lambda_sm`` 0 the match across the hole is left unstitched."""
    chunks = chunks_with_hole[0]
    cfg = PipelineConfig(**{**HOLE_CFG.to_dict(), "lambda_sm": lambda_sm})
    assert_stitched_like_reference(chunks, cfg, monkeypatch)


FRAME_RECIPES = {
    "ablation_spec(0)": (lambda: ablation_spec(0), ablation_config()),
    "association_spec(0)": (lambda: association_spec(0), association_config()),
    "dynamic_overlap_spec(0)": (lambda: dynamic_overlap_spec(0), ablation_config()),
    "end_to_end_spec()": (end_to_end_spec, ablation_config()),
    "gauge_recovery_spec()": (gauge_recovery_spec, GAUGE_RECOVERY_CFG),
    "identity_span_spec()": (identity_span_spec, ablation_config()),
}


@pytest.mark.parametrize("recipe", sorted(FRAME_RECIPES))
def test_fused_frames_match_per_frame_mapping(recipe):
    """Every frame the sink receives has the bytes of mapping that frame
    alone by its chunk's transform, under every ablation."""
    make_spec, cfg = FRAME_RECIPES[recipe]
    spec = make_spec()
    chunks = list(emit_chunks(generate(spec), cfg, spec).chunks)
    for ablation in ("base", "overlap", "full"):
        got = []
        fused = fuse_sequence(chunks, cfg, ablation, frame_sink=got.append)
        want = [ref.map_frame(fp, G)
                for k, (chunk, G) in enumerate(zip(chunks, fused.chunk_transforms))
                for fp in chunk.frames if k == 0 or fp.frame_index > chunks[k - 1].end_frame]
        assert [fp.frame_index for fp in got] == list(range(fused.num_frames)), ablation
        assert [fp.frame_index for fp in want] == list(range(fused.num_frames)), ablation
        for g, w in zip(got, want):
            assert g.points.tobytes() == w.points.tobytes(), (ablation, g.frame_index)
            assert g.confidence.tobytes() == w.confidence.tobytes()
            assert g.pose.rotation.tobytes() == w.pose.rotation.tobytes()
            assert g.pose.translation.tobytes() == w.pose.translation.tobytes()
