import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as ref
from chunkfuse import metrics
from chunkfuse.association import MatchSet
from chunkfuse.errors import DegenerateConfiguration, KeyMismatch, NotEnoughPoints
from chunkfuse.fusion import Trajectory
from chunkfuse.metrics import (
    align_trajectories,
    ate,
    build_fused_table,
    dense_epe,
    format_metrics_table,
    junction_prf,
    object_level_prf,
    rotation_angle_deg,
    rpe,
)
from chunkfuse.io import POSE_STORAGE_TOL
from chunkfuse.model import Pose, SimilarityTransform, TrackTable, finite3
from chunkfuse.registration import solve_weighted_similarity
from chunkfuse.synthetic import GroundTruth
from conftest import make_chunk, random_rotation, rot_z


def random_poses(rng, n=8):
    centers = np.cumsum(rng.normal(scale=0.3, size=(n, 3)), axis=0)
    return [Pose(random_rotation(rng), c) for c in centers]


def gauge_poses(poses, T):
    return [T.apply_pose(p) for p in poses]


class TestAlign:
    def test_identity(self, rng):
        poses = random_poses(rng)
        T = align_trajectories(poses, poses)
        assert abs(T.scale - 1.0) < 1e-9
        assert np.abs(T.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(T.translation).max() < 1e-9

    def test_recovers_gauge(self, rng):
        gt = random_poses(rng)
        T_star = SimilarityTransform(1.8, random_rotation(rng), rng.normal(size=3))
        pred = gauge_poses(gt, T_star)
        T = align_trajectories(pred, gt)
        inv = T_star.invert()
        assert np.abs(T.rotation - inv.rotation).max() < 1e-9
        assert abs(T.scale - inv.scale) < 1e-9
        assert np.abs(T.translation - inv.translation).max() < 1e-9

    def test_two_poses_raise(self, rng):
        poses = random_poses(rng, n=2)
        with pytest.raises(NotEnoughPoints):
            align_trajectories(poses, poses)

    def test_collinear_falls_back_to_translation(self, rng):
        centers = np.outer(np.arange(5.0), [1.0, 0.0, 0.0])
        gt = [Pose(np.eye(3), c) for c in centers]
        pred = [Pose(np.eye(3), c + [0.0, 2.0, 0.0]) for c in centers]
        T = align_trajectories(pred, gt)
        assert np.array_equal(T.rotation, np.eye(3))
        assert T.scale == 1.0
        assert np.allclose(T.translation, [0.0, -2.0, 0.0], atol=1e-12)


class TestAte:
    def test_identical_zero(self, rng):
        poses = random_poses(rng)
        assert ate(poses, poses) < 1e-12

    def test_uniform_offset_absorbed(self, rng):
        gt = random_poses(rng)
        pred = [Pose(p.rotation, p.center + [0.5, -0.2, 1.0]) for p in gt]
        assert ate(pred, gt) < 1e-9

    def test_hand_built_formula(self):
        # centers form a unit square; prediction shifts two corners by +z.
        gt_centers = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float)
        offset = np.array([0, 0, 0.2])
        pred_centers = gt_centers + np.array([offset, -offset, offset, -offset])
        gt = [Pose(np.eye(3), c) for c in gt_centers]
        pred = [Pose(np.eye(3), c) for c in pred_centers]
        # centred, the prediction is (+-0.5, +-0.5, +-0.2) and uncorrelated
        # with z, so Sim(3) keeps R = I and shrinks by s = 0.5 / 0.54 = 25/27:
        # per pose the error is (1/27, 1/27) in x, y and 5/27 in z, so
        # ATE^2 = (1 + 1 + 25) / 27^2 = 1/27
        value = ate(pred, gt)
        assert value == pytest.approx(1.0 / math.sqrt(27.0), rel=1e-12)

    def test_similarity_invariance(self, rng):
        gt = random_poses(rng)
        pred = [Pose(p.rotation, p.center + rng.normal(scale=0.05, size=3)) for p in gt]
        base = ate(pred, gt)
        T = SimilarityTransform(2.3, random_rotation(rng), rng.normal(size=3))
        assert ate(gauge_poses(pred, T), gt) == pytest.approx(base, abs=1e-9)


class TestRpe:
    def test_identical_zero(self, rng):
        poses = random_poses(rng)
        for delta in (1, 2, 5):
            t, r = rpe(poses, poses, delta)
            assert t < 1e-12 and r < 1e-5

    def test_constant_extra_rotation(self):
        theta = np.radians(7.5)
        n = 10
        gt = [Pose(np.eye(3), np.zeros(3)) for _ in range(n)]
        pred = [Pose(rot_z(theta * k), np.zeros(3)) for k in range(n)]
        t, r = rpe(pred, gt, delta=1)
        assert t < 1e-12
        assert r == pytest.approx(7.5, abs=1e-9)

    def test_single_pose_raises(self):
        poses = [Pose(np.eye(3), np.zeros(3))]
        with pytest.raises(NotEnoughPoints):
            rpe(poses, poses, 1)

    @staticmethod
    def _random_poses(rng, n):
        """Random poses, each at the default tolerance or, at random, written
        as float32 and read back at the container's tolerance."""
        poses = [Pose(random_rotation(rng), rng.normal(scale=2.0, size=3)) for _ in range(n)]
        stored = Pose.from_matrices(np.stack([p.matrix() for p in poses]).astype(np.float32),
                                    POSE_STORAGE_TOL)
        return [q if rng.random() < 0.5 else p for p, q in zip(poses, stored)]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 36))
    @settings(max_examples=80, deadline=None)
    def test_stacked_same_bits_as_per_pose(self, seed, delta, extra):
        rng = np.random.default_rng(seed)
        n = delta + 1 + extra
        pred, gt = self._random_poses(rng, n), self._random_poses(rng, n)
        got, want = rpe(pred, gt, delta), ref.rpe(pred, gt, delta)
        assert ref.same_bits(got, want), (got, want)

    def test_derived_rotation_not_checked_again(self, rng):
        # each pose passes at the storage tolerance, but the relative
        # motion of two such poses deviates about twice as far, past it:
        # legal input, so the RPE is the per-pose reference's
        m = np.stack([np.eye(4)] * 6)
        m[:, :3, :3] = [random_rotation(rng) * (1.0 + 3e-5) for _ in range(6)]
        m[:, :3, 3] = rng.normal(size=(6, 3))
        pred = Pose.from_matrices(m, POSE_STORAGE_TOL)
        gt = random_poses(rng, 6)
        rel = ref.compose(ref.inverse(pred[0]), pred[2])
        assert np.abs(rel.rotation.T @ rel.rotation - np.eye(3)).max() > POSE_STORAGE_TOL
        got = rpe(pred, gt, 2)
        assert all(map(math.isfinite, got))
        assert ref.same_bits(got, ref.rpe(pred, gt, 2))

    def test_rotation_angle_clamped(self):
        R = np.eye(3) * (1 + 1e-12)
        R = R / np.cbrt(np.linalg.det(R))
        assert rotation_angle_deg(np.eye(3)) == 0.0


class TestDenseEpe:
    def _tables(self, rng, n_seeds=9, n_frames=12):
        gt = {}
        for k in range(n_seeds):
            gt[(k, 0)] = np.cumsum(rng.normal(size=(n_frames, 3)), axis=0)
        return gt

    def test_identical_zero(self, rng):
        gt = self._tables(rng)
        assert dense_epe(gt, gt) < 1e-12

    def test_non_finite_samples_skipped(self, rng):
        gt = self._tables(rng)
        pred = {k: v + rng.normal(scale=0.1, size=v.shape) for k, v in gt.items()}
        holed_pred, holed_gt = dict(pred), dict(gt)
        holed_pred[(2, 0)] = pred[(2, 0)].copy()
        holed_pred[(2, 0)][5] = np.nan
        holed_gt[(4, 0)] = gt[(4, 0)].copy()
        holed_gt[(4, 0)][7, 1] = np.inf
        # the same samples with the holes left out, in the same frame-major
        # order, as tracks of one sample each, keyed in that order
        keys = sorted(gt)
        kept = np.ones((12, len(keys)), dtype=bool)
        kept[5, keys.index((2, 0))] = kept[7, keys.index((4, 0))] = False
        kept_pred, kept_gt = (
            {(i, 0): sample[None] for i, sample in enumerate(np.stack([t[k] for k in keys], axis=1)[kept])}
            for t in (pred, gt)
        )
        assert dense_epe(holed_pred, holed_gt) == dense_epe(kept_pred, kept_gt)

    def test_uniform_offset_absorbed(self, rng):
        gt = self._tables(rng)
        pred = {k: v + np.array([1.0, -2.0, 0.5]) for k, v in gt.items()}
        assert dense_epe(pred, gt) < 1e-9

    def test_key_mismatch(self, rng):
        gt = self._tables(rng)
        pred = dict(gt)
        pred.pop((0, 0))
        with pytest.raises(KeyMismatch):
            dense_epe(pred, gt)

    def test_gaussian_noise_matches_monte_carlo_oracle(self, rng):
        # analytic: E||N(0, s^2 I3)|| = s * sqrt(8 / pi); brute-force MC check
        sigma = 0.05
        mc = np.linalg.norm(rng.normal(scale=sigma, size=(200_000, 3)), axis=1).mean()
        expect = sigma * np.sqrt(8.0 / np.pi)
        assert mc == pytest.approx(expect, rel=0.01)
        gt = self._tables(rng, n_seeds=60, n_frames=40)
        pred = {k: v + rng.normal(scale=sigma, size=v.shape) for k, v in gt.items()}
        assert dense_epe(pred, gt) == pytest.approx(expect, rel=0.02)

    def test_monotone_in_noise(self, rng):
        gt = self._tables(rng, n_seeds=40, n_frames=30)
        values = []
        for sigma in (0.0, 0.01, 0.03, 0.1, 0.3):
            errs = []
            for seed in range(5):
                local = np.random.default_rng(seed)
                pred = {k: v + local.normal(scale=sigma, size=v.shape) for k, v in gt.items()}
                errs.append(dense_epe(pred, gt))
            values.append(np.mean(errs))
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


@st.composite
def fused_scenes(draw):
    """A small fused scene, its frames a chunk's, and its ground truth,
    with holes in either and trajectories whose roots repeat or lie off
    the grid; sometimes all trajectories share one root, and sometimes the
    last one is rooted at pixel (0, 0) from frame 0, so that it replaces
    the first sample."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T, H, W = draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    gt = np.cumsum(rng.normal(size=(T, H, W, 3)), axis=0)
    gauge = SimilarityTransform(float(rng.uniform(0.5, 2.0)), random_rotation(rng), rng.normal(size=3))
    pred = gauge.apply(gt + rng.normal(scale=0.05, size=gt.shape))
    for points in (pred, gt):
        for _ in range(draw(st.integers(0, 3))):
            points[rng.integers(T), rng.integers(H), rng.integers(W), rng.integers(3)] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
    roots = [(int(rng.integers(H + 1)), int(rng.integers(W))) for _ in range(draw(st.sampled_from([1, 3])))]

    def trajectory(tid, frames, root):
        positions = pred[list(frames), 0, 0] + rng.normal(size=(len(frames), 3))
        if len(frames) and rng.random() < 0.2:
            positions[rng.integers(len(frames))] = np.nan
        return Trajectory(tid, frames, positions, ((0, tid, root),))

    trajectories = []
    for tid in range(draw(st.integers(0, 8))):
        start = int(rng.integers(T))
        frames = tuple(range(start, start + int(rng.integers(T - start + 1))))
        tr = trajectory(tid, frames, roots[rng.integers(len(roots))])
        trajectories.append(tr if rng.random() >= 0.1 else dataclasses.replace(tr, sources=()))
    if draw(st.booleans()):
        trajectories.append(trajectory(len(trajectories), tuple(range(int(rng.integers(1, T + 1)))), (0, 0)))
    # a chunk takes no hole where its confidence is not 0
    chunk = make_chunk(pred, finite3(pred).astype(float))
    fused = SimpleNamespace(frames=chunk.frames, trajectories=trajectories)
    truth = GroundTruth(points=gt, poses=[], object_ids=np.full((H, W), -1),
                        visible=np.ones((T, H, W), dtype=bool), scene_scale=1.0)
    return fused, truth


def fused_tables(fused):
    """``build_fused_table`` of ``fused`` both ways: over its chunk's stack,
    read in place, and over copies of its frames, stacked."""
    in_place = build_fused_table(fused)
    assert np.shares_memory(in_place.points, fused.frames[0].points)
    copies = [SimpleNamespace(points=np.array(fp.points)) for fp in fused.frames]
    stacked = build_fused_table(SimpleNamespace(frames=copies, trajectories=fused.trajectories))
    assert not np.shares_memory(stacked.points, fused.frames[0].points)
    return in_place, stacked


def _epe_outcome(epe, pred, gt):
    """The EPE, or the type of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            return epe(pred, gt)
    except (NotEnoughPoints, DegenerateConfiguration, np.linalg.LinAlgError, ValueError) as e:
        return type(e)


def _same(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return ref.same_bits(a, b)


def _check_epe(tables, dicts):
    """Each (pred, gt) pair of ``tables`` gives the bits and errors of the
    frozen streaming EPE on the per-pixel ``dicts``, and the whole-array
    solve's EPE on them within its stated tolerance."""
    expected = _epe_outcome(ref.streamed_dense_epe, *dicts)
    for pred, gt in tables:
        assert _same(_epe_outcome(dense_epe, pred, gt), expected)
    old = _epe_outcome(ref.dense_epe, *dicts)
    if isinstance(old, type) or isinstance(expected, type):
        assert expected is old
    else:
        assert abs(expected - old) <= ref.dense_epe_tolerance(*dicts, old)


class TestDenseTables:
    """Dense seed-pixel tables against the per-pixel dicts they replaced."""

    @given(fused_scenes())
    @settings(max_examples=200, deadline=None)
    def test_tables_match_dicts(self, scene):
        fused, truth = scene
        pred_dict = ref.build_fused_table(fused)
        for dense, expected in (
            *((table, pred_dict) for table in fused_tables(fused)),
            (truth.trajectory_table(), ref.trajectory_table(truth.points)),
        ):
            assert list(dense) == list(expected)
            for k, track in expected.items():
                assert ref.same_bits(dense[k], track)

    @given(fused_scenes())
    @settings(max_examples=200, deadline=None)
    def test_dense_epe_matches_dicts(self, scene):
        """Tables, built both ways, dicts and both mixed give the bits and
        errors of the frozen streaming EPE, and the whole-array solve's EPE
        within its stated tolerance, with the fused table on either side."""
        fused, truth = scene
        gt, gt_dict = truth.trajectory_table(), ref.trajectory_table(truth.points)
        pred_dict = ref.build_fused_table(fused)
        for pred in fused_tables(fused):
            tables = [(pred, gt), (pred_dict, gt_dict), (pred, gt_dict), (pred_dict, gt)]
            _check_epe(tables, (pred_dict, gt_dict))
            _check_epe([(gt, pred), (gt_dict, pred)], (gt_dict, pred_dict))

    @pytest.mark.parametrize("seed", [1, 500, 2 << 20])
    def test_fused_table_roots(self, seed):
        """The root cases a fuse can give, on three independent draws of
        the points and trajectory positions."""
        rng = np.random.default_rng(seed)
        T, H, W = 5, 7, 8
        pred = rng.normal(size=(T, H, W, 3))
        frames = [SimpleNamespace(points=pred[t]) for t in range(T)]

        def rooted(tid, span, root):
            return Trajectory(tid, tuple(span), rng.normal(size=(len(span), 3)), ((0, tid, root),))

        cases = [
            [rooted(0, range(0, 3), (2, 2)), rooted(1, range(1, 5), (2, 2))],  # one pixel
            [rooted(0, range(1, 4), (1, 2)), rooted(1, range(2, 4), (3, 3))],  # two pixels
            [rooted(0, (), (2, 2)), rooted(1, range(0, 2), (0, 0))],  # no frames
            [rooted(0, range(0, 3), (H, 0)), rooted(1, range(2, 4), (-2, 0)),
             rooted(2, range(1, 3), (0, W))],  # no root on the grid
        ]
        for trajectories in cases:
            fused = SimpleNamespace(frames=frames, trajectories=trajectories)
            dense, expected = build_fused_table(fused), ref.build_fused_table(fused)
            assert list(dense) == list(expected)
            assert all(ref.same_bits(dense[k], track) for k, track in expected.items())

    @pytest.mark.parametrize("span", [range(-2, 2), range(6, 9), range(8, 10)])
    def test_frames_outside_the_fused_frames(self, rng, span):
        """A trajectory over frames before 0 or past the last fused frame
        raises ValueError naming it and its frames: frames before 0 must
        not wrap onto the last ones."""
        frames = make_chunk(rng.normal(size=(8, 3, 3, 3))).frames
        trajectories = [Trajectory(0, tuple(range(0, 4)), rng.normal(size=(4, 3)), ((0, 0, (1, 1)),)),
                        Trajectory(7, tuple(span), rng.normal(size=(len(span), 3)), ((0, 7, (1, 2)),))]
        with pytest.raises(ValueError, match=rf"^trajectory 7: frames {span[0]}\.\.{span[-1]} "
                                             r"lie outside the fused frames 0\.\.7$"):
            build_fused_table(SimpleNamespace(frames=frames, trajectories=trajectories))

    def test_mismatched_dense_tables(self, rng):
        points = rng.normal(size=(4, 6, 6, 3))
        truth = GroundTruth(points=points, poses=[], object_ids=np.full((6, 6), -1),
                            visible=np.ones((4, 6, 6), dtype=bool), scene_scale=1.0)
        narrower = GroundTruth(points=points[:, :, :5], poses=[],
                               object_ids=truth.object_ids[:, :5], visible=truth.visible[:, :, :5],
                               scene_scale=1.0)
        with pytest.raises(KeyMismatch, match="seed pixels"):
            dense_epe(truth.trajectory_table(), narrower.trajectory_table())
        shorter = GroundTruth(points=points[:3], poses=[], object_ids=truth.object_ids,
                              visible=truth.visible[:3], scene_scale=1.0)
        with pytest.raises(KeyMismatch, match="shapes"):
            dense_epe(truth.trajectory_table(), shorter.trajectory_table())

    def test_dict_tracks_must_be_one_shape(self, rng):
        """A dict whose tracks differ in length, or are not (T, 3), on
        either side raises ValueError."""
        gt = {(0, k): rng.normal(size=(4, 3)) for k in range(5)}
        ragged = {k: v[:2 + k[1] % 3] for k, v in gt.items()}
        flat = {k: v.ravel() for k, v in gt.items()}
        wide = {k: np.column_stack([v, v[:, :1]]) for k, v in gt.items()}
        for pred, truth in ((ragged, ragged), (ragged, gt), (gt, ragged), (flat, flat), (wide, wide)):
            with pytest.raises(ValueError, match=r"tracks must be \(T, 3\) arrays of one length"):
                dense_epe(pred, truth)


@st.composite
def track_stacks(draw):
    """Predicted and true (T, H, W, 3) stacks a gauge apart, over wide
    magnitudes, with holes in either, and one non-negative weight per
    sample, zeros included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T, H, W = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    mag = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    gt = rng.normal(size=(T, H, W, 3)) * mag + rng.normal(size=3) * 10 * mag
    gauge = SimilarityTransform(float(rng.uniform(0.5, 2.0)), random_rotation(rng), rng.normal(size=3))
    pred = gauge.apply(gt + rng.normal(scale=0.01 * mag, size=gt.shape))
    for points in (pred, gt):
        for _ in range(draw(st.integers(0, 2))):
            points[rng.integers(T), rng.integers(H), rng.integers(W), rng.integers(3)] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
    weights = np.where(rng.random(T * H * W) < 0.3, 0.0, rng.uniform(0.0, 2.0, T * H * W))
    return pred, gt, weights


def _solve_outcome(solve, src, dst, weights):
    """A similarity as (scale, rotation, translation) values, or the type of
    the error the solve raised."""
    try:
        with np.errstate(all="ignore"):
            T = solve(src, dst, weights)
    except (NotEnoughPoints, DegenerateConfiguration, np.linalg.LinAlgError, ValueError) as e:
        return type(e)
    return np.concatenate([[T.scale], T.rotation.ravel(), T.translation])


class TestStridedSolve:
    """The solve reads strided (N, T, 3) views, with broadcast unit
    weights, to the bits it gives on contiguous (n, 3) copies; the EPE
    reads tables over C- and Fortran-ordered stacks to the bits of the
    frozen streaming EPE on dicts."""

    @given(track_stacks())
    @settings(max_examples=200, deadline=None)
    def test_strided_views(self, stacks):
        pred, gt, _ = stacks
        # pixel-major views of the transposed stacks
        p, g = ref.seed_tracks(pred), ref.seed_tracks(gt)
        assert np.shares_memory(p, pred) and np.shares_memory(g, gt)
        flat_p, flat_g = (np.ascontiguousarray(a).reshape(-1, 3) for a in (p, g))
        assert _same(
            _solve_outcome(solve_weighted_similarity, p, g, np.broadcast_to(1.0, p.shape[:-1])),
            _solve_outcome(ref.solve_weighted_similarity, flat_p, flat_g, np.ones(len(flat_p))),
        )
        dicts = (ref.trajectory_table(pred), ref.trajectory_table(gt))
        _check_epe([(TrackTable(pred), TrackTable(gt))], dicts)

    @given(track_stacks())
    @settings(max_examples=200, deadline=None)
    def test_plain_rows(self, stacks):
        pred, gt, weights = stacks
        src, dst = pred.reshape(-1, 3), gt.reshape(-1, 3)
        assert _same(_solve_outcome(solve_weighted_similarity, src, dst, weights),
                     _solve_outcome(ref.solve_weighted_similarity, src, dst, weights))
        # tables over Fortran-ordered stacks, which the EPE copies into frame-major order
        dicts = (ref.trajectory_table(pred), ref.trajectory_table(gt))
        p, g = (np.asfortranarray(a) for a in (pred, gt))
        _check_epe([(TrackTable(p), TrackTable(g))], dicts)


@st.composite
def gauged_stacks(draw):
    """True (T, H, W, 3) samples of spread ``mag`` at an offset of up to
    1e4 spreads, and a noisy prediction in a random similarity gauge whose
    translation is up to 1e4 spreads too, sometimes with holes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T, H, W = draw(st.integers(2, 8)), draw(st.integers(2, 12)), draw(st.integers(2, 12))
    mag = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    offset = draw(st.sampled_from([0.0, 1.0, 1e2, 1e4])) * mag
    direction = rng.normal(size=3)
    gt = rng.normal(size=(T, H, W, 3)) * mag + direction / np.linalg.norm(direction) * offset
    shift = draw(st.sampled_from([0.0, 1.0, 1e2, 1e4])) * mag
    gauge = SimilarityTransform(float(rng.uniform(0.5, 2.0)), random_rotation(rng),
                                rng.normal(size=3) * shift)
    noise = draw(st.sampled_from([1e-3, 1e-2, 0.1])) * mag
    pred = gauge.apply(gt + rng.normal(scale=noise, size=gt.shape))
    for points in (pred, gt):
        for _ in range(draw(st.integers(0, 2))):
            points[rng.integers(T), rng.integers(H), rng.integers(W), rng.integers(3)] = np.nan
    return pred, gt


class TestStreamedSolve:
    """The streaming EPE against the whole-array solve it replaced."""

    @given(gauged_stacks())
    @settings(max_examples=300, deadline=None)
    def test_within_tolerance_of_whole_array_solve(self, stacks):
        pred, gt = stacks
        tables = [(TrackTable(pred), TrackTable(gt))]
        _check_epe(tables, (ref.trajectory_table(pred), ref.trajectory_table(gt)))

    def test_bits_do_not_depend_on_blas_threads(self):
        """The EPE of tables of nine blocks, one of them with a hole, under
        BLAS and OpenMP pinned to one thread and allowed two."""
        script = (
            "import numpy as np\n"
            "from chunkfuse.metrics import dense_epe\n"
            "from chunkfuse.model import TrackTable\n"
            "rng = np.random.default_rng(0)\n"
            "gt = rng.normal(size=(16, 48, 48, 3)) + 100.0\n"
            "pred = 1.5 * gt[..., ::-1] + rng.normal(scale=0.01, size=gt.shape) - 7.0\n"
            "tables = [TrackTable(a) for a in (pred, gt)]\n"
            "print(dense_epe(*tables).hex())\n"
            "pred[3, 5, 7, 1] = np.nan\n"
            "print(dense_epe(*tables).hex())\n"
        )
        src = str(Path(metrics.__file__).resolve().parents[1])
        printed = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            printed.add(run.stdout)
        assert len(printed) == 1


def junction(matches, pixels_i, pixels_j):
    """A ``matches.json`` record; ``pixels_*`` map tracklet id -> (row, col)."""
    return {
        "matches": [[a, b, cost] for a, b, cost in matches],
        "tracklets_i": [[t, r, c] for t, (r, c) in pixels_i.items()],
        "tracklets_j": [[t, r, c] for t, (r, c) in pixels_j.items()],
    }


PIXEL_IDS = np.arange(16).reshape(4, 4)


class TestAssociationPrf:
    def test_perfect(self):
        pixels = {0: (0, 0), 1: (0, 1)}
        record = junction([(0, 5, 0.1), (1, 6, 0.1)], pixels, {5: (0, 0), 6: (0, 1)})
        assert junction_prf([record], PIXEL_IDS) == (1.0, 1.0, 1.0)

    def test_empty_matches(self):
        record = junction([], {0: (0, 0), 1: (0, 1)}, {5: (0, 0), 6: (0, 1)})
        assert junction_prf([record], PIXEL_IDS) == (0.0, 0.0, 0.0)

    def test_hand_counted_two_thirds(self):
        # three true pairs, one predicted match wrong: counts give 2/3 across
        pixels_i = {0: (0, 0), 1: (0, 1), 2: (0, 2)}
        pixels_j = {10: (0, 0), 11: (0, 1), 12: (0, 2), 13: (1, 0)}
        record = junction([(0, 10, 0.1), (1, 11, 0.1), (2, 13, 0.1)], pixels_i, pixels_j)
        p, r, f1 = junction_prf([record], PIXEL_IDS)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_pooled_over_junctions(self):
        # the same tracklet ids and pixels at two junctions stay apart: a
        # match is scored against its own junction's tracklets only
        pixels = {0: (0, 0), 1: (0, 1)}
        right = junction([(0, 0, 0.1), (1, 1, 0.1)], pixels, pixels)
        wrong = junction([(0, 1, 0.1)], pixels, pixels)
        assert junction_prf([right, wrong], PIXEL_IDS) == (2 / 3, 2 / 4, 2 * (2 / 3) * 0.5 / (2 / 3 + 0.5))
        labels = np.zeros((4, 4), dtype=int)
        assert junction_prf([right, wrong], labels) == (1.0, 3 / 4, 2 * 0.75 / 1.75)

    def test_object_level(self):
        ms = MatchSet(((0, 0, 0.1), (1, 1, 0.1), (2, 2, 0.1)), (), ())
        labels_i = {0: 100, 1: 100, 2: 200}
        labels_j = {0: 100, 1: 100, 2: 300}
        p, r, f1 = object_level_prf(ms, labels_i, labels_j)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(1.0)


def test_format_table_is_aligned():
    rows = [{"variant": "full", "epe": 0.123456, "ate": 0.0}]
    text = format_metrics_table(rows)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("variant")
    assert "0.123456" in lines[2]
