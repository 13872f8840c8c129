import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as ref
from chunkfuse.errors import DegenerateConfiguration, NotEnoughPoints
from chunkfuse.metrics import _streamed_similarity
from chunkfuse.model import PipelineConfig, SimilarityTransform, seed_tracks
from chunkfuse.registration import (
    _weighted_moments,
    register_pair,
    registration_residual_rms,
    select_anchors,
    solve_weighted_rigid,
    solve_weighted_similarity,
    static_correspondences,
)
from conftest import frac_for, make_chunk, random_rotation, rot_y, whole_overlap


def weighted_loss(T, src, dst, w):
    return float((w * np.linalg.norm(T.apply(src) - dst, axis=1) ** 2).sum())


class TestWeightedSimilarity:
    def test_src_equals_dst_gives_identity(self, rng):
        src = rng.normal(size=(20, 3))
        T = solve_weighted_similarity(src, src, np.ones(20))
        assert abs(T.scale - 1.0) < 1e-12
        assert np.abs(T.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(T.translation).max() < 1e-12

    def test_generating_transform_oracle(self, rng):
        T_true = SimilarityTransform(1.7, rot_y(np.radians(37.0)), np.array([0.3, -1.1, 2.0]))
        src = rng.normal(size=(50, 3))
        dst = T_true.apply(src)
        T = solve_weighted_similarity(src, dst, np.ones(50))
        assert np.linalg.norm(T.rotation - T_true.rotation) < 1e-9
        assert abs(T.scale - T_true.scale) < 1e-9
        assert np.linalg.norm(T.translation - T_true.translation) < 1e-9

    def test_zero_weight_exclusion(self, rng):
        T_true = SimilarityTransform(1.7, rot_y(np.radians(37.0)), np.array([0.3, -1.1, 2.0]))
        src = rng.normal(size=(55, 3))
        dst = T_true.apply(src)
        w = np.ones(55)
        dst[50:] += 1e6  # corrupted, but weightless
        w[50:] = 0.0
        T = solve_weighted_similarity(src, dst, w)
        assert np.linalg.norm(T.rotation - T_true.rotation) < 1e-9
        assert abs(T.scale - T_true.scale) < 1e-9
        assert np.linalg.norm(T.translation - T_true.translation) < 1e-9

    def test_not_enough_points(self, rng):
        src = rng.normal(size=(2, 3))
        with pytest.raises(NotEnoughPoints):
            solve_weighted_similarity(src, src, np.ones(2))
        src5 = rng.normal(size=(5, 3))
        w = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        with pytest.raises(NotEnoughPoints):
            solve_weighted_similarity(src5, src5, w)

    def test_collinear_degenerate(self):
        src = np.outer(np.arange(5.0), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateConfiguration):
            solve_weighted_similarity(src, src + 1.0, np.ones(5))

    def test_planar_points_are_fine(self, rng):
        # rank-2 source covariance is solvable thanks to the det correction
        T_true = SimilarityTransform(0.8, random_rotation(rng), rng.normal(size=3))
        src = rng.normal(size=(30, 3))
        src[:, 2] = 0.0
        dst = T_true.apply(src)
        T = solve_weighted_similarity(src, dst, np.ones(30))
        assert np.linalg.norm(T.rotation - T_true.rotation) < 1e-9

    def test_equivariance_under_common_rotation(self, rng):
        src = rng.normal(size=(40, 3))
        T_true = SimilarityTransform(1.3, random_rotation(rng), rng.normal(size=3))
        dst = T_true.apply(src) + rng.normal(scale=0.01, size=(40, 3))
        w = rng.uniform(0.1, 1.0, size=40)
        T = solve_weighted_similarity(src, dst, w)
        Q = random_rotation(rng)
        T_rot = solve_weighted_similarity(src @ Q.T, dst @ Q.T, w)
        assert np.abs(T_rot.rotation - Q @ T.rotation @ Q.T).max() < 1e-9
        assert np.abs(T_rot.translation - Q @ T.translation).max() < 1e-9
        assert abs(T_rot.scale - T.scale) < 1e-9

    def test_weight_scaling_invariance(self, rng):
        src = rng.normal(size=(30, 3))
        dst = rng.normal(size=(30, 3))
        w = rng.uniform(0.1, 1.0, size=30)
        A = solve_weighted_similarity(src, dst, w)
        B = solve_weighted_similarity(src, dst, 37.5 * w)
        assert abs(A.scale - B.scale) < 1e-9
        assert np.abs(A.rotation - B.rotation).max() < 1e-9
        assert np.abs(A.translation - B.translation).max() < 1e-9

    def test_optimality_certificate(self, rng):
        T_true = SimilarityTransform(1.2, random_rotation(rng), rng.normal(size=3))
        src = rng.normal(size=(60, 3))
        dst = T_true.apply(src) + rng.normal(scale=0.02, size=(60, 3))
        w = rng.uniform(0.2, 1.0, size=60)
        T = solve_weighted_similarity(src, dst, w)
        best = weighted_loss(T, src, dst, w)
        assert best <= weighted_loss(T_true, src, dst, w) + 1e-12
        for _ in range(1000):
            eps = 10 ** rng.uniform(-4, -1)
            dR = random_rotation(rng)
            axis_perturb = np.eye(3) + eps * (dR - np.eye(3))
            U, _, Vt = np.linalg.svd(axis_perturb @ T.rotation)
            Rp = U @ Vt
            Tp = SimilarityTransform(
                T.scale * (1 + eps * rng.normal()),
                Rp,
                T.translation + eps * rng.normal(size=3),
            )
            assert best <= weighted_loss(Tp, src, dst, w) + 1e-12


class TestWeightedRigid:
    def test_fixed_scale(self, rng):
        T_true = SimilarityTransform(2.5, random_rotation(rng), rng.normal(size=3))
        src = rng.normal(size=(40, 3))
        dst = T_true.apply(src)
        T = solve_weighted_rigid(src, dst, np.ones(40), scale=2.5)
        assert T.scale == 2.5
        assert np.linalg.norm(T.rotation - T_true.rotation) < 1e-9
        assert np.linalg.norm(T.translation - T_true.translation) < 1e-9


def _outcome(fn, *args, **kwargs):
    """A transform's (scale, rotation, translation), None, or the error
    type."""
    try:
        with np.errstate(all="ignore"):
            T = fn(*args, **kwargs)
    except (np.linalg.LinAlgError, ValueError, NotEnoughPoints, DegenerateConfiguration) as e:
        return type(e)
    return None if T is None else (T.scale, T.rotation, T.translation)


def _same_outcome(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return all(ref.same_bits(x, y) for x, y in zip(a, b))


@st.composite
def correspondences(draw):
    """Weighted correspondences with the cases that expose a changed
    rounding order: zero weights, signed zeros, wide magnitudes, holes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 400))
    mag = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    src = rng.normal(size=(n, 3)) * mag + rng.normal(size=3) * 10 * mag
    dst = (1.3 * src @ random_rotation(rng).T + rng.normal(size=3)) + rng.normal(size=(n, 3)) * 0.01 * mag
    w = {
        "ones": np.ones(n),
        "positive": rng.uniform(0.1, 2.0, n),
        "zeros": np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.0, 2.0, n)),
    }[draw(st.sampled_from(["ones", "positive", "zeros"]))]
    plane = draw(st.sampled_from([None, "mixed", "negative"]))
    if plane:  # a plane of signed zeros
        src[:, draw(st.integers(0, 2))] = rng.choice([0.0, -0.0], n) if plane == "mixed" else -0.0
    if draw(st.booleans()):
        src[rng.integers(n), rng.integers(3)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return src, dst, w


class TestMomentsMatchReference:
    """The column-wise moments give the bits of the array expressions."""

    @given(correspondences())
    @settings(max_examples=200, deadline=None)
    def test_moments(self, case):
        src, dst, w = case
        try:
            with np.errstate(all="ignore"):
                src_c, _, w_ref, wsum, mu_src, mu_dst, cov, var_src = ref.weighted_moments(src, dst, w)
                src_cov = (src_c * w_ref[:, None]).T @ src_c / wsum
        except NotEnoughPoints:
            with pytest.raises(NotEnoughPoints):
                _weighted_moments(src, dst, w)
            return
        with np.errstate(all="ignore"):
            got = _weighted_moments(src, dst, w)
        for a, b in zip(got, (mu_src, mu_dst, cov, src_cov, var_src), strict=True):
            assert ref.same_bits(a, b)

    @given(correspondences(), st.sampled_from([1.0, 0.37, 2.5]))
    @settings(max_examples=200, deadline=None)
    def test_solvers(self, case, scale):
        src, dst, w = case
        assert _same_outcome(
            _outcome(solve_weighted_similarity, src, dst, w),
            _outcome(ref.solve_weighted_similarity, src, dst, w),
        )
        assert _same_outcome(
            _outcome(solve_weighted_rigid, src, dst, w, scale=scale),
            _outcome(ref.solve_weighted_rigid, src, dst, w, scale=scale),
        )

    def test_column_sums_are_sequential(self):
        # a pairwise sum of this column rounds differently from numpy's
        # axis-0 reduction, which adds the rows in order
        src = np.zeros((20, 3))
        src[:, 0] = [1e16] + [1.0] * 18 + [-1e16]
        dst = np.random.default_rng(0).normal(size=(20, 3))
        expected = src.sum(axis=0) / 20
        assert src[:, 0].sum() / 20 != expected[0]
        for weights in (np.ones(20), None):
            assert ref.same_bits(_weighted_moments(src, dst, weights)[0], expected)
            # a contiguous table is summed from its flat column, a view by copy
            table = np.ascontiguousarray(src.reshape(4, 5, 3))
            assert ref.same_bits(_weighted_moments(table, dst.reshape(4, 5, 3), weights)[0], expected)
            view = table.transpose(1, 0, 2).copy().transpose(1, 0, 2)
            assert not view.flags.c_contiguous
            assert ref.same_bits(_weighted_moments(view, dst.reshape(4, 5, 3), weights)[0], expected)


def _correspondence(rng, shape, mag=1.0):
    src = rng.normal(size=shape + (3,)) * mag + rng.normal(size=3) * 10 * mag
    dst = 1.3 * src @ random_rotation(rng).T + rng.normal(size=3) + rng.normal(size=src.shape) * 0.01 * mag
    return src, dst


def _in_layout(src, dst, layout):
    """``(T, H, W, 3)`` stacks as the solve reads them: ``rows`` (n, 3),
    a contiguous (N, T, 3) ``table`` or a ``strided`` seed_tracks view."""
    if layout == "rows":
        return src.reshape(-1, 3), dst.reshape(-1, 3)
    if layout == "table":
        return np.ascontiguousarray(seed_tracks(src)), np.ascontiguousarray(seed_tracks(dst))
    return seed_tracks(src), seed_tracks(dst)


@st.composite
def unit_weight_cases(draw):
    """Correspondences of 1 to about 4,600 points in each layout the
    solve reads, over wide magnitudes, sometimes with a hole."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    src, dst = _correspondence(rng, shape, draw(st.sampled_from([1e-3, 1.0, 1e4])))
    if draw(st.booleans()):
        (src, dst)[rng.integers(2)][tuple(rng.integers(shape + (3,)))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return _in_layout(src, dst, draw(st.sampled_from(["rows", "table", "strided"])))


def _moments_outcome(src, dst, weights):
    try:
        with np.errstate(all="ignore"):
            return _weighted_moments(src, dst, weights)
    except (ValueError, NotEnoughPoints) as e:
        return type(e)


class TestUnitWeights:
    """``weights=None`` is ``np.ones`` weights, bit for bit."""

    @given(unit_weight_cases())
    @settings(max_examples=200, deadline=None)
    def test_none_is_ones(self, case):
        src, dst = case
        ones = np.ones(src.shape[:-1])
        got, expected = _moments_outcome(src, dst, None), _moments_outcome(src, dst, ones)
        if isinstance(expected, type):
            assert got is expected
        else:
            assert all(ref.same_bits(a, b) for a, b in zip(got, expected, strict=True))
        assert _same_outcome(_outcome(solve_weighted_similarity, src, dst, None),
                             _outcome(solve_weighted_similarity, src, dst, ones))

    @pytest.mark.parametrize("layout", ["rows", "table", "strided"])
    @pytest.mark.parametrize("shape", [(10, 10, 10), (23, 61, 76)])  # n = 1,000 and 106,628
    def test_sizes_where_operand_layout_matters(self, rng, layout, shape):
        src, dst = _in_layout(*_correspondence(rng, shape), layout)
        got = _weighted_moments(src, dst, None)
        expected = _weighted_moments(src, dst, np.ones(src.shape[:-1]))
        assert all(ref.same_bits(a, b) for a, b in zip(got, expected, strict=True))

    @pytest.mark.parametrize("shape", [(0, 3), (1, 3), (2, 3), (1, 2, 3), (2, 1, 1, 3)])
    def test_fewer_than_three_points(self, shape):
        src = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        with pytest.raises(NotEnoughPoints):
            _weighted_moments(src, src + 1.0, None)
        with pytest.raises(NotEnoughPoints):
            _streamed_similarity(src.reshape(-1, 3), src.reshape(-1, 3) + 1.0, finite=False)

    @given(unit_weight_cases())
    @settings(max_examples=100, deadline=None)
    def test_finite_solve(self, case):
        """The dense EPE's streamed unit-weight solve: None exactly when
        some point is not finite; else, and for every error, the outcome of
        the frozen copy in ``references``, bit for bit."""
        p, g = (np.ascontiguousarray(a).reshape(-1, 3) for a in case)
        expected = _outcome(ref.streamed_similarity, p, g, finite=False)
        got = _outcome(_streamed_similarity, p, g, finite=False)
        if isinstance(got, type) or isinstance(expected, type):
            assert got is expected
        elif np.isfinite(p).all() and np.isfinite(g).all():
            assert _same_outcome(got, expected)
        else:
            assert got is None is expected


def _static_scene(rng, grid=16, frames=4):
    base = rng.normal(size=(grid, grid, 3)) + np.array([0.0, 0.0, 5.0])
    return np.broadcast_to(base, (frames, grid, grid, 3)).copy()


class TestSelectAnchors:
    def test_static_scene_all_anchors(self, rng):
        pts = _static_scene(rng)
        a = make_chunk(pts, chunk_id=0)
        b = make_chunk(pts, chunk_id=1)
        cfg = PipelineConfig(gamma_stat_frac=frac_for(0.1, a))
        ab = select_anchors(whole_overlap(a, b), cfg)
        assert ab.static_mask.all()
        assert not ab.dynamic_mask.any()

    def test_moving_block_is_dynamic(self, rng):
        gamma_stat = 0.1
        pts = _static_scene(rng)
        block = (slice(3, 13), slice(2, 12))
        for t in range(4):
            pts[t][block] += np.array([5 * gamma_stat * t, 0.0, 0.0])
        a = make_chunk(pts, chunk_id=0)
        b = make_chunk(pts, chunk_id=1)
        cfg = PipelineConfig(gamma_stat_frac=frac_for(gamma_stat, a))
        ab = select_anchors(whole_overlap(a, b), cfg)
        assert ab.gamma_stat == ab.gamma_stat_j == pytest.approx(gamma_stat)
        expected = np.zeros((16, 16), dtype=bool)
        expected[block] = True
        assert np.array_equal(ab.dynamic_mask, expected)
        assert np.array_equal(ab.static_mask, ~expected)

    def test_zero_confidence_empties_both(self, rng):
        pts = _static_scene(rng)
        conf = np.zeros((4, 16, 16))
        a = make_chunk(pts, conf, chunk_id=0)
        b = make_chunk(pts, conf, chunk_id=1)
        ab = select_anchors(whole_overlap(a, b), PipelineConfig(gamma_stat_frac=frac_for(0.1, a)))
        assert not ab.static_mask.any()
        assert not ab.dynamic_mask.any()


class TestRegisterPair:
    def _pair(self, rng, gauge=None, conf=None):
        pts = _static_scene(rng, grid=12)
        a = make_chunk(pts, conf, chunk_id=0)
        pts_j = gauge.apply(pts) if gauge is not None else pts
        b = make_chunk(pts_j, conf, chunk_id=1)
        return a, b

    def test_injected_gauge_recovered(self, rng):
        T_star = SimilarityTransform(1.4, random_rotation(rng), rng.normal(size=3))
        a, b = self._pair(rng, gauge=T_star)
        overlap = whole_overlap(a, b)
        cfg = PipelineConfig(gamma_stat_frac=frac_for(0.1, a))
        ab = select_anchors(overlap, cfg)
        T, rms = register_pair(overlap, ab)
        inv = T_star.invert()
        assert np.linalg.norm(T.rotation - inv.rotation) < 1e-9
        assert abs(T.scale - inv.scale) < 1e-9
        assert np.linalg.norm(T.translation - inv.translation) < 1e-9
        assert ab.num_static == 144
        assert rms < 1e-9

    def test_identical_chunks_identity(self, rng):
        a, b = self._pair(rng)
        overlap = whole_overlap(a, b)
        cfg = PipelineConfig(gamma_stat_frac=frac_for(0.1, a))
        T, _ = register_pair(overlap, select_anchors(overlap, cfg))
        assert abs(T.scale - 1.0) < 1e-12
        assert np.abs(T.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(T.translation).max() < 1e-12

    def test_all_dynamic_raises_not_enough_points(self, rng):
        pts = _static_scene(rng, grid=8)
        for t in range(4):
            pts[t] += np.array([t * 1.0, 0.0, 0.0])  # everything moves
        a = make_chunk(pts, chunk_id=0)
        b = make_chunk(pts, chunk_id=1)
        overlap = whole_overlap(a, b)
        cfg = PipelineConfig(gamma_stat_frac=frac_for(0.1, a))
        ab = select_anchors(overlap, cfg)
        assert ab.gamma_stat == pytest.approx(0.1)
        assert ab.num_static == 0
        with pytest.raises(NotEnoughPoints):
            register_pair(overlap, ab)

    def test_dynamic_supports_never_affect_result(self, rng):
        gamma_stat = 0.1
        pts = _static_scene(rng)
        block = (slice(0, 5), slice(0, 5))
        for t in range(4):
            pts[t][block] += np.array([gamma_stat * 5 * t, 0.2, 0.0])
        gauge = SimilarityTransform(0.9, random_rotation(rng), rng.normal(size=3))
        a = make_chunk(pts, chunk_id=0)
        b = make_chunk(gauge.apply(pts), chunk_id=1)
        overlap = whole_overlap(a, b)
        cfg = PipelineConfig(gamma_stat_frac=frac_for(gamma_stat, a))
        ab = select_anchors(overlap, cfg)
        assert ab.gamma_stat == pytest.approx(gamma_stat)
        T1, _ = register_pair(overlap, ab)

        corrupted = pts.copy()
        corrupted[:, block[0], block[1], :] += rng.normal(scale=100.0, size=(4, 5, 5, 3))
        a2 = make_chunk(corrupted, chunk_id=0)
        b2 = make_chunk(gauge.apply(pts), chunk_id=1)
        overlap2 = whole_overlap(a2, b2)
        ab2 = select_anchors(overlap2, cfg)
        assert np.array_equal(ab2.dynamic_mask, ab.dynamic_mask)
        T2, _ = register_pair(overlap2, ab2)
        assert np.array_equal(T1.rotation, T2.rotation)
        assert T1.scale == T2.scale
        assert np.array_equal(T1.translation, T2.translation)

    def test_confidence_weighting_enters_correspondences(self, rng):
        pts = _static_scene(rng, grid=6)
        conf = rng.uniform(0.6, 1.0, size=(4, 6, 6))
        a = make_chunk(pts, conf, chunk_id=0)
        b = make_chunk(pts, conf * 0.9, chunk_id=1)
        overlap = whole_overlap(a, b)
        cfg = PipelineConfig(gamma_stat_frac=frac_for(0.1, a))
        ab = select_anchors(overlap, cfg)
        src, dst, w = static_correspondences(overlap, ab)
        assert np.allclose(w.reshape(4, -1), np.sqrt(conf * conf * 0.9).reshape(4, -1), atol=1e-12)
        T, _ = register_pair(overlap, ab)
        assert registration_residual_rms(T, src, dst, w) < 1e-12
