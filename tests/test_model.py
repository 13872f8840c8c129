import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import references as ref
from chunkfuse.errors import InvalidConfig
from chunkfuse.model import (
    Chunk,
    FramePrediction,
    PipelineConfig,
    Pose,
    SimilarityTransform,
    TrackletSet,
    TrackTable,
    check_rotation,
    finite3,
    from_json,
    norm3,
)
from conftest import POSE_FAULTS, corrupt_pose, make_chunk, random_rotation, rot_z


def random_transform(rng) -> SimilarityTransform:
    return SimilarityTransform(
        float(rng.uniform(0.3, 3.0)), random_rotation(rng), rng.normal(size=3)
    )


class TestTransformApply:
    def test_identity(self):
        T = SimilarityTransform.identity()
        assert np.array_equal(T.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_pure_scale(self):
        T = SimilarityTransform(2.0, np.eye(3), np.zeros(3))
        assert np.allclose(T.apply([1.0, 0.0, 0.0]), [2.0, 0.0, 0.0], atol=0)

    def test_rotz_90_hand_oracle(self):
        # hand matrix multiply: rotZ(90deg) @ (1,0,0) = (0,1,0), then +(1,0,0)
        T = SimilarityTransform(1.0, rot_z(np.pi / 2), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(T.apply([1.0, 0.0, 0.0]), [1.0, 1.0, 0.0], atol=1e-12)

    def test_batched_points(self, rng):
        T = random_transform(rng)
        pts = rng.normal(size=(17, 3))
        batched = T.apply(pts)
        for k in range(len(pts)):
            assert np.allclose(batched[k], T.apply(pts[k]), atol=1e-12)


class TestTransformCompose:
    def test_identity_pair(self):
        I = SimilarityTransform.identity()
        C = I.compose(I)
        assert C.scale == 1.0
        assert np.allclose(C.rotation, np.eye(3), atol=0)
        assert np.allclose(C.translation, 0.0, atol=0)

    def test_inverse_law(self, rng):
        A = random_transform(rng)
        C = A.compose(A.invert())
        assert abs(C.scale - 1.0) < 1e-9
        assert np.abs(C.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(C.translation).max() < 1e-9

    def test_pointwise_oracle(self, rng):
        A, B = random_transform(rng), random_transform(rng)
        C = A.compose(B)
        x = rng.normal(size=(100, 3))
        assert np.abs(C.apply(x) - A.apply(B.apply(x))).max() < 1e-9

    def test_associativity(self, rng):
        A, B, C = (random_transform(rng) for _ in range(3))
        left = A.compose(B).compose(C)
        right = A.compose(B.compose(C))
        x = rng.normal(size=(50, 3))
        assert np.abs(left.apply(x) - right.apply(x)).max() < 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_invert_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        A = random_transform(rng)
        x = rng.normal(size=(20, 3))
        assert np.abs(A.invert().apply(A.apply(x)) - x).max() < 1e-9


class TestTransformValidation:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            SimilarityTransform(0.0, np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            SimilarityTransform(-1.0, np.eye(3), np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            SimilarityTransform(1.0, R, np.zeros(3))

    def test_rejects_non_orthonormal(self):
        R = np.eye(3)
        R[0, 1] = 1e-3
        with pytest.raises(ValueError):
            SimilarityTransform(1.0, R, np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_translation(self, value):
        with pytest.raises(ValueError, match="translation"):
            SimilarityTransform(1.0, np.eye(3), [value, 0.0, 0.0])


class TestCheckRotation:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([1e-9, 1e-4]))
    @settings(max_examples=60, deadline=None)
    def test_stack_verdict_is_each_matrix_alone(self, seed, n, tol):
        # scaled, sheared and reflected rotations near the tolerances: the
        # stack fails exactly when some matrix alone fails, and names the
        # first such matrix with its own message
        rng = np.random.default_rng(seed)
        m = np.stack([np.eye(4)] * n)
        R = m[:, :3, :3]
        R[:] = [random_rotation(rng) for _ in range(n)]
        R *= 1.0 + rng.choice([0.0, 1e-10, 4e-10, 3e-5, 6e-5], size=(n, 1, 1))
        R[:, 0, 1] += rng.choice([0.0, 1e-10, 5e-5], size=n)
        R[rng.random(n) < 0.1, :, 0] *= -1.0
        messages = []
        for k in range(n):
            try:
                check_rotation(R[k], tol)
            except ValueError as e:
                messages.append(f"frame {5 + k}: {e}")
        if messages:
            with pytest.raises(ValueError) as info:
                Pose.from_matrices(m, tol, start=5)
            assert str(info.value) == messages[0]
        else:
            Pose.from_matrices(m, tol, start=5)


class TestPose:
    def test_center_is_translation(self):
        p = Pose(rot_z(0.3), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(p.center, [1.0, 2.0, 3.0])

    def test_inverse_compose(self, rng):
        # the per-pose arithmetic the stacked RPE is checked against
        p = Pose(random_rotation(rng), rng.normal(size=3))
        q = ref.compose(p, ref.inverse(p))
        assert np.abs(q.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(q.translation).max() < 1e-9

    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.001, np.zeros(3))

    @pytest.mark.parametrize("entry", [(0, 0), (1, 2), (2, 1)])
    def test_rejects_nan_rotation(self, entry):
        R = np.eye(3)
        R[entry] = np.nan
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(R, np.zeros(3))
        with pytest.raises(ValueError, match="orthonormal"):
            SimilarityTransform(1.0, R, np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_translation(self, value):
        with pytest.raises(ValueError, match="translation"):
            Pose(np.eye(3), np.array([0.0, value, 1.0]))

    def test_matrix_roundtrip(self, rng):
        p = Pose(random_rotation(rng), rng.normal(size=3))
        (q,) = Pose.from_matrices(p.matrix()[None])
        assert np.array_equal(p.rotation, q.rotation)
        assert np.array_equal(p.translation, q.translation)

    def test_from_matrix_rejects_bad_last_row(self):
        m = np.eye(4)
        m[3, 0] = 1e-12
        with pytest.raises(ValueError, match="^frame 0: pose matrix last row"):
            Pose.from_matrices(m[None])

    @pytest.mark.parametrize("j", range(4))
    def test_from_matrix_rejects_nan_last_row(self, j):
        m = np.eye(4)
        m[3, j] = np.nan
        with pytest.raises(ValueError, match="^frame 0: pose matrix last row"):
            Pose.from_matrices(m[None])

    def test_from_matrices_views_with_the_bits_of_from_matrix(self, rng):
        m = np.stack([Pose(random_rotation(rng), rng.normal(size=3)).matrix()
                      for _ in range(5)]).astype(np.float32)
        poses = Pose.from_matrices(m, tol=1e-4)
        for p, mk in zip(poses, m.astype(np.float64)):
            for a, b in ((p.rotation, mk[:3, :3]), (p.translation, mk[:3, 3])):
                assert a.tobytes() == b.tobytes() and a.dtype == b.dtype
                assert a.flags.c_contiguous and not a.flags.writeable
            assert np.shares_memory(p.rotation, poses[0].rotation.base)
            assert np.shares_memory(p.translation, poses[0].translation.base)

    @pytest.mark.parametrize("fault", POSE_FAULTS)
    def test_from_matrices_names_first_bad_frame(self, fault):
        m = np.stack([np.eye(4)] * 6)
        message = corrupt_pose(m[3], fault)
        m[5, :3, :3] *= 2.0  # a later fault is not the one named
        with pytest.raises(ValueError, match=f"^frame 13: .*{message}"):
            Pose.from_matrices(m, start=10)


class TestChunk:
    @staticmethod
    def _make(conf, points=None, start=0):
        conf = np.asarray(conf, dtype=float)
        points = np.zeros(conf.shape[:1] + (2, 2, 3)) if points is None else points
        return Chunk(0, start, points, conf, (Pose(np.eye(3), np.zeros(3)),) * len(points))

    def test_out_of_range_confidence_rejected_not_clamped(self):
        for bad in (1.5, -0.1, np.nan):
            conf = np.ones((3, 2, 2))
            conf[1, 0, 1] = bad
            with pytest.raises(ValueError, match="frame 6: confidence"):
                self._make(conf, start=5)
        conf = np.ones((3, 2, 2))
        conf[2] = 0.25
        assert self._make(conf).confidence[2, 1, 1] == 0.25

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="confidence shape"):
            self._make(np.ones((2, 3, 2)), points=np.zeros((2, 2, 2, 3)))
        with pytest.raises(ValueError, match="points must be"):
            self._make(np.ones((2, 2, 2)), points=np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError, match="one pose per frame"):
            Chunk(0, 0, np.zeros((2, 2, 2, 3)), np.ones((2, 2, 2)), (Pose(np.eye(3), np.zeros(3)),))

    def test_nonfinite_points_only_at_zero_confidence(self):
        pts = np.zeros((3, 2, 2, 3))
        pts[2, 0, 0, 0] = np.nan
        conf = np.ones((3, 2, 2))
        with pytest.raises(ValueError, match="frame 12: non-finite"):
            self._make(conf, points=pts, start=10)
        conf[2, 0, 0] = 0.0
        chunk = self._make(conf, points=pts, start=10)
        assert chunk.grid_shape == (2, 2) and chunk.end_frame == 12

    def test_immutable_arrays(self):
        conf = np.ones((2, 2, 2))
        chunk = self._make(conf)
        conf[0, 0, 0] = 0.5  # the chunk holds its own copy
        assert chunk.confidence[0, 0, 0] == 1.0
        for arr in (chunk.points, chunk.confidence, chunk.frames[1].points):
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0

    def test_frames_are_views_of_the_stack(self, rng):
        chunk = self._make(rng.uniform(size=(3, 2, 2)), points=rng.normal(size=(3, 2, 2, 3)))
        for k, fp in enumerate(chunk.frames):
            assert np.shares_memory(fp.points, chunk.points)
            assert np.shares_memory(fp.confidence, chunk.confidence)
            assert not fp.points.flags.writeable
            assert np.array_equal(fp.points, chunk.points[k])
        assert chunk.frames is chunk.frames  # built once

    def test_lookup(self):
        c = self._make(np.ones((3, 2, 2)), start=5)
        assert (c.start_frame, c.end_frame) == (5, 7)
        assert [fp.frame_index for fp in c.frames] == [5, 6, 7]
        assert c.frames[1].pose is c.poses[1]


class TestTrackletSet:
    @staticmethod
    def _set(num_frames, n=2, positions=None, start=0):
        positions = np.zeros((n, num_frames, 3)) if positions is None else positions
        return TrackletSet(start, np.zeros((n, 2), dtype=int), positions,
                           np.ones((n, num_frames)))

    def test_requires_two_frames(self):
        with pytest.raises(ValueError):
            self._set(1)

    def test_frames_run_from_the_start_frame(self):
        assert self._set(4, start=7).frames == range(7, 11)

    def test_array_shapes_checked_once_per_set(self):
        self._set(2, n=0)
        with pytest.raises(ValueError):
            self._set(2, positions=np.zeros((2, 3, 3)))
        with pytest.raises(ValueError):
            TrackletSet(0, np.zeros((2, 2), dtype=int), np.zeros((2, 2, 3)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            TrackletSet(0, np.zeros(4, dtype=int), np.zeros((2, 2, 3)), np.ones((2, 2)))

    def test_transformed(self, rng):
        t = self._set(2, n=3, positions=rng.normal(size=(3, 2, 3)), start=5)
        T = random_transform(rng)
        moved = t.transformed(T)
        assert np.array_equal(moved.positions, T.apply(t.positions))
        assert moved.frames == t.frames and np.array_equal(moved.pixels, t.pixels)
        assert len(moved) == 3


def test_array_holders_compare_and_hash_by_identity():
    pose = Pose(np.eye(3), np.zeros(3))
    chunk = make_chunk(np.zeros((2, 2, 2, 3)))
    for make in (lambda: Pose(np.eye(3), np.zeros(3)),
                 SimilarityTransform.identity,
                 lambda: FramePrediction(np.zeros((2, 2, 3)), np.ones((2, 2)), pose, 0),
                 lambda: Chunk(0, 0, chunk.points, chunk.confidence, chunk.poses),
                 lambda: TrackletSet(0, np.zeros((1, 2)), np.zeros((1, 2, 3)), np.ones((1, 2)))):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


# values where a different summation order or overflow handling would show
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                  1e300, -1e300, 1.7976931348623157e308, 1.0, 0.1, np.nan, np.inf, -np.inf]
VECTOR_ARRAYS = arrays(
    np.float64,
    st.one_of(
        st.tuples(st.integers(0, 8)),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    ).map(lambda lead: lead + (3,)),
    elements=st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS), st.floats(-1e3, 1e3)),
)


def assert_kernels_match_numpy(x):
    with np.errstate(over="ignore"):  # both warn alike when a square overflows
        expected = np.linalg.norm(x, axis=-1)
        got = norm3(x)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    # bit for bit, so -0.0 and 0.0 count as different
    assert got[~nan].tobytes() == expected[~nan].tobytes()
    assert np.array_equal(finite3(x), np.isfinite(x).all(axis=-1))


class TestColumnKernels:
    @given(VECTOR_ARRAYS, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_match_numpy_reductions(self, x, strided):
        if strided:  # a non-contiguous view of the same vectors
            x = np.swapaxes(x, 0, -2)
        assert_kernels_match_numpy(x)

    def test_every_special_value_triple(self):
        a, b, c = np.meshgrid(SPECIAL_FLOATS, SPECIAL_FLOATS, SPECIAL_FLOATS, indexing="ij")
        assert_kernels_match_numpy(np.stack([a, b, c], axis=-1))


POINT_ARRAYS = arrays(
    np.float64,
    st.one_of(
        st.just(()),
        st.tuples(st.integers(0, 8)),
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
    ).map(lambda lead: lead + (3,)),
    elements=st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS), st.floats(-1e3, 1e3)),
)


class TestApplyMatchesReference:
    """``apply`` scales and translates its one output in place, with the
    bits of ``scale * (x @ R.T) + t``."""

    @given(POINT_ARRAYS, st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_special_values(self, x, seed, strided):
        if strided and x.ndim == 3:
            x = np.swapaxes(x, 0, 1)
        T = random_transform(np.random.default_rng(seed))
        with np.errstate(all="ignore"):
            assert ref.same_bits(T.apply(x), ref.apply(T, x))

    @given(
        st.lists(st.integers(1, 6), min_size=2, max_size=3).map(tuple),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["contiguous", "swapped", "sliced"]),
        st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_stacks(self, lead, seed, layout, scale):
        # stacks of every leading shape, single rows included, go through
        # the one (n, 3) product or the stacked one with the stacked bits
        rng = np.random.default_rng(seed)
        x = rng.normal(size=lead + (3,)) * scale
        if layout == "swapped":
            x = np.swapaxes(x, 0, -2)
        elif layout == "sliced":
            x = x[..., ::2, :]
        T = random_transform(rng)
        assert ref.same_bits(T.apply(x), ref.apply(T, x))

    @pytest.mark.parametrize("shape", [(3,), (5000, 3), (300, 16, 3), (120, 120, 3), (3, 40, 40, 3),
                                       (700, 1, 3), (16, 120, 120, 3)])
    def test_realistic_shapes(self, rng, shape):
        T = random_transform(rng)
        x = rng.normal(size=shape) * 50
        assert ref.same_bits(T.apply(x), ref.apply(T, x))
        assert ref.same_bits(T.apply(x.tolist()), ref.apply(T, x))


class TestApplyPoses:
    """``apply_poses`` maps a stack of poses with the bits of the per-pose
    formula on each, and ``apply_pose`` is its one-pose case."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=100, deadline=None)
    def test_matches_apply_pose(self, seed, n, span):
        rng = np.random.default_rng(seed)
        T = SimilarityTransform(float(rng.uniform(0.1, 10.0)), random_rotation(rng),
                                rng.normal(size=3) * span)
        poses = [Pose(random_rotation(rng), rng.normal(size=3) * span) for _ in range(n)]
        got = T.apply_poses(poses)
        assert len(got) == n
        for p, q, pose in zip(got, (T.apply_pose(pose) for pose in poses), poses):
            want = (T.rotation @ pose.rotation, T.apply(pose.translation))
            for a, b, c in zip((p.rotation, p.translation), (q.rotation, q.translation), want):
                assert a.tobytes() == b.tobytes() == c.tobytes()
                assert a.flags.c_contiguous and not a.flags.writeable
            assert np.shares_memory(p.rotation, got[0].rotation.base)

    def test_no_poses(self):
        assert random_transform(np.random.default_rng(0)).apply_poses([]) == ()

    def test_names_the_first_bad_pose(self):
        T = SimilarityTransform(10.0, np.eye(3), np.zeros(3))
        poses = [Pose(np.eye(3), np.array([x, 0.0, 0.0])) for x in (1.0, 2.0, 1e308, 1e308)]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^frame 2: pose translation"):
            T.apply_poses(poses)


class TestTrackTable:
    def _table(self, rng, T=3, H=5, W=4):
        points = rng.normal(size=(T, H, W, 3))
        return points, TrackTable(points)

    def test_matches_per_pixel_dict(self, rng):
        for H, W in [(5, 4), (3, 2), (2, 2), (1, 1)]:
            points, table = self._table(rng, H=H, W=W)
            expected = ref.trajectory_table(points)
            assert list(table) == list(expected) == sorted(expected)
            assert len(table) == len(expected) == H * W
            for k, track in expected.items():
                assert k in table and table[k].tobytes() == track.tobytes()
            # frame by frame, the samples of all keys, in key order, are the stack's rows
            frame_major = np.stack(list(expected.values()), axis=1)
            assert table.points.reshape(len(points), -1, 3).tobytes() == frame_major.tobytes()
            assert np.shares_memory(table.points, points)

    def test_non_seed_keys_missing(self, rng):
        _, table = self._table(rng)
        for key in [(5, 0), (0, 4), (-1, 0), (0, -1), (-2, 0), (np.int64(5), 0), (0,), "ab", None,
                    (0, 0, 0), (1.0, 2), (0, "0")]:
            assert key not in table
            with pytest.raises(KeyError):
                table[key]
        assert table.get((5, 1)) is None and table.get((4, 3)) is not None

    def test_read_only(self, rng):
        _, table = self._table(rng)
        with pytest.raises(ValueError):
            table[(0, 0)][0, 0] = 1.0
        with pytest.raises(ValueError):
            table.points[0, 0, 0, 0] = 1.0

    def test_numpy_index_keys_match_python_ints(self, rng):
        _, table = self._table(rng)
        for r, c in table:
            for key in [(np.int64(r), np.int64(c)), (np.int32(r), c), (r, np.uint8(c)),
                        tuple(np.array([r, c]))]:
                assert key in table
                assert table[key].tobytes() == table[(r, c)].tobytes()

    def test_same_keys(self, rng):
        _, a = self._table(rng, H=5)
        _, b = self._table(rng, H=5)
        _, c = self._table(rng, H=6)
        assert a.same_keys(b) and set(a) == set(b)
        assert not a.same_keys(c) and set(a) != set(c)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            TrackTable(np.zeros((5, 2, 3)))
        with pytest.raises(ValueError):
            TrackTable(np.zeros((2, 3, 3, 2)))


class TestPipelineConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.chunk_length == 16 and cfg.overlap == 4

    def test_overlap_bounds(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(chunk_length=16, overlap=1)
        with pytest.raises(InvalidConfig):
            PipelineConfig(chunk_length=16, overlap=16)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(lambda_vel=-0.1)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(gamma_stat_frac=0.0)
        with pytest.raises(InvalidConfig):
            PipelineConfig(min_displacement=-1.0)

    @pytest.mark.parametrize("name", ["gamma_stat_frac", "min_displacement", "traj_cap",
                                      "lambda_sm", "lambda_vel"])
    def test_nan_rejected(self, name):
        with pytest.raises(InvalidConfig, match=name):
            PipelineConfig(**{name: math.nan})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig.from_dict({"chunk_len": 16})

    def test_from_dict_checks_json_types(self):
        cfg = PipelineConfig.from_dict({"cost_max": 1, "min_displacement": None,
                                        "refine_scale": True, "seed_stride": 3, "lambda_sm": 0.5})
        assert cfg.cost_max == 1 and cfg.refine_scale is True and cfg.seed_stride == 3
        for bad in ({"cost_max": "0.5"}, {"cost_max": None}, {"cost_max": True},
                    {"seed_stride": 2.0}, {"seed_stride": False}, {"refine_scale": 1},
                    {"refine_scale": None}, {"min_displacement": "0.1"}, {"overlap": [4]}):
            with pytest.raises(InvalidConfig, match=next(iter(bad))):
                PipelineConfig.from_dict(bad)

    def test_from_dict_roundtrip(self):
        cfg = PipelineConfig(overlap=5, lambda_sm=0.25)
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again == cfg


@dataclass(frozen=True)
class Inner:
    x: float = 0.0


@dataclass(frozen=True)
class Outer:
    flag: bool = False
    n: int = 0
    x: float = 0.0
    name: str = ""
    maybe: float | None = 1.0
    many: tuple[int, ...] = ()
    pair: tuple[float, str] = (0.0, "")
    inner: Inner = field(default_factory=Inner)
    inners: tuple[Inner, ...] = ()


class TestFromJson:
    def test_each_form_accepted(self):
        got = from_json(Outer, {
            "flag": True, "n": -3, "x": 2, "name": "a", "maybe": None, "many": [1, 2, 3],
            "pair": [0.5, "b"], "inner": {"x": 1.5}, "inners": [{}, {"x": 2}],
        }, ValueError)
        assert got == Outer(True, -3, 2, "a", None, (1, 2, 3), (0.5, "b"), Inner(1.5),
                            (Inner(), Inner(2)))
        assert type(got.x) is int  # a float field keeps an integer as given
        assert from_json(Outer, {"maybe": 0.25, "many": []}, ValueError) == Outer(maybe=0.25)
        assert from_json(Outer, {}, ValueError) == Outer()
        assert from_json(Outer, {"x": 10**400}, ValueError).x == 10**400

    @pytest.mark.parametrize("data, where", [
        ({"flag": 1}, "Outer.flag"),
        ({"flag": None}, "Outer.flag"),
        ({"n": 2.0}, "Outer.n"),
        ({"n": True}, "Outer.n"),
        ({"n": "2"}, "Outer.n"),
        ({"x": False}, "Outer.x"),
        ({"x": "1.5"}, "Outer.x"),
        ({"x": None}, "Outer.x"),
        ({"x": math.nan}, "Outer.x"),
        ({"x": math.inf}, "Outer.x"),
        ({"x": -math.inf}, "Outer.x"),
        ({"maybe": math.nan}, "Outer.maybe"),
        ({"name": 3}, "Outer.name"),
        ({"many": [1, 2.5]}, r"Outer.many\[1\]"),
        ({"many": 1}, "Outer.many"),
        ({"many": {"0": 1}}, "Outer.many"),
        ({"pair": [0.5]}, "Outer.pair"),
        ({"pair": [0.5, "b", "c"]}, "Outer.pair"),
        ({"pair": ["b", 0.5]}, r"Outer.pair\[0\]"),
        ({"inner": []}, "Outer.inner"),
        ({"inner": {"x": math.nan}}, r"Outer.inner.x"),
        ({"inners": [{}, {"x": "1"}]}, r"Outer.inners\[1\].x"),
        ({"inners": [{}, {"y": 1}]}, r"Outer.inners\[1\]: unknown keys \['y'\]"),
        ({"inner": {"x": 1, "z": 2}}, r"Outer.inner: unknown keys \['z'\]"),
        ({"nope": 1}, r"Outer: unknown keys \['nope'\]"),
        ([], "Outer must be an object"),
    ])
    def test_mismatch_names_field_path(self, data, where):
        with pytest.raises(InvalidConfig, match=f"^{where}"):
            from_json(Outer, data, InvalidConfig)
