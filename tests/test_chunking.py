import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkfuse.chunking import plan_chunks, slice_overlap
from chunkfuse.errors import InvalidConfig, NoOverlap
from conftest import make_chunk


class TestPlanChunks:
    def test_single_chunk(self):
        assert plan_chunks(16, 16, 4) == [(0, 15)]

    def test_two_chunks_hand_recurrence(self):
        # s2 = e1 - O + 1 = 15 - 4 + 1 = 12
        assert plan_chunks(28, 16, 4) == [(0, 15), (12, 27)]

    def test_three_chunks_short_tail(self):
        # tail (24, 29) has 6 frames >= O + 1
        assert plan_chunks(30, 16, 4) == [(0, 15), (12, 27), (24, 29)]

    def test_invalid_overlap(self):
        with pytest.raises(InvalidConfig):
            plan_chunks(30, 16, 16)
        with pytest.raises(InvalidConfig):
            plan_chunks(30, 16, 1)
        with pytest.raises(InvalidConfig):
            plan_chunks(0, 16, 4)

    def test_single_frame(self):
        assert plan_chunks(1, 16, 4) == [(0, 0)]

    @given(
        num_frames=st.integers(1, 400),
        chunk_length=st.integers(3, 40),
        overlap=st.integers(2, 39),
    )
    @settings(max_examples=300, deadline=None)
    def test_invariants(self, num_frames, chunk_length, overlap):
        if overlap >= chunk_length:
            with pytest.raises(InvalidConfig):
                plan_chunks(num_frames, chunk_length, overlap)
            return
        plan = plan_chunks(num_frames, chunk_length, overlap)
        # coverage
        covered = set()
        for s, e in plan:
            covered.update(range(s, e + 1))
        assert covered == set(range(num_frames))
        # first starts at zero, monotone starts
        assert plan[0][0] == 0
        starts = [s for s, _ in plan]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        # interior chunks have length exactly chunk_length
        for s, e in plan[:-1]:
            assert e - s + 1 == chunk_length
        # consecutive chunks share exactly `overlap` frames
        for (s1, e1), (s2, e2) in zip(plan, plan[1:]):
            shared = set(range(s1, e1 + 1)) & set(range(s2, e2 + 1))
            assert len(shared) == overlap
        # a tail chunk supports registration: at least overlap + 1 frames
        if len(plan) > 1:
            s, e = plan[-1]
            assert e - s + 1 >= overlap + 1


    @given(
        num_frames=st.integers(1, 400),
        chunk_length=st.integers(3, 40),
        overlap=st.integers(2, 39),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_chunk_spans_past_its_overlap(self, num_frames, chunk_length, overlap):
        if overlap >= chunk_length:
            return
        plan = plan_chunks(num_frames, chunk_length, overlap)
        # every chunk, the tail included, has at least overlap + 1 frames
        # unless the whole sequence is shorter than that
        for s, e in plan:
            assert e - s + 1 >= min(overlap + 1, num_frames)
        # neighbours share exactly `overlap` frames: the next start is
        # `overlap - 1` frames before the previous end
        for (_, e1), (s2, _) in zip(plan, plan[1:]):
            assert s2 == e1 - overlap + 1


class TestSliceOverlap:
    def _chunks(self, r1, r2):
        T1 = r1[1] - r1[0] + 1
        T2 = r2[1] - r2[0] + 1
        a = make_chunk(np.zeros((T1, 2, 2, 3)), chunk_id=0, start_frame=r1[0])
        b = make_chunk(np.zeros((T2, 2, 2, 3)), chunk_id=1, start_frame=r2[0])
        return a, b

    def test_adjacent_interval_intersection(self):
        a, b = self._chunks((0, 15), (12, 27))
        ov = slice_overlap(a, b)
        assert ov.frames == range(12, 16)
        for points, conf, poses in ((ov.points_i, ov.conf_i, ov.poses_i),
                                    (ov.points_j, ov.conf_j, ov.poses_j)):
            assert points.shape == (4, 2, 2, 3) and conf.shape == (4, 2, 2) and len(poses) == 4

    def test_stacks_each_chunks_own_frames(self, rng):
        pts = rng.normal(size=(16, 3, 2, 3))
        a = make_chunk(pts[:10], chunk_id=0)
        b = make_chunk(2.0 * pts[6:], confidence=np.full((10, 3, 2), 0.5), chunk_id=1,
                       start_frame=6, centers=np.arange(30.0).reshape(10, 3))
        ov = slice_overlap(a, b)
        assert ov.frames == range(6, 10)
        assert np.array_equal(ov.points_i, pts[6:10])
        assert np.array_equal(ov.conf_i, np.ones((4, 3, 2)))
        assert np.array_equal(ov.points_j, 2.0 * pts[6:10])
        assert np.array_equal(ov.conf_j, np.full((4, 3, 2), 0.5))
        assert [p.center.tolist() for p in ov.poses_j] == np.arange(12.0).reshape(4, 3).tolist()
        assert ov.poses_i == a.poses[6:10]
        # an overlap is a slice of each chunk's stack, not a copy
        assert np.shares_memory(ov.points_i, a.points) and np.shares_memory(ov.conf_j, b.confidence)

    @pytest.mark.parametrize("r1, r2", [((0, 7), (0, 7)), ((3, 8), (0, 5)), ((0, 7), (2, 5)),
                                        ((0, 7), (0, 9)), ((0, 7), (4, 7))],
                             ids=["identical", "starts-before", "nested", "same-start", "same-end"])
    def test_chunk_that_does_not_advance_raises(self, r1, r2):
        # plan_chunks starts and ends each chunk after its predecessor
        a, b = self._chunks(r1, r2)
        with pytest.raises(NoOverlap, match=rf"\[{r1[0]}, {r1[1]}\] and \[{r2[0]}, {r2[1]}\]"):
            slice_overlap(a, b)

    def test_disjoint_raises(self):
        a, b = self._chunks((0, 15), (20, 35))
        with pytest.raises(NoOverlap):
            slice_overlap(a, b)

    def test_mismatched_grids_raise(self):
        a = make_chunk(np.zeros((8, 2, 2, 3)), chunk_id=0)
        b = make_chunk(np.zeros((8, 2, 3, 3)), chunk_id=1, start_frame=4)
        with pytest.raises(NoOverlap, match=r"\[0, 7\] and \[4, 11\]: chunk grids differ"):
            slice_overlap(a, b)
