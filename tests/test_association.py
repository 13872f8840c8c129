import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import references as ref
from chunkfuse.association import (
    MatchSet,
    assign,
    build_tracklets,
    gate_candidates,
    pair_cost,
    resolve_gamma_p,
)
from chunkfuse.association import VEL_EPS, _components
from chunkfuse.chunking import slice_overlap
from chunkfuse.model import PipelineConfig, SimilarityTransform, TrackletSet
from chunkfuse.registration import select_anchors
from chunkfuse.synthetic import emit_chunks, generate
from conftest import frac_for, make_chunk, random_rotation, whole_overlap
from scenes import ablation_config, ablation_spec, association_config, association_spec


def tracklets(positions, start=0):
    """A set from an (N, T, 3) stack over frames ``start``...; tracklet k
    seeds at pixel (k, 0)."""
    positions = np.asarray(positions, dtype=float).reshape(-1, *np.shape(positions)[-2:])
    n, t = positions.shape[:2]
    pixels = np.stack([np.arange(n), np.zeros(n, dtype=int)], axis=1)
    return TrackletSet(start, pixels, positions, np.ones((n, t)))


def reference_pair_cost(pa, pb, cfg, scene_scale):
    """The per-pair cost formula, one (T, 3) tracklet pair over consecutive
    frames at a time; None when the pair is rejected."""
    l_traj = float(np.linalg.norm(pa - pb, axis=1).mean()) / scene_scale
    if l_traj > cfg.traj_cap:
        return None
    va = np.diff(pa, axis=0)
    vb = np.diff(pb, axis=0)
    sa = np.linalg.norm(va, axis=1)
    sb = np.linalg.norm(vb, axis=1)
    l_vel = float((np.abs(sa - sb) / (sa + sb + VEL_EPS)).mean())
    cos = np.clip((va * vb).sum(axis=1) / (sa * sb + VEL_EPS**2), -1.0, 1.0)
    l_dir = float(((1.0 - cos) / 2.0).mean())
    if l_dir > cfg.dir_cap:
        return None
    return l_traj + cfg.lambda_vel * l_vel + cfg.lambda_dir * l_dir


def single_cost(pa, pb, cfg, scene_scale):
    """Batched cost of one tracklet pair, None when rejected."""
    (c,) = pair_cost(tracklets([pa]), tracklets([pb]),
                     np.array([[0, 0]]), cfg, scene_scale)
    return None if c == np.inf else float(c)


def assign_dict(costs, n_i, n_j, cfg):
    pairs = np.array(list(costs), dtype=int).reshape(-1, 2)
    return assign(pairs, np.array(list(costs.values()), dtype=float), n_i, n_j, cfg)


def pair_set(candidates):
    return set(map(tuple, candidates.tolist()))


def assignment_total_cost(match_set: MatchSet, cfg: PipelineConfig) -> float:
    """Objective value: matched costs plus cost_max per unmatched tracklet.

    Summation runs in a canonical order so independent solvers of the same
    instance produce bit-identical totals.
    """
    total = 0.0
    for _, _, c in sorted(match_set.matches):
        total += c
    total += cfg.cost_max * (len(match_set.unmatched_i) + len(match_set.unmatched_j))
    return total


def brute_force_match(costs, n_i, n_j, cost_max):
    """Exhaustive minimum of matched costs plus cost_max per unmatched,
    via bitmask DP over columns; exact."""
    memo = {}

    def dp(row, used):
        if row == n_i:
            return cost_max * (n_j - bin(used).count("1")), ()
        key = (row, used)
        if key in memo:
            return memo[key]
        best_val, best_sel = dp(row + 1, used)
        best_val += cost_max
        for b in range(n_j):
            if used >> b & 1:
                continue
            c = costs.get((row, b))
            if c is None or c > cost_max:
                continue
            val, sel = dp(row + 1, used | (1 << b))
            if val + c < best_val:
                best_val = val + c
                best_sel = ((row, b, c),) + sel
        memo[key] = (best_val, best_sel)
        return memo[key]

    _, sel = dp(0, 0)
    taken_i = {a for a, _, _ in sel}
    taken_j = {b for _, b, _ in sel}
    return MatchSet(
        matches=tuple(sorted(sel)),
        unmatched_i=tuple(a for a in range(n_i) if a not in taken_i),
        unmatched_j=tuple(b for b in range(n_j) if b not in taken_j),
    )


def stacked(chunk):
    """(start frame, points, confidences) of a whole chunk, stacked as in an overlap."""
    return chunk.start_frame, chunk.points, chunk.confidence


class TestBuildTracklets:
    def test_static_chunk_yields_nothing(self, rng):
        pts = np.broadcast_to(rng.normal(size=(8, 8, 3)), (4, 8, 8, 3)).copy()
        dyn = np.ones((8, 8), dtype=bool)  # even if flagged dynamic...
        cfg = PipelineConfig(seed_stride=1)
        out = build_tracklets(*stacked(make_chunk(pts)), dyn, 0.1, cfg)
        assert len(out) == 0  # ...the displacement filter drops motionless pixels

    def test_moving_block_tracked(self, rng):
        pts = np.broadcast_to(rng.normal(size=(8, 8, 3)), (4, 8, 8, 3)).copy()
        v = np.array([0.3, 0.0, 0.1])
        block = (slice(2, 5), slice(3, 6))
        for t in range(4):
            pts[t][block] += v * t
        dyn = np.zeros((8, 8), dtype=bool)
        dyn[block] = True
        cfg = PipelineConfig(min_displacement=0.5, seed_stride=1)
        out = build_tracklets(*stacked(make_chunk(pts)), dyn, 0.1, cfg)
        assert pair_set(out.pixels) == {(r, c) for r in range(2, 5) for c in range(3, 6)}
        assert out.frames == range(4)
        steps = np.diff(out.positions, axis=1)
        assert np.abs(steps - v).max() < 1e-12

    def test_zero_confidence_dropped(self, rng):
        pts = np.broadcast_to(rng.normal(size=(6, 6, 3)), (4, 6, 6, 3)).copy()
        for t in range(4):
            pts[t] += np.array([0.5 * t, 0, 0])
        chunk = make_chunk(pts, confidence=np.zeros((4, 6, 6)))
        dyn = np.ones((6, 6), dtype=bool)
        cfg = PipelineConfig(seed_stride=1)
        out = build_tracklets(*stacked(chunk), dyn, 0.1, cfg)
        assert len(out) == 0

    def test_stride_and_raw_positions(self, rng):
        pts = np.broadcast_to(rng.normal(size=(6, 6, 3)), (4, 6, 6, 3)).copy()
        for t in range(4):
            pts[t] += np.array([0.5 * t, 0, 0])
        dyn = np.ones((6, 6), dtype=bool)
        cfg = PipelineConfig(min_displacement=0.5, seed_stride=2)
        out = build_tracklets(*stacked(make_chunk(pts)), dyn, 0.1, cfg)
        assert pair_set(out.pixels) == {(r, c) for r in range(0, 6, 2) for c in range(0, 6, 2)}
        # positions stay in the chunk's own gauge
        got = out.positions[out.pixels.tolist().index([0, 0])]
        assert np.array_equal(got, pts[:, 0, 0, :])

    def test_min_displacement_else_gamma_stat(self, rng):
        # net displacement 0.3 per pixel: kept below the threshold, dropped above
        pts = np.broadcast_to(rng.normal(size=(4, 4, 3)), (4, 4, 4, 3)).copy()
        for t in range(4):
            pts[t] += np.array([0.1 * t, 0, 0])
        args = (*stacked(make_chunk(pts)), np.ones((4, 4), dtype=bool))
        cfg = PipelineConfig(seed_stride=1)
        assert len(build_tracklets(*args, 0.25, cfg)) == 16
        assert len(build_tracklets(*args, 0.35, cfg)) == 0
        cfg = PipelineConfig(seed_stride=1, min_displacement=0.35)
        assert len(build_tracklets(*args, 0.25, cfg)) == 0


@pytest.fixture(scope="module")
def recipe_junctions():
    """Every junction of ``ablation_spec(0)`` and ``association_spec(0)``
    with ``min_displacement`` unset, once with the recipe's
    ``gamma_stat_frac`` and once with 0.04: (cfg, chunk i, chunk j)
    triples."""
    junctions = []
    for spec, config in ((ablation_spec(0), ablation_config()),
                         (association_spec(0), association_config())):
        chunks = list(emit_chunks(generate(spec), config, spec).chunks)
        for frac in (config.gamma_stat_frac, 0.04):
            cfg = dataclasses.replace(config, min_displacement=None, gamma_stat_frac=frac)
            junctions += [(cfg, a, b) for a, b in zip(chunks, chunks[1:])]
    return junctions


def test_build_tracklets_matches_chunk_scale_reference(recipe_junctions):
    """The thresholds ``select_anchors`` resolves give the tracklets the
    per-chunk scene-scale fallback chain gave, bit for bit."""
    sizes = []
    for cfg, a, b in recipe_junctions:
        overlap = slice_overlap(a, b)
        ab = select_anchors(overlap, cfg)
        sides = ((a, overlap.points_i, overlap.conf_i, ab.gamma_stat),
                 (b, overlap.points_j, overlap.conf_j, ab.gamma_stat_j))
        for chunk, points, conf, gamma_stat in sides:
            got = build_tracklets(overlap.frames.start, points, conf, ab.dynamic_mask,
                                  gamma_stat, cfg)
            want = ref.build_tracklets(chunk, overlap.frames, ab.dynamic_mask, cfg)
            assert got.frames == want.frames
            assert np.array_equal(got.pixels, want.pixels)
            assert ref.same_bits(got.positions, want.positions)
            assert ref.same_bits(got.conf, want.conf)
            assert got.positions.flags.c_contiguous and got.conf.flags.c_contiguous
            sizes.append(len(got))
    assert len(sizes) == 2 * 2 * (10 + 4) and min(sizes) > 0


class TestPairCost:
    CFG = PipelineConfig()

    def test_identical_tracklets_cost_zero(self, rng):
        pos = np.cumsum(rng.normal(size=(5, 3)), axis=0)
        assert single_cost(pos, pos, self.CFG, scene_scale=4.0) == pytest.approx(0.0, abs=1e-12)

    def test_opposite_velocities_rejected(self):
        v = np.array([0.02, 0.0, 0.0])
        path = np.array([k * v for k in range(4)])
        # same swept segment, exactly opposite velocities: L_dir = 1 > 0.5
        assert single_cost(path, path[::-1], self.CFG, scene_scale=10.0) is None

    def test_parallel_offset_closed_form(self):
        v = np.array([0.1, 0.05, 0.0])
        delta = np.array([0.0, 0.0, 0.12])
        path = np.array([k * v for k in range(4)])
        scene_scale = 6.0
        cost = single_cost(path, path + delta, self.CFG, scene_scale)
        expected = np.linalg.norm(delta) / scene_scale
        assert cost == pytest.approx(expected, abs=1e-15)

    def test_frames_must_match(self):
        ti = tracklets([np.zeros((2, 3))], start=0)
        tj = tracklets([[[0, 0, 0], [1, 0, 0]]], start=4)
        with pytest.raises(ValueError):
            pair_cost(ti, tj, np.array([[0, 0]]), self.CFG, scene_scale=1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        pa = np.cumsum(rng.normal(scale=0.05, size=(4, 3)), axis=0)
        pb = pa + rng.normal(scale=0.02, size=(4, 3))
        cfg = PipelineConfig(traj_cap=10.0, dir_cap=10.0)
        ab = single_cost(pa, pb, cfg, scene_scale=3.0)
        ba = single_cost(pb, pa, cfg, scene_scale=3.0)
        assert ab == pytest.approx(ba, abs=1e-12)

    def test_rigid_gauge_invariance(self, rng):
        pa = np.cumsum(rng.normal(scale=0.1, size=(4, 3)), axis=0)
        pb = pa + rng.normal(scale=0.03, size=(4, 3))
        cfg = PipelineConfig(traj_cap=10.0, dir_cap=10.0)
        base = single_cost(pa, pb, cfg, scene_scale=3.0)
        T = SimilarityTransform(1.0, random_rotation(rng), rng.normal(size=3))
        moved = single_cost(T.apply(pa), T.apply(pb), cfg, scene_scale=3.0)
        assert moved == pytest.approx(base, abs=1e-9)

    def test_uniform_scaling_normalized(self, rng):
        pa = np.cumsum(rng.normal(scale=0.1, size=(4, 3)), axis=0)
        pb = pa + rng.normal(scale=0.03, size=(4, 3))
        cfg = PipelineConfig(traj_cap=10.0, dir_cap=10.0, lambda_vel=0.0)
        # with the magnitude term off, scaling points and scene scale together
        # leaves the cost unchanged (trajectory term normalized, direction
        # term scale-free)
        base = single_cost(pa, pb, cfg, scene_scale=3.0)
        s = 4.2
        scaled = single_cost(s * pa, s * pb, cfg, scene_scale=3.0 * s)
        assert scaled == pytest.approx(base, abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_crossing_rejection(self, seed):
        # two straight tracklets intersecting at the overlap midpoint with
        # opposing directions never survive any direction cap below 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 7))
        crossing = rng.normal(size=3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        speed = rng.uniform(0.05, 0.5)
        mid = (n - 1) / 2.0
        t = np.arange(n, dtype=float)
        pa = crossing + np.outer(t - mid, direction * speed)
        pb = crossing - np.outer(t - mid, direction * speed)
        cfg = PipelineConfig(dir_cap=float(rng.uniform(0.1, 0.99)), traj_cap=100.0)
        assert single_cost(pa, pb, cfg, scene_scale=float(rng.uniform(1, 10))) is None

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n_i, n_j, t = (int(v) for v in rng.integers([1, 1, 2], [12, 12, 10]))
        start = int(rng.integers(0, 50))

        steps = rng.normal(scale=rng.uniform(0.01, 0.3), size=(n_i, t, 3))
        pos_i = rng.normal(size=(n_i, 1, 3)) + np.cumsum(steps, axis=1)
        # set j: noisy copies of set i's tracklets, so many pairs survive
        pos_j = pos_i[rng.integers(0, n_i, n_j)] + rng.normal(scale=0.05, size=(n_j, t, 3))
        ti, tj = tracklets(pos_i, start), tracklets(pos_j, start)
        # caps low enough that both rejections fire on part of the pairs
        cfg = PipelineConfig(traj_cap=float(rng.uniform(0.05, 1.0)),
                             dir_cap=float(rng.uniform(0.05, 0.6)),
                             lambda_vel=float(rng.uniform(0, 2)))
        scene_scale = float(rng.uniform(0.5, 5.0))
        candidates = np.array([(a, b) for a in range(n_i) for b in range(n_j)])
        costs = pair_cost(ti, tj, candidates, cfg, scene_scale)
        for (a, b), c in zip(candidates, costs):
            ref = reference_pair_cost(ti.positions[a], tj.positions[b], cfg, scene_scale)
            if ref is None:
                assert c == np.inf
            else:
                assert c == ref  # bit for bit, not approximately

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_per_pair_gather_reference_bitwise(self, seed):
        # positions on a coarse lattice give zero and repeated steps and
        # exact ties; a few non-finite entries and repeated, unordered
        # candidates cover what a caller may pass
        rng = np.random.default_rng(seed)
        n_i, n_j = (int(v) for v in rng.integers(0, 15, size=2))
        t = int(rng.integers(2, 10))
        coarse = bool(rng.integers(2))
        pos = [rng.integers(-2, 3, size=(n, t, 3)) * 0.5 if coarse
               else rng.normal(size=(n, 1, 3)) + np.cumsum(rng.normal(scale=0.2, size=(n, t, 3)), axis=1)
               for n in (n_i, n_j)]
        for p in pos:
            bad = rng.random(p.shape) < 0.01
            p[bad] = rng.choice([np.nan, np.inf, -np.inf], int(bad.sum()))
        ti, tj = tracklets(pos[0], 3), tracklets(pos[1], 3)
        k = int(rng.integers(0, 60)) if n_i and n_j else 0
        a, b = rng.integers(0, max(n_i, 1), k), rng.integers(0, max(n_j, 1), k)
        # half the time a strided view, as a column slice of a wider array
        candidates = np.stack([a, b], axis=1) if rng.integers(2) else np.stack([a, a, b], axis=1)[:, ::2]
        cfg = PipelineConfig(traj_cap=float(rng.uniform(0.05, 2.0)),
                             dir_cap=float(rng.uniform(0.05, 1.0)),
                             lambda_vel=float(rng.uniform(0, 2)),
                             lambda_dir=float(rng.uniform(0, 2)))
        scene_scale = float(rng.uniform(0.5, 5.0))
        with np.errstate(invalid="ignore", over="ignore"):
            got = pair_cost(ti, tj, candidates, cfg, scene_scale)
            want = ref.pair_cost(ti, tj, candidates, cfg, scene_scale)
        assert ref.same_bits(got, want)


class TestGateCandidates:
    def _tracklets(self, terminals):
        terms = np.asarray(terminals, dtype=float).reshape(-1, 3)
        return tracklets(np.stack([terms - [0.5, 0, 0], terms], axis=1))

    def test_coincident_all_pairs(self):
        ti = self._tracklets([[0, 0, 0]] * 3)
        tj = self._tracklets([[0, 0, 0]] * 4)
        pairs = gate_candidates(ti, tj, 1.0)
        assert pair_set(pairs) == {(a, b) for a in range(3) for b in range(4)}

    def test_two_clusters(self):
        gamma_p = 0.4
        ti = self._tracklets([[0, 0, 0], [0.1, 0, 0], [10 * gamma_p, 0, 0]])
        tj = self._tracklets([[0.05, 0, 0], [10 * gamma_p + 0.05, 0, 0]])
        pairs = gate_candidates(ti, tj, gamma_p)
        assert pairs.tolist() == [[0, 0], [1, 0], [2, 1]]

    def test_empty_side(self):
        ti = self._tracklets([[0, 0, 0]])
        none = self._tracklets(np.empty((0, 3)))
        assert len(gate_candidates(ti, none, 1.0)) == 0
        assert len(gate_candidates(none, ti, 1.0)) == 0
        assert resolve_gamma_p(none, none) == 0.0

    def test_adaptive_radius(self):
        ti = self._tracklets([[0, 0, 0]])  # single step of 0.5
        tj = self._tracklets([[1.2, 0, 0]])
        assert resolve_gamma_p(ti, tj) == pytest.approx(1.5)
        assert gate_candidates(ti, tj, resolve_gamma_p(ti, tj)).tolist() == [[0, 0]]

    def test_radius_is_strict(self):
        ti = self._tracklets([[0, 0, 0]])
        tj = self._tracklets([[0.5, 0, 0], [0.25, 0, 0]])
        assert gate_candidates(ti, tj, 0.5).tolist() == [[0, 1]]
        assert len(gate_candidates(ti, tj, 0.0)) == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_brute_force_scan(self, seed):
        rng = np.random.default_rng(seed)
        n_i, n_j = (int(v) for v in rng.integers(0, 40, size=2))
        # a coarse lattice puts many terminals at exactly the radius
        terms_i = rng.integers(-3, 4, size=(n_i, 3)) * 0.25
        terms_j = rng.integers(-3, 4, size=(n_j, 3)) * 0.25
        terms_j[: n_j // 2] += rng.normal(scale=0.1, size=(n_j // 2, 3))
        ti, tj = self._tracklets(terms_i), self._tracklets(terms_j)
        radius = float(rng.choice([0.25, 0.5, rng.uniform(0.05, 1.0)]))
        brute = [
            [a, b]
            for a in range(n_i)
            for b in range(n_j)
            if np.linalg.norm(terms_i[a] - terms_j[b]) < radius
        ]
        assert gate_candidates(ti, tj, radius).tolist() == brute


class TestAssign:
    CFG = PipelineConfig(cost_max=1.0)

    def test_single_candidate(self):
        ms = assign_dict({(0, 0): 0.4}, 1, 1, self.CFG)
        assert ms.matches == ((0, 0, 0.4),)
        assert ms.unmatched_i == () and ms.unmatched_j == ()

    def test_diagonal_2x2(self):
        costs = {(0, 0): 1.0, (0, 1): 10.0, (1, 0): 10.0, (1, 1): 1.0}
        cfg = PipelineConfig(cost_max=20.0)
        ms = assign_dict(costs, 2, 2, cfg)
        assert ms.matches == ((0, 0, 1.0), (1, 1, 1.0))

    def test_all_over_threshold_unmatched(self):
        costs = {(a, b): 5.0 for a in range(2) for b in range(2)}
        ms = assign_dict(costs, 2, 2, self.CFG)
        assert ms.matches == ()
        assert ms.unmatched_i == (0, 1) and ms.unmatched_j == (0, 1)

    def test_rejected_costs_never_match(self):
        ms = assign(np.array([[0, 0], [1, 1]]), np.array([np.inf, np.nan]), 2, 2, self.CFG)
        assert ms.matches == ()
        assert ms.unmatched_i == (0, 1) and ms.unmatched_j == (0, 1)

    def test_match_costs_capped(self, rng):
        costs = {(a, b): float(rng.uniform(0, 2)) for a in range(5) for b in range(5)}
        ms = assign_dict(costs, 5, 5, self.CFG)
        assert all(c <= self.CFG.cost_max for _, _, c in ms.matches)

    def test_deterministic(self, rng):
        costs = {(a, b): float(rng.uniform(0, 2)) for a in range(6) for b in range(5)}
        first = assign_dict(costs, 6, 5, self.CFG)
        second = assign_dict(dict(costs), 6, 5, self.CFG)
        assert first == second

    def test_matches_brute_force_small(self, rng):
        for trial in range(60):
            n_i = int(rng.integers(1, 7))
            n_j = int(rng.integers(1, 7))
            density = rng.uniform(0.3, 1.0)
            costs = {
                (a, b): float(rng.uniform(0, 1.6))
                for a in range(n_i)
                for b in range(n_j)
                if rng.random() < density
            }
            ours = assign_dict(costs, n_i, n_j, self.CFG)
            brute = brute_force_match(costs, n_i, n_j, self.CFG.cost_max)
            assert assignment_total_cost(ours, self.CFG) == assignment_total_cost(brute, self.CFG)


    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40), st.floats(0.01, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_component_unique_reference(self, seed, n_i, n_j, density):
        # costs from a coarse grid, so ties make the result depend on each
        # component's local row and column order
        rng = np.random.default_rng(seed)
        mask = rng.random((n_i, n_j)) < density
        candidates = np.argwhere(mask)
        costs = rng.choice([0.0, 0.25, 0.5, 0.5, 1.0, 1.5, np.inf, np.nan], len(candidates))
        order = rng.permutation(len(candidates))
        candidates, costs = candidates[order], costs[order]
        expected = ref.assign(candidates, costs, n_i, n_j, self.CFG)
        assert assign(candidates, costs, n_i, n_j, self.CFG) == expected

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(0, 120))
    @settings(max_examples=100, deadline=None)
    def test_components_labelled_by_smallest_vertex(self, seed, n, k):
        rng = np.random.default_rng(seed)
        u, v = rng.integers(0, n, size=(2, k))
        graph = coo_matrix((np.ones(k), (u, v)), shape=(n, n))
        _, scipy_label = connected_components(graph, directed=False)
        smallest = np.full(scipy_label.max() + 1, n)
        np.minimum.at(smallest, scipy_label, np.arange(n))
        assert (np.diff(smallest) > 0).all()  # scipy numbers them by smallest vertex
        assert _components(u, v, n).tolist() == smallest[scipy_label].tolist()

    @pytest.mark.parametrize("cost_max", [1.0, 0.25])
    def test_single_edge_components_equal_reference(self, cost_max):
        # every component one edge, at cost 0, inside and exactly at cost_max
        cfg = PipelineConfig(cost_max=cost_max)
        costs = np.array([0.0, cost_max, 0.5 * cost_max, cost_max, 0.0, 0.1 * cost_max])
        candidates = np.array([[5, 0], [0, 3], [2, 2], [7, 6], [1, 1], [4, 5]])
        ms = assign(candidates, costs, 9, 7, cfg)
        assert ms == ref.assign(candidates, costs, 9, 7, cfg)
        assert ms.matches == tuple(sorted(zip(candidates[:, 0].tolist(), candidates[:, 1].tolist(),
                                              costs.tolist())))
        assert ms.unmatched_i == (3, 6, 8) and ms.unmatched_j == (4,)

    def test_single_edge_at_cost_max_and_zero(self):
        cfg = PipelineConfig(cost_max=0.6)
        for c in (0.0, 0.6):
            ms = assign(np.array([[0, 0]]), np.array([c]), 1, 1, cfg)
            assert ms == ref.assign(np.array([[0, 0]]), np.array([c]), 1, 1, cfg)
            assert ms.matches == ((0, 0, c),)
        # just above cost_max the edge is dropped, so the tracklets stay apart
        over = np.nextafter(0.6, 1.0)
        assert assign(np.array([[0, 0]]), np.array([over]), 1, 1, cfg).matches == ()

    def test_mixed_single_edge_and_larger_components(self, rng):
        cfg = PipelineConfig(cost_max=1.0)
        for _ in range(40):
            n_i, n_j = 30, 30
            # a few larger blocks among many one-edge pairs, ids shuffled
            pairs = [(a, a) for a in range(10, 30)]
            pairs += [(a, b) for a in range(0, 4) for b in range(0, 3)]
            pairs += [(a, b) for a in range(5, 8) for b in range(6, 10) if rng.random() < 0.7]
            perm_i, perm_j = rng.permutation(n_i), rng.permutation(n_j)
            candidates = np.array([(perm_i[a], perm_j[b]) for a, b in pairs])
            candidates = candidates[rng.permutation(len(candidates))]
            costs = rng.choice([0.0, 0.25, 0.5, 1.0, 1.5, np.inf], len(candidates))
            assert assign(candidates, costs, n_i, n_j, cfg) == ref.assign(candidates, costs, n_i, n_j, cfg)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_long_path_component_equals_reference(self, rng, reverse):
        # one ~200-vertex path, rows and columns alternating, the worst case
        # for labelling by propagation; ties left to the local order
        cfg = PipelineConfig(cost_max=1.0)
        n = 100
        a = np.concatenate([np.arange(n), np.arange(1, n)])
        b = np.concatenate([np.arange(n), np.arange(n - 1)])
        if reverse:  # the path's ids run the other way along it
            a, b = n - 1 - a, n - 1 - b
        candidates = np.stack([a, b], axis=1)[rng.permutation(2 * n - 1)]
        costs = rng.choice([0.25, 0.5, 0.75], len(candidates))
        assert assign(candidates, costs, n, n, cfg) == ref.assign(candidates, costs, n, n, cfg)
        label = _components(candidates[:, 0], n + candidates[:, 1], 2 * n)
        assert (label == 0).all()


class TestEndToEndAssociation:
    def test_moving_block_matches_same_pixels(self, rng):
        base = rng.normal(size=(10, 10, 3)) + np.array([0, 0, 5.0])
        pts = np.broadcast_to(base, (4, 10, 10, 3)).copy()
        v = np.array([0.25, 0.1, 0.0])
        block = (slice(4, 7), slice(4, 7))
        for t in range(4):
            pts[t][block] += v * t
        a = make_chunk(pts, chunk_id=0)
        b = make_chunk(pts, chunk_id=1)
        cfg = PipelineConfig(gamma_stat_frac=frac_for(0.1, a), min_displacement=0.3, seed_stride=1)
        overlap = whole_overlap(a, b)
        ab = select_anchors(overlap, cfg)
        assert ab.gamma_stat == pytest.approx(0.1)
        start = overlap.frames.start
        ti = build_tracklets(start, overlap.points_i, overlap.conf_i, ab.dynamic_mask,
                             ab.gamma_stat, cfg)
        tj = build_tracklets(start, overlap.points_j, overlap.conf_j, ab.dynamic_mask,
                             ab.gamma_stat_j, cfg)
        candidates = gate_candidates(ti, tj, resolve_gamma_p(ti, tj))
        costs = pair_cost(ti, tj, candidates, cfg, ab.scene_scale)
        ms = assign(candidates, costs, len(ti), len(tj), cfg)
        assert len(ms) == 9
        for x, y, _ in ms.matches:
            assert ti.pixels[x].tolist() == tj.pixels[y].tolist()
