"""Dynamic tracklet construction, multi-cue pair costs, endpoint gating,
and identity-preserving one-to-one assignment.

Each chunk side of a junction is one :class:`TrackletSet`: dense arrays
over the consecutive shared overlap frames, where a tracklet's id is its
row. Gating, costs and assignment work on whole sets at once: candidates
are an (K, 2) array of (row in set i, row in set j) pairs, and costs are
a matching (K,) array.

Gating keeps a pair when either tracklet is among the other's
:data:`GATE_K` nearest terminals inside the gating radius, so the
candidates grow with the tracklet count, not with its square. Assignment
solves a whole round as one sparse minimum-weight perfect matching (see
:func:`assign`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching
from scipy.spatial import cKDTree

from .model import PipelineConfig, TrackletSet, finite3, norm3
from .registration import GAMMA_C

VEL_EPS = 1e-9
# gamma_p: the gating radius is this many mean per-frame dynamic steps
GAMMA_P_FACTOR = 3.0
# gating keeps each tracklet's GATE_K nearest partners inside gamma_p
GATE_K = 6
# cKDTree's distance bound works on squared distances, rounded its own
# way; the query is widened by this factor so the strict test below
# decides alone
_BALL_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class MatchSet:
    """One-to-one matches between two tracklet sets plus the leftovers."""

    matches: tuple[tuple[int, int, float], ...]
    unmatched_i: tuple[int, ...]
    unmatched_j: tuple[int, ...]

    def __post_init__(self):
        rows = [a for a, _, _ in self.matches]
        cols = [b for _, b, _ in self.matches]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("matches must be one-to-one on both sides")

    def __len__(self) -> int:
        return len(self.matches)

    def pairs(self) -> np.ndarray:
        """Matched (a, b) ids as an (M, 2) integer array, in match order."""
        return np.array([(a, b) for a, b, _ in self.matches], dtype=np.intp).reshape(-1, 2)


def _no_pairs() -> np.ndarray:
    return np.empty((0, 2), dtype=np.intp)


def build_tracklets(
    start_frame: int,
    points: np.ndarray,
    conf: np.ndarray,
    dynamic_mask: np.ndarray,
    gamma_stat: float,
    cfg: PipelineConfig,
) -> TrackletSet:
    """Per-pixel candidate tracklets of one chunk over the overlap.

    ``points`` (T, H, W, 3) and ``conf`` (T, H, W) are the chunk's
    predictions over the T overlap frames from ``start_frame`` on, in its
    own gauge. One
    candidate per dynamic-support pixel sampled at ``seed_stride``, in
    row-major pixel order. Candidates with mean confidence at or below
    GAMMA_C, with a non-finite position, or with net displacement below the
    minimum are dropped: ``cfg.min_displacement``, or else ``gamma_stat``,
    the rigidity threshold :func:`select_anchors` resolved against this
    chunk's own scale, so the gate is gauge-free.
    """
    min_disp = gamma_stat if cfg.min_displacement is None else cfg.min_displacement
    rows, cols = np.nonzero(dynamic_mask)
    stride = cfg.seed_stride
    keep = (rows % stride == 0) & (cols % stride == 0)
    rows, cols = rows[keep], cols[keep]

    # C-contiguous: numpy's sums over T round by layout once T >= 8
    pos = np.ascontiguousarray(points[:, rows, cols].transpose(1, 0, 2))
    cnf = np.ascontiguousarray(conf[:, rows, cols].T)
    with np.errstate(invalid="ignore"):
        # net displacement over the window; robust to noise, unlike path length
        disp = norm3(pos[:, -1] - pos[:, 0])
    keep = (cnf.mean(axis=1) > GAMMA_C) & finite3(pos).all(axis=1)
    keep &= disp >= min_disp
    return TrackletSet(
        start_frame=start_frame,
        pixels=np.stack([rows[keep], cols[keep]], axis=1),
        positions=pos[keep],
        conf=cnf[keep],
    )


def pair_cost(
    tracklets_i: TrackletSet,
    tracklets_j: TrackletSet,
    candidates: np.ndarray,
    cfg: PipelineConfig,
    scene_scale: float,
) -> np.ndarray:
    """Multi-cue association cost of every candidate pair; inf where the
    pair is rejected.

    cost = L_traj + lambda_vel * L_vel + lambda_dir * L_dir
    with L_traj the mean 3D discrepancy normalized by the pair's scene
    scale, L_vel the symmetric speed-magnitude mismatch, and L_dir the mean
    (1 - cos angle) / 2 between velocities. Both sets span the same
    consecutive frames, so a velocity is the step from one frame to the
    next. L_traj has
    unit weight: dividing the weights and ``cost_max`` by one factor keeps
    every match. Pairs whose L_traj or L_dir exceed the caps are rejected.
    """
    if tracklets_i.frames != tracklets_j.frames:
        raise ValueError("pair costs need both tracklet sets over the same frames")
    # np.take gathers rows several times faster than fancy indexing
    ca, cb = np.ascontiguousarray(candidates.T)
    pa = np.take(tracklets_i.positions, ca, axis=0)
    pb = np.take(tracklets_j.positions, cb, axis=0)

    l_traj = norm3(pa - pb).mean(axis=-1) / scene_scale

    # each set's velocities and speeds once, gathered per candidate: the
    # same elementwise bits as forming them pair by pair
    vel_i = np.diff(tracklets_i.positions, axis=1)
    vel_j = np.diff(tracklets_j.positions, axis=1)
    va, vb = np.take(vel_i, ca, axis=0), np.take(vel_j, cb, axis=0)
    sa, sb = np.take(norm3(vel_i), ca, axis=0), np.take(norm3(vel_j), cb, axis=0)
    l_vel = (np.abs(sa - sb) / (sa + sb + VEL_EPS)).mean(axis=-1)

    cos = np.clip((va * vb).sum(axis=-1) / (sa * sb + VEL_EPS**2), -1.0, 1.0)
    l_dir = ((1.0 - cos) / 2.0).mean(axis=-1)

    cost = l_traj + cfg.lambda_vel * l_vel + cfg.lambda_dir * l_dir
    return np.where((l_traj > cfg.traj_cap) | (l_dir > cfg.dir_cap), np.inf, cost)


def resolve_gamma_p(tracklets_i: TrackletSet, tracklets_j: TrackletSet) -> float:
    """Gating radius gamma_p: :data:`GAMMA_P_FACTOR` times the mean
    per-frame step of the tracklets of both sets, in the gauge they are
    given in; 0 when both are empty."""
    steps = np.concatenate([
        norm3(np.diff(t.positions, axis=1)).mean(axis=-1)
        for t in (tracklets_i, tracklets_j)
    ])
    if not steps.size:
        return 0.0
    return GAMMA_P_FACTOR * float(np.mean(steps))


def gate_candidates(tracklets_i: TrackletSet, tracklets_j: TrackletSet, radius: float) -> np.ndarray:
    """Candidate id pairs (a, b) whose terminal positions lie closer than
    ``radius``, the gating radius gamma_p (see :func:`resolve_gamma_p`),
    and where b is among a's :data:`GATE_K` nearest terminals of set j or a
    among b's of set i.

    Terminal = position at the last overlap frame. One k-d tree query per
    side keeps this near-linear in the tracklet count, and every tracklet
    keeps at most ``GATE_K`` partners of its own, so there are at most
    ``GATE_K * (n_i + n_j)`` pairs. Of terminals tied at the k-th nearest
    distance, the tree's query decides which are kept; swapping the sets
    transposes the pairs. The distance test is strict, so a radius of 0 or
    less gates nothing. Pairs come sorted by (a, b).
    """
    if not len(tracklets_i) or not len(tracklets_j) or radius <= 0:
        return _no_pairs()

    terms_i = tracklets_i.positions[:, -1]
    terms_j = tracklets_j.positions[:, -1]
    n_i, n_j = len(terms_i), len(terms_j)
    bound = radius * _BALL_SLACK
    # (n, GATE_K) neighbour ids, the other set's size past its last hit
    _, near_j = cKDTree(terms_j).query(terms_i, k=GATE_K, distance_upper_bound=bound)
    _, near_i = cKDTree(terms_i).query(terms_j, k=GATE_K, distance_upper_bound=bound)
    hit_j = np.flatnonzero(near_j < n_j)
    hit_i = np.flatnonzero(near_i < n_i)
    # a pair's key a * n_j + b sorts by (a, b); a pair found from both
    # sides repeats, and sorting then dropping repeats is several times
    # faster than np.unique here
    keys = np.sort(np.concatenate([
        hit_j // GATE_K * n_j + near_j.ravel()[hit_j],
        near_i.ravel()[hit_i] * n_j + hit_i // GATE_K,
    ]))
    a, b = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n_j)
    near = norm3(terms_i[a] - terms_j[b]) < radius
    return np.stack([a[near], b[near]], axis=1)


def assign(
    candidates: np.ndarray,
    costs: np.ndarray,
    n_i: int,
    n_j: int,
    cfg: PipelineConfig,
) -> MatchSet:
    """Minimum-total-cost one-to-one matching with unmatched allowed.

    ``costs[k]`` is the cost of the pair ``candidates[k]``; a pair given
    more than once keeps its lowest cost. Candidates above ``cost_max``
    (or rejected, non-finite) are discarded up front, which keeps every
    reported match at or below the threshold, and an unmatched tracklet
    costs ``cost_max``.

    Solved as one minimum-weight perfect matching of a sparse padded graph
    (``scipy.sparse.csgraph.min_weight_full_bipartite_matching``, the
    Jonker-Volgenant shortest augmenting path method). Its rows are set
    i's tracklets, then one dummy per tracklet of set j; its columns set
    j's tracklets, then one dummy per tracklet of set i. Every kept pair
    (a, b) is an edge a -> b at its cost; each tracklet has an edge to its
    own dummy at ``cost_max``; and each kept pair has the transpose edge
    dummy b -> dummy a at 0, so that the dummies of a matched pair pair up.
    A perfect matching of this graph is a matching of the tracklets at
    the same total cost, and back. The solver drops zero weights, so every
    weight is shifted by ``cost_max``: each perfect matching pays the
    shift n_i + n_j times, and the optimum does not move.

    Between matchings of equal total cost, the solver's order over the
    graph's rows and columns, both in id order, decides. The result is
    deterministic given the set of kept pairs and their costs, whatever
    their order, but may differ from another exact solver's.
    """
    pairs = np.asarray(candidates, dtype=np.intp).reshape(-1, 2)
    costs = np.asarray(costs, dtype=np.float64)
    keep = np.isfinite(costs) & (costs >= 0.0) & (costs <= cfg.cost_max)
    taken_i = np.zeros(n_i, dtype=bool)
    taken_j = np.zeros(n_j, dtype=bool)
    matches: tuple[tuple[int, int, float], ...] = ()
    if keep.any():
        n = n_i + n_j
        ids = np.arange(n + 1)
        a, b = pairs[keep, 0], pairs[keep, 1]
        rows = np.concatenate([a, ids[:n_i], ids[n_i:n], n_i + b])
        cols = np.concatenate([b, n_j + ids[:n_i], ids[:n_j], n_j + a])
        cost = np.concatenate([costs[keep], np.full(n, cfg.cost_max), np.zeros(len(a))])
        # the graph's entries in (row, col) order, keyed row * n + col; a
        # pair given more than once keeps its lowest cost
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        key, cost = key[first], np.minimum.reduceat(cost[order], first)
        graph = csr_array((cost + cfg.cost_max, key % n, np.searchsorted(key, ids * n)), shape=(n, n))
        _, col = min_weight_full_bipartite_matching(graph)
        ma = np.flatnonzero(col[:n_i] < n_j)
        mb = col[ma].astype(np.intp)
        mc = cost[np.searchsorted(key, ma * n + mb)]
        matches = tuple(zip(ma.tolist(), mb.tolist(), mc.tolist()))
        taken_i[ma] = taken_j[mb] = True
    return MatchSet(
        matches=matches,
        unmatched_i=tuple(np.flatnonzero(~taken_i).tolist()),
        unmatched_j=tuple(np.flatnonzero(~taken_j).tolist()),
    )
