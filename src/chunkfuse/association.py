"""Dynamic tracklet construction, multi-cue pair costs, endpoint gating,
and identity-preserving one-to-one assignment.

Each chunk side of a junction is one :class:`TrackletSet`: dense arrays
over the consecutive shared overlap frames, where a tracklet's id is its
row. Gating, costs and assignment work on whole sets at once: candidates
are an (K, 2) array of (row in set i, row in set j) pairs, and costs are
a matching (K,) array.

Assignment splits the kept candidates into the connected components of
their bipartite graph, found by min-label propagation over the edges, so
each component is labelled by its smallest vertex. A component of one
edge is matched outright; every other one is solved on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from .model import PipelineConfig, TrackletSet, finite3, norm3
from .registration import GAMMA_C

VEL_EPS = 1e-9
# gamma_p: the gating radius is this many mean per-frame dynamic steps
GAMMA_P_FACTOR = 3.0
# cKDTree's ball test is inclusive and works on squared distances; the
# query is widened by this factor so the strict test below decides alone
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
    """Candidate id pairs whose terminal positions lie closer than
    ``radius``, the gating radius gamma_p (see :func:`resolve_gamma_p`).

    Terminal = position at the last overlap frame. A k-d tree over set j's
    terminals keeps this near-linear in the tracklet count; the distance
    test is strict, so a radius of 0 or less gates nothing. Pairs come
    sorted by (a, b).
    """
    if not len(tracklets_i) or not len(tracklets_j) or radius <= 0:
        return _no_pairs()

    terms_i = tracklets_i.positions[:, -1]
    terms_j = tracklets_j.positions[:, -1]
    hits = cKDTree(terms_j).query_ball_point(terms_i, radius * _BALL_SLACK, return_sorted=True)
    counts = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
    a = np.repeat(np.arange(len(hits), dtype=np.intp), counts)
    b = np.fromiter(chain.from_iterable(hits), dtype=np.intp, count=int(counts.sum()))
    near = norm3(terms_i[a] - terms_j[b]) < radius
    return np.stack([a[near], b[near]], axis=1)


def _components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Component label of each of ``n`` vertices in the undirected graph of
    the edges (u[k], v[k]): the smallest vertex of its component.

    Min-label propagation with pointer jumping. Every vertex points at a
    root no larger than itself. Each round hooks every root to the smallest
    root across its edges into other trees, then jumps pointers until each
    vertex points at its root; rounds go on while an edge joins two trees.
    Labelled by their smallest vertex, components sort the way
    ``scipy.sparse.csgraph.connected_components`` numbers them.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        apart = lu != lv
        if not apart.any():
            return label
        lu, lv = lu[apart], lv[apart]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def assign(
    candidates: np.ndarray,
    costs: np.ndarray,
    n_i: int,
    n_j: int,
    cfg: PipelineConfig,
) -> MatchSet:
    """Minimum-total-cost one-to-one matching with unmatched allowed.

    ``costs[k]`` is the cost of the pair ``candidates[k]``. The sparse
    candidate matrix is padded with per-tracklet dummy assignments of cost
    ``cost_max``, so any tracklet may remain unmatched; candidates above
    ``cost_max`` (or rejected, non-finite) are discarded up front, which
    keeps every reported match at or below the threshold. Deterministic
    given the input.

    Solved per connected component of the kept candidates (see
    :func:`_components`). A component of one edge is matched outright: its
    padded 2x2 problem costs c <= ``cost_max`` matched against
    2 ``cost_max`` unmatched, and ``cost_max`` > 0. Every other component
    is solved with the Hungarian method over its rows and columns in id
    order, which fixes how ties break.
    """
    pairs = np.asarray(candidates, dtype=np.intp).reshape(-1, 2)
    costs = np.asarray(costs, dtype=np.float64)
    keep = np.isfinite(costs) & (costs >= 0.0) & (costs <= cfg.cost_max)
    a, b, c = pairs[keep, 0], pairs[keep, 1], costs[keep]

    matched: list[tuple[int, int, float]] = []
    if len(a):
        n = n_i + n_j
        label = _components(a, n_i + b, n)
        comp = label[a]
        order = np.argsort(comp, kind="stable")
        starts = np.flatnonzero(np.diff(comp[order], prepend=-1))
        count = np.diff(starts, append=len(order))
        lone = order[starts[count == 1]]
        matched += zip(a[lone].tolist(), b[lone].tolist(), c[lone].tolist())
        big = count > 1
        edges = order[np.repeat(big, count)]
        if len(edges):
            # Every vertex of a larger component, ordered by component,
            # then by id, which puts a component's rows (ids < n_i) before
            # its columns. Its rank within its (component, side) group is
            # its local index.
            used = np.zeros(n, dtype=bool)
            used[a[edges]] = used[n_i + b[edges]] = True
            vert = np.flatnonzero(used)
            vert = vert[np.argsort(label[vert], kind="stable")]
            first = np.flatnonzero(np.diff(2 * label[vert] + (vert >= n_i), prepend=-1))
            size = np.diff(first, append=len(vert))
            local = np.empty(n, dtype=np.intp)
            local[vert] = np.arange(len(vert)) - np.repeat(first, size)
            ra_all, cb_all = local[a], local[n_i + b]
            groups = zip(
                np.split(edges, np.cumsum(count[big])[:-1]),
                first[0::2], size[0::2], first[1::2], size[1::2],
            )
            for group, r0, nr, c0, nc in groups:
                rows, cols = vert[r0:r0 + nr], vert[c0:c0 + nc] - n_i
                M = np.full((nr + nc, nc + nr), np.inf)
                M[ra_all[group], cb_all[group]] = c[group]
                M[np.arange(nr), nc + np.arange(nr)] = cfg.cost_max
                M[nr + np.arange(nc), np.arange(nc)] = cfg.cost_max
                M[nr:, nc:] = 0.0
                rr, cc = linear_sum_assignment(M)
                real = (rr < nr) & (cc < nc)
                rr, cc = rr[real], cc[real]
                matched += zip(rows[rr].tolist(), cols[cc].tolist(), M[rr, cc].tolist())
    matched.sort()
    taken_i = np.zeros(n_i, dtype=bool)
    taken_j = np.zeros(n_j, dtype=bool)
    taken_i[[m[0] for m in matched]] = True
    taken_j[[m[1] for m in matched]] = True
    return MatchSet(
        matches=tuple(matched),
        unmatched_i=tuple(np.flatnonzero(~taken_i).tolist()),
        unmatched_j=tuple(np.flatnonzero(~taken_j).tolist()),
    )
