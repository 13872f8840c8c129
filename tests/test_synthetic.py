import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkfuse import synthetic
from chunkfuse.errors import InvalidSpec
from chunkfuse.model import PipelineConfig
from chunkfuse.synthetic import (
    BackgroundSpec,
    CameraSpec,
    GaugeSpec,
    ObjectSpec,
    SceneSpec,
    TrajectorySpec,
    _cell_boxes,
    _cover,
    _look_at_rotations,
    _pixel_directions,
    _ray_background,
    _wall_certified,
    _wall_free,
    emit_chunks,
    generate,
)
import references as ref
import scenes
from scenes import (
    ablation_spec,
    association_spec,
    dynamic_overlap_spec,
    end_to_end_spec,
    gauge_recovery_spec,
    identity_span_spec,
)


def static_camera():
    return CameraSpec(kind="dolly", start=(0.0, 0.0, -1.0), target=(0, 0, 4.0),
                      velocity=(0.0, 0.0, 0.0))


def sphere(velocity=(0.05, 0.01, 0.0), position=(-0.8, 0.2, 4.0), size=0.4):
    return ObjectSpec(shape="sphere", size=(size,) * 3, position=position,
                      trajectory=TrajectorySpec(kind="linear", velocity=velocity))


class TestGenerate:
    def test_static_scene_constant_pointmaps(self):
        spec = SceneSpec(num_frames=6, height=10, width=10, seed=0, camera=static_camera())
        gt = generate(spec)
        for t in range(1, 6):
            assert np.array_equal(gt.points[t], gt.points[0])
        assert (gt.object_ids == -1).all()

    def test_linear_sphere_advances_by_velocity(self):
        v = np.array([0.05, 0.01, 0.0])
        spec = SceneSpec(num_frames=8, height=16, width=16, seed=1,
                         objects=(sphere(tuple(v)),), camera=static_camera())
        gt = generate(spec)
        on_obj = gt.object_ids == 0
        assert on_obj.any()
        steps = np.diff(gt.points[:, on_obj, :], axis=0)
        assert np.abs(steps - v).max() < 1e-12

    def test_determinism_bit_identical(self):
        spec = SceneSpec(num_frames=6, height=12, width=12, seed=42,
                         objects=(sphere(),),
                         camera=CameraSpec(kind="orbit", start=(0.2, 0.1, -1.0),
                                           target=(0, 0, 4.0), rate=0.02, bob=0.05))
        a = generate(spec)
        b = generate(spec)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.visible.tobytes() == b.visible.tobytes()
        assert a.object_ids.tobytes() == b.object_ids.tobytes()
        assert all(np.array_equal(p.matrix(), q.matrix()) for p, q in zip(a.poses, b.poses))

    def test_draws_no_random_numbers(self, monkeypatch):
        spec = SceneSpec(num_frames=4, height=10, width=10, seed=3, objects=(sphere(),),
                         camera=CameraSpec(kind="orbit", start=(0.2, 0.1, -1.0),
                                           target=(0, 0, 4.0), rate=0.02))
        want = generate(dataclasses.replace(spec, seed=11))

        def no_rng(*args, **kwargs):
            raise AssertionError("generate drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        monkeypatch.setattr(np.random, "SeedSequence", no_rng)
        got = generate(spec)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.visible.tobytes() == want.visible.tobytes()

    def test_binding_matches_bruteforce_nearest_surface(self, rng):
        spec = SceneSpec(num_frames=4, height=14, width=14, seed=5,
                         objects=(sphere(), sphere(velocity=(-0.03, 0.0, 0.02),
                                                   position=(0.9, -0.3, 3.6), size=0.35)),
                         camera=static_camera())
        gt = generate(spec)
        pose0 = gt.poses[0]
        dirs = _pixel_directions(14, 14) @ pose0.rotation.T
        o = pose0.center
        for _ in range(100):
            r = int(rng.integers(14))
            c = int(rng.integers(14))
            d = dirs[r, c]
            # slow dense ray march + bisection against every surface
            best_s, best_id = np.inf, -2
            for m, obj in enumerate(spec.objects):
                center = np.asarray(obj.position)
                oc = o - center
                b = d @ oc
                disc = b * b - (oc @ oc - obj.size[0] ** 2)
                if disc >= 0:
                    for root in (-b - math.sqrt(disc), -b + math.sqrt(disc)):
                        if 1e-9 < root < best_s:
                            best_s, best_id = root, m
                            break
            bg = spec.background
            lo, hi = 0.0, 20.0
            g = lambda s: (o + s * d)[2] - bg.height(*(o + s * d)[:2])
            s_grid = np.linspace(lo, hi, 4000)
            vals = np.array([g(s) for s in s_grid])
            sign_change = np.nonzero((vals[:-1] <= 0) & (vals[1:] > 0))[0]
            if len(sign_change):
                a_, b_ = s_grid[sign_change[0]], s_grid[sign_change[0] + 1]
                for _ in range(80):
                    mid = 0.5 * (a_ + b_)
                    if g(mid) <= 0:
                        a_ = mid
                    else:
                        b_ = mid
                s_bg = 0.5 * (a_ + b_)
                if s_bg < best_s:
                    best_s, best_id = s_bg, -1
            assert best_id == gt.object_ids[r, c]
            expect = o + best_s * d
            assert np.linalg.norm(expect - gt.points[0, r, c]) < 1e-6 * gt.scene_scale

    def test_occlusion_hides_background(self):
        # a sphere that crosses between the camera and the wall hides the
        # wall points behind it once it arrives
        obj = ObjectSpec(
            shape="sphere", size=(0.5,) * 3, position=(3.0, 0.0, 3.0),
            trajectory=TrajectorySpec(kind="linear", velocity=(-0.35, 0.0, 0.0)),
        )
        spec = SceneSpec(num_frames=10, height=20, width=20, seed=3,
                         objects=(obj,), camera=static_camera())
        gt = generate(spec)
        center_pixel = (10, 10)
        assert gt.object_ids[center_pixel] == -1  # bound to the wall at frame 0
        assert gt.visible[0][center_pixel]
        assert not gt.visible[9][center_pixel]

    def test_forced_visibility_windows(self):
        obj = sphere()
        obj = ObjectSpec(shape=obj.shape, size=obj.size, position=obj.position,
                         trajectory=obj.trajectory, visible_ranges=((0, 2),))
        spec = SceneSpec(num_frames=6, height=16, width=16, seed=1,
                         objects=(obj,), camera=static_camera())
        gt = generate(spec)
        on_obj = gt.object_ids == 0
        assert gt.visible[0][on_obj].any()
        assert not gt.visible[3][on_obj].any()
        assert not gt.visible[5][on_obj].any()

    def test_empty_scene_rejected(self):
        with pytest.raises(InvalidSpec):
            generate(SceneSpec(num_frames=4, height=8, width=8,
                               background=BackgroundSpec(amplitude=0.0),
                               camera=static_camera()))

    def test_camera_through_wall_rejected(self):
        cam = CameraSpec(kind="dolly", start=(0, 0, -1.0), target=(0, 0, 4.0),
                         velocity=(0.0, 0.0, 2.0))
        with pytest.raises(InvalidSpec):
            generate(SceneSpec(num_frames=8, height=8, width=8, camera=cam))


class TestEmitChunks:
    def _spec(self, **kw):
        defaults = dict(num_frames=20, height=12, width=12, seed=9,
                        objects=(sphere(),),
                        camera=CameraSpec(kind="orbit", target=(0, 0, 4.0),
                                          start=(0.2, 0.1, -1.0), rate=0.01))
        defaults.update(kw)
        return SceneSpec(**defaults)

    def test_zero_noise_identity_gauges_reproduce_gt(self):
        spec = self._spec()
        gt = generate(spec)
        cfg = PipelineConfig(chunk_length=8, overlap=4)
        em = emit_chunks(gt, cfg, spec)
        for chunk, (s, e) in zip(em.chunks, em.plan):
            assert (chunk.start_frame, chunk.end_frame) == (s, e)
            for fp in chunk.frames:
                assert np.array_equal(fp.points, gt.points[fp.frame_index])
                got = fp.pose.matrix()
                want = gt.poses[fp.frame_index].matrix()
                assert np.abs(got - want).max() < 1e-12

    def test_known_gauges_applied_exactly(self):
        spec = self._spec(gauge=GaugeSpec(scale_range=(0.5, 2.0), rotation_max=1.0,
                                          translation_max=0.5))
        gt = generate(spec)
        cfg = PipelineConfig(chunk_length=8, overlap=4)
        em = emit_chunks(gt, cfg, spec)
        for k, chunk in enumerate(em.chunks):
            g = em.gauges[k]
            for fp in chunk.frames:
                assert np.abs(fp.points - g.apply(gt.points[fp.frame_index])).max() < 1e-12

    def test_static_corruption_spares_window(self):
        spec = self._spec(static_corruption=1.0, static_window=(0, 4, 0, 4))
        gt = generate(spec)
        em = emit_chunks(gt, PipelineConfig(chunk_length=8, overlap=4), spec)
        chunk = next(iter(em.chunks))
        conf = np.stack([fp.confidence for fp in chunk.frames])
        wall = gt.object_ids == -1
        outside = wall.copy()
        outside[0:4, 0:4] = False
        assert conf[:, outside].max() <= 0.05
        window_wall = wall & ~outside
        assert conf[0][window_wall].min() > 0.5

    def test_noise_roundtrip_within_sigma(self):
        sigma = 0.01
        spec = self._spec(noise_sigma=sigma,
                          gauge=GaugeSpec(scale_range=(0.5, 2.0), rotation_max=1.0,
                                          translation_max=0.5))
        gt = generate(spec)
        em = emit_chunks(gt, PipelineConfig(chunk_length=8, overlap=4), spec)
        for k, chunk in enumerate(em.chunks):
            inv = em.gauges[k].invert()
            for fp in chunk.frames:
                err = np.linalg.norm(inv.apply(fp.points) - gt.points[fp.frame_index], axis=-1)
                assert np.median(err) < 3 * sigma * gt.scene_scale

    def test_determinism(self):
        spec = self._spec(noise_sigma=0.02, static_corruption=0.5,
                          gauge=GaugeSpec(scale_range=(0.5, 2.0), rotation_max=1.0,
                                          translation_max=0.5))
        gt = generate(spec)
        cfg = PipelineConfig(chunk_length=8, overlap=4)
        a = list(emit_chunks(gt, cfg, spec).chunks)
        b = list(emit_chunks(gt, cfg, spec).chunks)
        for ca, cb in zip(a, b):
            for fa, fb in zip(ca.frames, cb.frames):
                assert fa.points.tobytes() == fb.points.tobytes()
                assert fa.confidence.tobytes() == fb.confidence.tobytes()


# ---------------------------------------------------------------------------
# Reference casts: the full 96-step wall scan with 60 bisections on every
# ray, and every object cast against every ray, one object after another,
# by frozen one-object sphere and box casts, so the batched arithmetic is
# checked against fixed code rather than against itself. ``generate`` must
# give the same bits with its band-limited scan, culled and batched object
# casts, any-hit visibility test and the rays it decides without a cast.


def reference_ray_background(origin, dirs, bg, s_cap):
    flat = dirs.reshape(-1, 3)
    n = len(flat)
    s_out = np.full(n, np.inf)
    towards = flat[:, 2] > 1e-12
    if not towards.any():
        return s_out.reshape(dirs.shape[:-1])
    idx = np.nonzero(towards)[0]
    d = flat[idx]
    s_flat = (bg.distance + abs(bg.amplitude) + 1.0 - origin[2]) / d[:, 2]
    cap = np.broadcast_to(np.asarray(s_cap, dtype=np.float64).ravel(), (n,))[idx] \
        if np.ndim(s_cap) else np.full(len(idx), float(s_cap))
    s_hi = np.minimum(s_flat, np.where(np.isfinite(cap), cap, s_flat))
    s_hi = np.maximum(s_hi, 1e-9)

    def g(s, dd):
        p = origin + s[:, None] * dd
        return p[:, 2] - bg.height(p[:, 0], p[:, 1])

    grid = np.linspace(0.0, 1.0, 97)
    lo = np.zeros(len(idx))
    hi = np.full(len(idx), np.nan)
    prev = g(lo, d)
    found = np.zeros(len(idx), dtype=bool)
    for k in range(1, 97):
        s_k = grid[k] * s_hi
        val = g(s_k, d)
        new = ~found & (prev <= 0) & (val > 0)
        lo = np.where(new, grid[k - 1] * s_hi, lo)
        hi = np.where(new, s_k, hi)
        found |= new
        prev = val
    if found.any():
        flo, fhi, dd = lo[found], hi[found], d[found]
        for _ in range(60):
            mid = 0.5 * (flo + fhi)
            neg = g(mid, dd) <= 0
            flo = np.where(neg, mid, flo)
            fhi = np.where(neg, fhi, mid)
        tmp = np.full(len(idx), np.inf)
        tmp[found] = 0.5 * (flo + fhi)
        s_out[idx] = tmp
    return s_out.reshape(dirs.shape[:-1])


def reference_ray_sphere(origin, dirs, center, radius):
    oc = origin - center
    b = (dirs * oc).sum(axis=-1)
    disc = b**2 - ((oc**2).sum() - radius**2)
    s = np.full(dirs.shape[:-1], np.inf)
    hit = disc >= 0
    root = np.sqrt(np.where(hit, disc, 0.0))
    near = -b - root
    far = -b + root
    s = np.where(hit & (near > 1e-9), near, s)
    s = np.where(hit & (near <= 1e-9) & (far > 1e-9), far, s)
    return s


def reference_ray_box(origin, dirs, center, half):
    lo = center - np.asarray(half)
    hi = center + np.asarray(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t0 = (lo - origin) * inv
        t1 = (hi - origin) * inv
    tmin = np.minimum(t0, t1)
    tmax = np.maximum(t0, t1)
    # rays parallel to a slab: inside -> (-inf, inf), outside -> miss
    par = np.abs(dirs) < 1e-15
    inside = (origin >= lo) & (origin <= hi)
    tmin = np.where(par, np.where(inside, -np.inf, np.inf), tmin)
    tmax = np.where(par, np.where(inside, np.inf, -np.inf), tmax)
    enter = tmin.max(axis=-1)
    exit_ = tmax.min(axis=-1)
    s = np.full(dirs.shape[:-1], np.inf)
    hit = (enter <= exit_) & (exit_ > 1e-9)
    near = np.where(enter > 1e-9, enter, exit_)
    return np.where(hit, near, s)


def reference_cast_all(origin, dirs, spec, centers_t, s_cap=np.inf, limit=None):
    best_s = reference_ray_background(origin, dirs, spec.background, s_cap)
    best_id = np.where(np.isfinite(best_s), -1, -2)
    for m, obj in enumerate(spec.objects):
        center = centers_t[m]
        if obj.shape == "sphere":
            s = reference_ray_sphere(origin, dirs, center, obj.size[0])
        else:
            s = reference_ray_box(origin, dirs, center, obj.size)
        closer = s < best_s
        best_s = np.where(closer, s, best_s)
        best_id = np.where(closer, m, best_id)
    return best_s, best_id


def reference_generate(spec):
    """``generate`` with every ray of every frame cast by the reference."""
    return ref.generate(spec, cast=reference_cast_all)


def grazing_wall_spec():
    """A tall bumpy wall seen at a grazing angle from a rising camera: the
    wall's own bumps hide some of its points in later frames."""
    return SceneSpec(num_frames=6, height=16, width=16, seed=0,
                     background=BackgroundSpec(distance=6.0, amplitude=1.2, frequency=1.5),
                     camera=CameraSpec(kind="dolly", start=(-3.0, 0.5, 3.0), target=(2.0, 0.0, 6.0),
                                       velocity=(0.0, 0.3, 0.15)))


def in_frame(gt, t):
    height, width = gt.grid_shape
    focal = 0.5 * (width - 1) / math.tan(math.radians(synthetic.FOV_DEG) / 2.0)
    rel = (gt.points[t] - gt.poses[t].center) @ gt.poses[t].rotation
    u = (width - 1) / 2.0 + focal * rel[..., 0] / rel[..., 2]
    v = (height - 1) / 2.0 + focal * rel[..., 1] / rel[..., 2]
    return (rel[..., 2] > 1e-6) & (np.abs(u - (width - 1) / 2.0) <= width / 2.0) \
        & (np.abs(v - (height - 1) / 2.0) <= height / 2.0)


PARITY_SCENES = {
    "sphere_and_box": SceneSpec(
        num_frames=5, height=14, width=14, seed=2,
        objects=(sphere(), ObjectSpec(shape="box", size=(0.3, 0.2, 0.25), position=(0.7, -0.2, 3.5),
                                      trajectory=TrajectorySpec(velocity=(-0.04, 0.02, 0.01)))),
        camera=static_camera()),
    "visible_ranges": SceneSpec(
        num_frames=8, height=12, width=12, seed=4,
        objects=(ObjectSpec(shape="sphere", size=(0.45,) * 3, position=(-0.3, 0.1, 3.8),
                            trajectory=TrajectorySpec(velocity=(0.05, 0.0, 0.0)),
                            visible_ranges=((0, 2), (5, 7))),),
        camera=static_camera()),
    "orbit": SceneSpec(
        num_frames=10, height=12, width=12, seed=9,
        objects=(sphere(), ObjectSpec(shape="box", size=(0.25,) * 3, position=(0.8, 0.3, 3.2),
                                      trajectory=TrajectorySpec(velocity=(-0.03, 0.0, 0.02)))),
        camera=CameraSpec(kind="orbit", target=(0, 0, 4.0), start=(0.3, 0.1, -1.2),
                          rate=0.03, bob=0.05)),
    "grazing_wall": grazing_wall_spec(),
    # objects orbit into and behind the wall: some visibility rays rise
    # steeply enough for the certificate but meet the wall before the point
    "association": dataclasses.replace(association_spec(0), height=16, width=16),
    # the assoc-dense benchmark scene's first frames; from frame 2 on some
    # of its objects pass behind the wall
    "assoc_dense": dataclasses.replace(association_spec(0), height=120, width=120, num_frames=6),
}


def visibility_certificates(spec, monkeypatch):
    """``_wall_free``'s (rises, clear) masks over every ray whose wall
    ``generate`` scans for visibility, concatenated, and the number of
    rays in view over all frames."""
    masks = []
    cast = synthetic._ray_background

    def spy(origin, dirs, bg, s_cap, limit=None):
        if limit is not None:
            flat = dirs.reshape(-1, 3)
            towards = flat[:, 2] > 1e-12
            lim = np.broadcast_to(limit, dirs.shape[:-1]).ravel()[towards]
            masks.append(_wall_free(origin.reshape(-1, 3)[towards], flat[towards], bg, lim))
        return cast(origin, dirs, bg, s_cap, limit)

    with monkeypatch.context() as mp:
        mp.setattr(synthetic, "_ray_background", spy)
        gt = generate(spec)
    rises, clear = (np.concatenate(m) for m in zip(*masks))
    return rises, clear, sum(int(in_frame(gt, t).sum()) for t in range(gt.num_frames))


def assert_same_truth(got, want):
    assert got.points.tobytes() == want.points.tobytes()
    assert got.visible.tobytes() == want.visible.tobytes()
    assert got.object_ids.tobytes() == want.object_ids.tobytes()
    assert got.scene_scale == want.scene_scale
    assert len(got.poses) == len(want.poses)
    assert all(p.matrix().tobytes() == q.matrix().tobytes()
               for p, q in zip(got.poses, want.poses))


class TestReferenceParity:
    @pytest.mark.parametrize("name", sorted(PARITY_SCENES))
    def test_generate_matches_reference_bytes(self, name):
        spec = PARITY_SCENES[name]
        assert_same_truth(generate(spec), reference_generate(spec))

    def test_scenes_reach_both_uncertified_branches(self, monkeypatch):
        # The byte checks above cover a scanned ray refused for its slope
        # and one that rises steeply but meets the wall before its limit.
        # Most rays in view skip the full scan: certified by
        # _wall_certified without one, or found clear by _wall_free.
        rises, _, _ = visibility_certificates(PARITY_SCENES["grazing_wall"], monkeypatch)
        assert (~rises).any()
        rises, clear, in_view = visibility_certificates(PARITY_SCENES["association"], monkeypatch)
        assert (rises & ~clear).any()
        assert 1.0 - (~clear).sum() / in_view > 0.9

    def test_grazing_wall_hides_its_own_points(self):
        gt = generate(grazing_wall_spec())
        hidden = sum(int((in_frame(gt, t) & ~gt.visible[t]).sum()) for t in range(gt.num_frames))
        shown = sum(int(gt.visible[t].sum()) for t in range(1, gt.num_frames))
        assert (gt.object_ids == -1).all()
        assert hidden > 0 and shown > 0

    def test_any_hit_decision_at_the_limit(self):
        # Limits on, just below and just above each reference root: the
        # stopped bisection must land on the same side as the full one.
        spec = grazing_wall_spec()
        gt = generate(spec)
        o = gt.poses[2].center
        rays = gt.points[0] - o
        rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
        cap = 40.0
        root = reference_ray_background(o, rays, spec.background, cap)
        hit = np.isfinite(root)
        assert hit.mean() > 0.9
        rays, root = rays[hit], root[hit]
        o = np.broadcast_to(o, rays.shape)  # one origin per ray
        for limit in (root, np.nextafter(root, 0.0), np.nextafter(root, np.inf),
                      0.5 * root, 2.0 * root, root * (1 + 1e-7)):
            got = _ray_background(o, rays, spec.background, cap, limit)
            assert np.array_equal(got >= limit, root >= limit)
        assert np.array_equal(_ray_background(o, rays, spec.background, cap), root)


def wall_only_spec():
    """128 frames of 32 x 32 and no objects, from an orbiting camera."""
    return SceneSpec(num_frames=128, height=32, width=32, seed=0,
                     camera=CameraSpec(kind="orbit", target=(0, 0, 4.0), start=(0.3, 0.1, -1.2),
                                       rate=0.01, bob=0.05))


BLOCK_SCENES = {
    **{f"parity-{name}": (lambda spec=spec: spec) for name, spec in PARITY_SCENES.items()},
    "ablation": lambda: ablation_spec(0),
    "association": lambda: association_spec(0),
    "dynamic_overlap": lambda: dynamic_overlap_spec(0),
    "end_to_end": end_to_end_spec,
    "gauge_recovery": gauge_recovery_spec,
    "identity_span": identity_span_spec,
    "wall_only": wall_only_spec,
}


def generate_in_blocks(spec, monkeypatch, budget):
    """``generate(spec)`` at ray budget ``budget``, and the number of
    frames in each visibility block it decided."""
    frames = []
    decide = synthetic._undecided_rays

    def spy(points, *args):
        frames.append(len(points))
        return decide(points, *args)

    with monkeypatch.context() as mp:
        mp.setattr(synthetic, "_RAY_BUDGET", budget)
        mp.setattr(synthetic, "_undecided_rays", spy)
        gt = generate(spec)
    return gt, frames


@pytest.mark.parametrize("name", sorted(BLOCK_SCENES))
def test_generate_matches_per_frame_reference(name, monkeypatch):
    # blocks of one frame, of a size that does not divide the frame count
    # (the last block is short), and of every frame at once
    spec = BLOCK_SCENES[name]()
    want = ref.generate(spec)
    n = spec.num_frames
    rays = spec.height * spec.width
    uneven = next(k for k in (3, 4, 5, 7) if n % k)
    for block in (1, uneven, n):
        got, frames = generate_in_blocks(spec, monkeypatch, block * rays)
        assert frames == [min(block, n - t) for t in range(0, n, block)]
        assert_same_truth(got, want)
    assert_same_truth(generate(spec), want)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["sphere", "box"]),
    place=st.sampled_from(["front", "inside", "straddle", "behind"]),
    half=st.tuples(*[st.floats(0.01, 2.0)] * 3),
)
def test_cover_keeps_every_hit(seed, shape, place, half):
    # Every ray into the image that the reference cast finds meeting the
    # object lies in a cell its box covers: an object in front of the
    # camera, around it (the camera inside its bounding sphere), across
    # the image plane or behind it; most rays aimed to graze it.
    rng = np.random.default_rng(seed)
    height, width = 12, 16
    size = (half[0],) * 3 if shape == "sphere" else half
    radius = size[0] if shape == "sphere" else math.hypot(*size)
    origin = rng.normal(size=3)
    rotation = _look_at_rotations(origin[None], origin + _unit(rng.normal(size=3)))[0]
    side = rotation[:, 0] * rng.normal() + rotation[:, 1] * rng.normal()
    if place == "inside":
        offset = _unit(rng.normal(size=3)) * radius * rng.uniform(0.0, 0.999)
    else:
        depth, lateral = {
            "front": (rng.uniform(1.001, 30.0), rng.uniform(0.0, 20.0)),
            "straddle": (rng.uniform(-0.999, 0.999), rng.uniform(1.001, 5.0)),
            "behind": (-rng.uniform(1.001, 30.0), rng.uniform(0.0, 20.0)),
        }[place]
        offset = radius * (depth * rotation[:, 2] + lateral * _unit(side))
    center = origin + offset
    aims = center + rng.normal(size=(400, 3)) * radius
    dirs = _unit(np.concatenate([aims - origin, rng.normal(size=(200, 3))]))
    rel = dirs @ rotation
    focal = 0.5 * (width - 1) / math.tan(math.radians(synthetic.FOV_DEG) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (width - 1) / 2.0 + focal * rel[:, 0] / rel[:, 2]
        v = (height - 1) / 2.0 + focal * rel[:, 1] / rel[:, 2]
    seen = (rel[:, 2] > 1e-6) & (np.abs(u - (width - 1) / 2.0) <= width / 2.0) \
        & (np.abs(v - (height - 1) / 2.0) <= height / 2.0)
    if shape == "sphere":
        s = reference_ray_sphere(origin, dirs, center, size[0])
    else:
        s = reference_ray_box(origin, dirs, center, size)
    hit = seen & np.isfinite(s)
    spec = SceneSpec(height=height, width=width,
                     objects=(ObjectSpec(shape=shape, size=size, position=tuple(center)),))
    cover, covered = _cover(_cell_boxes(origin[None], rotation[None], center[None, None], spec),
                            height, width)
    rows = np.minimum(np.floor(v[hit] + 0.5), height - 1).astype(int)
    cols = np.minimum(np.floor(u[hit] + 0.5), width - 1).astype(int)
    assert cover[0, rows, cols, 0].all()
    assert np.array_equal(covered, cover.any(axis=-1))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.one_of(st.just(0.0), st.floats(-1.5, -0.01), st.floats(0.01, 1.5)),
    frequency=st.floats(-4.0, 4.0),
    distance=st.floats(2.0, 12.0),
    capped=st.booleans(),
)
def test_certified_rays_meet_no_wall_before_limit(seed, amplitude, frequency, distance, capped):
    rng = np.random.default_rng(seed)
    bg = BackgroundSpec(distance=distance, amplitude=amplitude, frequency=frequency,
                        phase=tuple(rng.uniform(-math.pi, math.pi, size=2)))
    origin = np.array([*rng.uniform(-3.0, 3.0, size=2),
                       distance - abs(amplitude) - rng.uniform(0.05, 6.0)])
    # half the rays look nearly straight at the wall, so many pass the
    # slope test; the rest point anywhere, some away from the wall
    n = 200
    tilt = rng.normal(size=(n // 2, 2)) * rng.uniform(0.0, 0.3, size=(n // 2, 1))
    dirs = _unit(np.concatenate([np.column_stack([tilt, np.ones(n // 2)]),
                                 rng.normal(size=(n // 2, 3))]))
    # limits before, at and past each ray's hit (or a random distance)
    rough = reference_ray_background(origin, dirs, bg, np.inf)
    base = np.where(np.isfinite(rough), rough, rng.uniform(0.5, 30.0, size=n))
    limit = base * rng.choice([0.3, 0.9, 0.999999, 1.0, 1.000001, 1.2, 3.0], size=n)
    s_cap = limit * (1.0 + 2e-6) if capped else np.inf
    root = reference_ray_background(origin, dirs, bg, s_cap)

    towards = dirs[:, 2] > 1e-12
    origins = np.broadcast_to(origin, dirs.shape)  # one origin per ray
    _, clear = _wall_free(origins[towards], dirs[towards], bg, limit[towards])
    assert (root[towards][clear] >= limit[towards][clear]).all()
    got = _ray_background(origins, dirs, bg, s_cap, limit)
    assert np.array_equal(got >= limit, root >= limit)


def assert_certified_rays_clear(points, origin, bg):
    """Every ray from ``origin`` to a wall point of ``points`` (n, 3) that
    ``_wall_certified`` passes meets no wall before its limit in the full
    scan, and ``_wall_free`` finds it clear; returns the certified mask."""
    ray = points - origin
    dist = np.linalg.norm(ray, axis=-1)
    tol = 1e-6 * np.median(dist)
    certified = _wall_certified(ray, dist, bg, tol)
    d, limit = ray / dist[:, None], dist - tol
    root = reference_ray_background(origin, d, bg, dist + tol)
    assert (root[certified] >= limit[certified]).all()
    _, clear = _wall_free(np.broadcast_to(origin, d.shape), d, bg, limit)
    assert clear[certified].all()
    return certified


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.one_of(st.just(0.0), st.floats(-3.0, -0.01), st.floats(0.01, 3.0)),
    frequency=st.floats(-4.0, 4.0),
    distance=st.floats(2.0, 12.0),
)
def test_certified_wall_points_meet_no_wall_before_limit(seed, amplitude, frequency, distance):
    # Wall points bound as generate binds them, at the roots of a first
    # camera's full scan, seen from a second camera; rays from straight
    # at the wall to grazing it.
    rng = np.random.default_rng(seed)
    bg = BackgroundSpec(distance=distance, amplitude=amplitude, frequency=frequency,
                        phase=tuple(rng.uniform(-math.pi, math.pi, size=2)))

    def camera():
        return np.array([*rng.uniform(-3.0, 3.0, size=2),
                         distance - abs(amplitude) - rng.uniform(0.25, 6.0)])

    o0 = camera()
    dirs = _unit(np.column_stack([rng.normal(size=(300, 2)) * rng.uniform(0.0, 2.0), np.ones(300)]))
    s0 = reference_ray_background(o0, dirs, bg, np.inf)
    points = o0 + s0[np.isfinite(s0), None] * dirs[np.isfinite(s0)]
    assert_certified_rays_clear(points, camera(), bg)


def test_grazing_wall_certifies_no_ray():
    # the wall's slope, |A f| = 1.8, is steeper than any ray of this scene
    # climbs, and its bumps hide some of its own points: nothing passes
    spec = grazing_wall_spec()
    gt = generate(spec)
    certified = np.concatenate([
        assert_certified_rays_clear(gt.points[t].reshape(-1, 3), gt.poses[t].center, spec.background)
        for t in range(gt.num_frames)])
    assert not certified.any()


def test_per_ray_origins_match_one_cast_per_origin():
    # Rays from their own origins get the bits of a cast from each origin
    # alone, also where the flat scan puts a ray that starts within the
    # wall's relief, mostly past the wall, right after one whose cap stops
    # it short of the wall.
    bg = BackgroundSpec()
    rng = np.random.default_rng(0)
    n = 200
    origins = np.column_stack([rng.uniform(-2.0, 2.0, size=(n, 2)), rng.uniform(-2.0, 4.0, size=n)])
    origins[1::4, 2] = bg.distance + 0.5 * bg.amplitude
    dirs = _unit(np.column_stack([rng.normal(size=(n, 2)) * 0.3, np.ones(n)]))
    s_cap = rng.uniform(0.5, 12.0, size=n)
    want = np.array([reference_ray_background(o, d[None], bg, cap)[0]
                     for o, d, cap in zip(origins, dirs, s_cap)])
    assert np.isfinite(want).any() and not np.isfinite(want).all()
    assert _ray_background(origins, dirs, bg, s_cap).tobytes() == want.tobytes()
    limit = s_cap * rng.uniform(0.5, 1.0, size=n)
    got = _ray_background(origins, dirs, bg, s_cap, limit)
    assert np.array_equal(got >= limit, want >= limit)


def random_object(rng):
    position = tuple(rng.uniform([-1.5, -1.5, 1.0], [1.5, 1.5, 5.0]))
    if rng.random() < 0.5:
        return ObjectSpec(shape="sphere", size=(rng.uniform(0.1, 0.6),) * 3, position=position)
    return ObjectSpec(shape="box", size=tuple(rng.uniform(0.05, 0.6, size=3)), position=position)


def bounding_radius(obj):
    return obj.size[0] if obj.shape == "sphere" else math.hypot(*obj.size)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num=st.integers(1, 6),
    twin=st.booleans(),
    inside=st.booleans(),
    capped=st.booleans(),
)
def test_batched_cast_matches_per_object_loop(seed, num, twin, inside, capped):
    # Mixed spheres and boxes, maybe one object twice at the same place,
    # before or after itself (a tie the lower index must win), the camera maybe inside one
    # object's bounding sphere, and rays along the axes and with one
    # component zeroed, parallel to box slabs. The rays of two frames are
    # cast in one call, the second's from another origin with every object
    # moved, and each frame must match its own per-object loop.
    rng = np.random.default_rng(seed)
    objects = [random_object(rng) for _ in range(num)]
    offsets = rng.normal(size=(num, 3)) * 0.1
    if twin:
        k, at = int(rng.integers(num)), int(rng.integers(num + 1))
        objects.insert(at, objects[k])
        offsets = np.insert(offsets, at, offsets[k], axis=0)
    spec = SceneSpec(objects=tuple(objects))
    centers = np.array([obj.position for obj in objects]) + offsets
    radii = np.array([bounding_radius(obj) for obj in objects])
    if inside:
        k = int(rng.integers(len(objects)))
        origin = centers[k] + _unit(rng.normal(size=3)) * radii[k] * rng.uniform(0.0, 0.999)
    else:
        origin = rng.uniform([-1.0, -1.0, -2.0], [1.0, 1.0, 0.5])
    aimed = rng.integers(len(objects), size=200)
    aims = centers[aimed] + rng.normal(size=(200, 3)) * radii[aimed, None]
    dirs = aims - origin
    dirs[:40, 0] = 0.0
    dirs[40:80, 1] = 0.0
    dirs = _unit(np.concatenate([dirs, np.eye(3), -np.eye(3), rng.normal(size=(60, 3))]))
    origins = np.stack([origin, rng.uniform([-1.0, -1.0, -2.0], [1.0, 1.0, 0.5])])
    block = np.stack([centers, centers + rng.normal(size=3) * 0.1])
    s_cap = rng.uniform(0.5, 10.0, size=(2, len(dirs))) if capped else np.inf
    frame = np.repeat([0, 1], len(dirs))
    near = np.ones((len(frame), len(objects)), dtype=bool)
    got_s, got_id = synthetic._cast_all(origins, np.concatenate([dirs, dirs]), frame, spec, block,
                                        near, np.ravel(s_cap) if capped else s_cap)
    got_s, got_id = got_s.reshape(2, -1), got_id.reshape(2, -1)
    for f in range(2):
        want_s, want_id = reference_cast_all(origins[f], dirs, spec, block[f],
                                             s_cap[f] if capped else s_cap)
        assert got_s[f].tobytes() == want_s.tobytes()
        assert np.array_equal(got_id[f], want_id)


def test_coincident_objects_go_to_the_lower_index():
    ball = sphere(position=(0.1, -0.2, 3.0), size=0.8)
    spec = SceneSpec(objects=(ball, ball))
    dirs = _pixel_directions(24, 24).reshape(-1, 3)
    s, owner = synthetic._cast_all(np.zeros((1, 3)), dirs, np.zeros(len(dirs), dtype=np.intp), spec,
                                   np.array([[ball.position] * 2]), np.ones((len(dirs), 2), dtype=bool))
    assert (owner == 0).any()
    assert np.isin(owner, (0, -1)).all()


@pytest.mark.parametrize("recipe", [ablation_spec, dynamic_overlap_spec, association_spec],
                         ids=lambda f: f.__name__)
def test_recipes_match_try_by_try_sampler(recipe, monkeypatch):
    for seed in range(6):
        got = recipe(seed)
        with monkeypatch.context() as mp:
            mp.setattr(scenes, "separated_objects", ref.separated_objects)
            want = recipe.__wrapped__(seed)
        assert got == want


def reference_look_at_rotation(position, target):
    forward = target - position
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise InvalidSpec("camera position coincides with its target")
    forward = forward / norm
    up_hint = np.array([0.0, 1.0, 0.0])
    right = np.cross(up_hint, forward)
    if np.linalg.norm(right) < 1e-9:
        up_hint = np.array([0.0, 0.0, 1.0])
        right = np.cross(up_hint, forward)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.stack([right, down, forward], axis=1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), span=st.floats(0.01, 50.0))
def test_stacked_look_at_matches_per_frame(seed, span):
    # every third camera straight above or below the target, where the
    # right vector falls back to the z up hint
    rng = np.random.default_rng(seed)
    target = rng.normal(size=3)
    positions = target + rng.normal(size=(30, 3)) * span
    positions[::3, [0, 2]] = target[[0, 2]]
    want = np.stack([reference_look_at_rotation(p, target) for p in positions])
    assert _look_at_rotations(positions, target).tobytes() == want.tobytes()


def test_camera_on_its_target_rejected():
    cam = CameraSpec(kind="dolly", start=(0.0, 0.0, -1.0), target=(0.0, 0.0, 1.0),
                     velocity=(0.0, 0.0, 0.5))
    with pytest.raises(InvalidSpec, match="coincides"):
        generate(SceneSpec(num_frames=8, height=8, width=8, camera=cam))


@pytest.mark.parametrize("size", [(math.nan,) * 3, (0.4, math.nan, 0.4), (0.4, 0.4, 0.0)],
                         ids=["nan", "nan-second", "zero-third"])
def test_object_size_must_be_positive(size):
    with pytest.raises(InvalidSpec, match="size"):
        ObjectSpec(shape="box", size=size)


@pytest.mark.parametrize("ranges", [((5, 2),), ((0, 3), (-1, 4)), ((0, math.nan),)],
                         ids=["reversed", "negative", "nan"])
def test_bad_visible_range_rejected(ranges):
    with pytest.raises(InvalidSpec, match="visible range"):
        ObjectSpec(visible_ranges=ranges)


def test_single_frame_visible_range_accepted():
    assert ObjectSpec(visible_ranges=((3, 3),)).forced_visible(3)


@pytest.mark.parametrize("kw", [
    dict(scale_range=(math.nan, 1.0)),
    dict(scale_range=(1.0, math.nan)),
    dict(rotation_max=math.nan),
    dict(translation_max=math.nan),
], ids=["nan-lo", "nan-hi", "nan-rotation", "nan-translation"])
def test_gauge_bounds_reject_nan(kw):
    with pytest.raises(InvalidSpec):
        GaugeSpec(**kw)
