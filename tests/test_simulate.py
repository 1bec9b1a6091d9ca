import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitgauge.errors import InvalidSpec
from fruitgauge.fileio import scene_from_dict
from fruitgauge.geometry import (
    CameraIntrinsics,
    Point3,
    RigCamera,
    RigidTransform,
    apply,
    apply_points,
    compose,
    deproject,
    depth_units,
    invert,
    pixel_to_ray,
    ray_to_pixel,
    translation_transform,
)
from fruitgauge.maskops import BinaryMask, Pixel, extreme_points
from fruitgauge.simulate import (
    CAMERA_HEIGHTS_M,
    RIG_TARGET,
    FruitSpec,
    NoiseSpec,
    QuadOccluder,
    SceneSpec,
    _camera_noise_seed,
    _fruit_window,
    add_depth_noise,
    lab_scene,
    paper_rig,
    render_scene,
)
from fruitgauge.sizing import measure_fruit

from conftest import rotation_about, scene_to_dict
from test_maskops import full


def single_camera(k=None):
    k = k or CameraIntrinsics(640, 480, 600.0, 600.0, 319.5, 239.5)
    return RigCamera("middle", k, RigidTransform.identity())


def sphere_scene(diameter_m=0.0467, z=0.6, k=None, noise=0.0, occluders=(), seed=0):
    r = diameter_m / 2
    return SceneSpec(
        fruits=[FruitSpec("s0", Point3(0, 0, z), np.array([r, r, r]))],
        occluders=list(occluders),
        rig=[single_camera(k)],
        noise=NoiseSpec(noise),
        seed=seed,
    )


def ray_sphere_depth(k, u, v, center, radius):
    """Independent ray/sphere oracle: camera-frame z of the nearest hit."""
    d = np.array([(u - k.ppx) / k.fx, (v - k.ppy) / k.fy, 1.0])
    a = d @ d
    b = -2 * d @ center
    c = center @ center - radius * radius
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    return (-b - math.sqrt(disc)) / (2 * a)  # t equals camera z (d_z == 1)


# -- the per-window (n, 3) renderer the package used before it moved to ----
# -- component arrays and silhouette windows; kept as the reference ---------

_CUBE_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float
)


def ref_ellipsoid_ts(origin, dirs, center, semi):
    o = (origin - center) / semi
    d = dirs / semi
    a = np.einsum("ij,ij->i", d, d)
    b = 2.0 * d @ o
    c = float(o @ o) - 1.0
    disc = b * b - 4.0 * a * c
    hit = disc >= 0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t1 = (-b - sq) / (2.0 * a)
    t2 = (-b + sq) / (2.0 * a)
    t = np.where(t1 > 1e-9, t1, np.where(t2 > 1e-9, t2, np.inf))
    return np.where(hit, t, np.inf)


def ref_triangle_ts(origin, dirs, v0, v1, v2):
    e1, e2 = v1 - v0, v2 - v0
    h = np.cross(dirs, e2)
    a = h @ e1
    ok = np.abs(a) > 1e-14
    inv = np.where(ok, 1.0 / np.where(ok, a, 1.0), 0.0)
    s = origin - v0
    u = inv * (h @ s)
    q = np.cross(s, e1)
    v = inv * (dirs @ q)
    t = inv * float(e2 @ q)
    tol = 1e-12
    hit = ok & (u >= -tol) & (v >= -tol) & (u + v <= 1.0 + tol) & (t > 1e-9)
    return np.where(hit, t, np.inf)


def ref_object_window(corners_world, world_to_cam, k, margin=2):
    pts = apply_points(world_to_cam, corners_world)
    if np.any(pts[:, 2] <= 1e-6):
        return (0, k.width - 1, 0, k.height - 1)
    u, v = ray_to_pixel(k, pts[:, 0] / pts[:, 2], pts[:, 1] / pts[:, 2])
    u0 = max(int(np.floor(u.min())) - margin, 0)
    u1 = min(int(np.ceil(u.max())) + margin, k.width - 1)
    v0 = max(int(np.floor(v.min())) - margin, 0)
    v1 = min(int(np.ceil(v.max())) + margin, k.height - 1)
    if u0 > u1 or v0 > v1:
        return None
    return (u0, u1, v0, v1)


def ref_pixel_dirs(cam, u0, u1, v0, v1):
    """World ray directions of a pixel window as an (n, 3) array, row-major."""
    uu, vv = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1))
    dirs_cam = np.column_stack([*pixel_to_ray(cam.intrinsics, uu.ravel(), vv.ravel()),
                                np.ones(uu.size)])
    return dirs_cam @ cam.cam_to_world.rotation.T, uu.shape


def ref_render_camera(cam, spec):
    k = cam.intrinsics
    world_to_cam = invert(cam.cam_to_world)
    origin = cam.cam_to_world.translation
    best_t = np.full((k.height, k.width), np.inf)
    winner = np.full((k.height, k.width), -1, dtype=np.int32)
    objects = [(f.center_world.to_array() + _CUBE_SIGNS * f.semi_axes, f) for f in spec.fruits]
    objects += [(occ.corners, occ) for occ in spec.occluders]
    windows = [ref_object_window(corners, world_to_cam, k) for corners, _ in objects]
    for idx, ((_, obj), window) in enumerate(zip(objects, windows)):
        if window is None:
            continue
        u0, u1, v0, v1 = window
        dirs, shape = ref_pixel_dirs(cam, u0, u1, v0, v1)
        if isinstance(obj, FruitSpec):
            t = ref_ellipsoid_ts(origin, dirs, obj.center_world.to_array(), obj.semi_axes)
        else:
            c = obj.corners
            t = np.minimum(ref_triangle_ts(origin, dirs, c[0], c[1], c[2]),
                           ref_triangle_ts(origin, dirs, c[0], c[2], c[3]))
        t = t.reshape(shape)
        region_t = best_t[v0:v1 + 1, u0:u1 + 1]
        region_w = winner[v0:v1 + 1, u0:u1 + 1]
        better = t < region_t
        region_t[better] = t[better]
        region_w[better] = idx
    hit = np.isfinite(best_t)
    samples = np.zeros(best_t.shape, dtype=np.uint16)
    samples[hit] = depth_units(best_t[hit], spec.depth_scale)
    masks = {}
    for idx, (fruit, window) in enumerate(zip(spec.fruits, windows)):
        if window is None:
            continue
        u0, u1, v0, v1 = window
        m = BinaryMask(winner[v0:v1 + 1, u0:u1 + 1] == idx, u0, v0, winner.shape)
        if not m.is_empty():
            masks[fruit.fruit_id] = m
    return samples, masks


def ref_add_depth_noise(data, depth_scale, sigma_at_1m, seed):
    noise = np.random.default_rng(seed).standard_normal(data.shape)
    z = data.astype(float) * depth_scale
    q = depth_units(z + noise * sigma_at_1m * z * z, depth_scale)
    q[data == 0] = 0
    return q


def ref_render_scene(spec):
    """(depth samples, masks) per camera."""
    out = []
    for ci, cam in enumerate(spec.rig):
        samples, masks = ref_render_camera(cam, spec)
        if spec.noise.sigma_at_1m > 0:
            samples = ref_add_depth_noise(samples, spec.depth_scale, spec.noise.sigma_at_1m,
                                          _camera_noise_seed(spec.seed, ci))
        out.append((samples, masks))
    return out


SMALL_K = CameraIntrinsics(160, 120, 115.0, 115.0, 79.5, 59.5)


def small_orchard(depth_sensor: bool) -> SceneSpec:
    """The orchard rig at 320x180 with 10 fruits and leaves; with
    ``depth_sensor`` its cameras sit 15 mm beside the color cameras."""
    k = CameraIntrinsics(320, 180, 230.0, 230.0, 159.5, 89.5)
    spec = lab_scene(1, rig=paper_rig(k), n_fruits=10, columns=5, pitch_x=0.07, pitch_y=0.075)
    if not depth_sensor:
        return spec
    offset = translation_transform(-0.015, 0.0, 0.0)
    return dataclasses.replace(spec, rig=[RigCamera(c.camera_id, k, compose(c.cam_to_world, offset))
                                          for c in spec.rig])


def turned_rig_scene() -> SceneSpec:
    """lab_scene on a 320x240 paper rig whose cameras are each turned 0.12 rad
    about an oblique axis, so every rotation entry is nonzero."""
    k = CameraIntrinsics(320, 240, 230.0, 230.0, 159.5, 119.5)
    turn = rotation_about((0.3, 0.8, 0.5), 0.12)
    rig = [RigCamera(c.camera_id, k, compose(c.cam_to_world, turn)) for c in paper_rig(k)]
    return lab_scene(2, rig=rig)


def one_fruit_scene(center, semi) -> SceneSpec:
    """A fruit plus a normal one at the rig target, seen by a small paper rig."""
    fruits = [FruitSpec("odd", Point3(*center), np.array(semi)),
              FruitSpec("target", RIG_TARGET, np.array([0.03, 0.025, 0.03]))]
    return SceneSpec(fruits=fruits, occluders=[], rig=paper_rig(SMALL_K),
                     noise=NoiseSpec(0.002), seed=3)


RENDER_SCENES = {
    "lab_scene_0": lambda: lab_scene(0),
    "orchard_color": lambda: small_orchard(False),
    "orchard_depth_sensor": lambda: small_orchard(True),
    "turned_rig": turned_rig_scene,
    # straddles the right border of the middle camera's frame
    "partly_outside": lambda: one_fruit_scene((0.42, 0.05, 0.6), (0.04, 0.035, 0.04)),
    # spans camera-frame z -0.03..0.07 of the middle camera, beside its center;
    # the middle camera sees the part in front of it
    "crosses_camera_plane": lambda: one_fruit_scene((0.04, 0.0, 0.02), (0.03, 0.03, 0.05)),
    "behind_camera": lambda: one_fruit_scene((0.0, 0.05, -0.3), (0.05, 0.04, 0.05)),
    # the middle camera sits inside it and sees its far side everywhere
    "contains_camera": lambda: one_fruit_scene((0.0, 0.0, 0.02), (0.03, 0.04, 0.05)),
}


@pytest.mark.parametrize("name", RENDER_SCENES)
def test_render_matches_point_array_reference(name):
    spec = RENDER_SCENES[name]()
    got = render_scene(spec).captures
    expected = ref_render_scene(spec)
    assert len(got) == len(expected)
    for cap, (samples, masks) in zip(got, expected):
        assert np.array_equal(cap.depth.data, samples)
        assert cap.masks == masks
    assert any(masks for _, masks in expected)


def reference_hits(cam, fruit):
    """Pixels whose ray hits the fruit, by the reference ray caster over the
    whole frame."""
    k = cam.intrinsics
    dirs, shape = ref_pixel_dirs(cam, 0, k.width - 1, 0, k.height - 1)
    t = ref_ellipsoid_ts(cam.cam_to_world.translation, dirs, fruit.center_world.to_array(),
                         fruit.semi_axes)
    return np.isfinite(t).reshape(shape)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(cam_index=st.integers(0, 2),
       center=st.tuples(st.floats(-0.45, 0.45), st.floats(-0.35, 0.35), st.floats(0.2, 1.0)),
       semi=st.tuples(*[st.floats(0.003, 0.2)] * 3))
def test_fruit_window_contains_every_hit(cam_index, center, semi):
    # centers up to 0.45 m off the rig axis put fruits partly or wholly
    # outside the frame, and the largest reach the oblique cameras' planes
    cam = paper_rig(SMALL_K)[cam_index]
    fruit = FruitSpec("f", Point3(*center), np.array(semi))
    world_to_cam = invert(cam.cam_to_world)
    window = _fruit_window(fruit, world_to_cam, SMALL_K)
    hits = reference_hits(cam, fruit)
    if window is None:
        assert not hits.any()
        return
    u0, u1, v0, v1 = window
    inside = np.zeros_like(hits)
    inside[v0:v1 + 1, u0:u1 + 1] = True
    assert not (hits & ~inside).any()

    # a silhouette a few pixels across and wholly inside the frame gets a
    # tight window, not the frame
    c_z = apply(world_to_cam, fruit.center_world).z
    vs, us = np.nonzero(hits)
    if (min(semi) * SMALL_K.fx / c_z >= 2 and len(us)
            and 0 < us.min() and us.max() < 159 and 0 < vs.min() and vs.max() < 119):
        assert u0 >= us.min() - 5 and u1 <= us.max() + 5
        assert v0 >= vs.min() - 5 and v1 <= vs.max() + 5


@pytest.mark.parametrize("center,window", [
    ((0.0, 0.0, 0.02), (0, 159, 0, 119)), ((0.0, 0.0, -0.04), (0, 159, 0, 119)),
    ((0.0, 0.0, -0.3), None),
], ids=["contains_camera", "crosses_plane_from_behind", "behind"])
def test_fruit_window_is_whole_image_unless_wholly_in_front(center, window):
    # semi-axis 0.05 along z: the first two reach the middle camera's z = 0
    # plane (one contains the camera) and get the whole image; the third is
    # wholly behind it and gets no window, like a fruit outside the frame
    cam = single_camera(SMALL_K)
    fruit = FruitSpec("f", Point3(*center), np.array([0.03, 0.04, 0.05]))
    assert _fruit_window(fruit, invert(cam.cam_to_world), SMALL_K) == window


class TestRenderScene:
    def test_deterministic_bit_identical(self):
        spec = lab_scene(seed=5)
        a, b = render_scene(spec), render_scene(spec)
        for ca, cb in zip(a.captures, b.captures):
            assert np.array_equal(ca.depth.data, cb.depth.data)
            assert ca.masks.keys() == cb.masks.keys()
            for fid in ca.masks:
                assert np.array_equal(full(ca.masks[fid]), full(cb.masks[fid]))

    def test_on_axis_sphere_mask_is_centered_disc(self):
        bundle = render_scene(sphere_scene())
        mask = bundle.captures[0].masks["s0"]
        ext = extreme_points(mask)
        k = bundle.captures[0].camera.intrinsics
        assert abs((ext.left.u + ext.right.u) / 2 - k.ppx) <= 1.0
        assert abs((ext.top.v + ext.bottom.v) / 2 - k.ppy) <= 1.0
        # disc: width and height agree
        assert abs((ext.right.u - ext.left.u) - (ext.bottom.v - ext.top.v)) <= 1

    def test_sphere_width_within_one_percent(self):
        # high-resolution camera so rasterization stays below the tolerance
        k = CameraIntrinsics(1024, 1024, 8000.0, 8000.0, 511.5, 511.5)
        bundle = render_scene(sphere_scene(k=k))
        cap = bundle.captures[0]
        m = measure_fruit(cap.masks["s0"], cap.depth, k)
        assert m.width_mm == pytest.approx(46.7, rel=0.01)
        assert m.height_mm == pytest.approx(46.7, rel=0.01)

    def test_depth_consistency_against_ray_oracle(self, rng):
        spec = sphere_scene()
        bundle = render_scene(spec)
        cap = bundle.captures[0]
        k = cap.camera.intrinsics
        center = spec.fruits[0].center_world.to_array()
        radius = float(spec.fruits[0].semi_axes[0])
        vs, us = np.nonzero(full(cap.masks["s0"]))
        pick = rng.choice(len(us), size=min(200, len(us)), replace=False)
        for i in pick:
            z_true = ray_sphere_depth(k, us[i], vs[i], center, radius)
            assert z_true is not None
            z_sample = cap.depth.data[vs[i], us[i]] * spec.depth_scale
            assert abs(z_sample - z_true) <= spec.depth_scale
            # deprojecting the sample lands on the sphere within one step
            p = deproject(k, Pixel(int(us[i]), int(vs[i])), z_sample).to_array()
            assert abs(np.linalg.norm(p - center) - radius) <= 1.5 * spec.depth_scale

    def test_masks_are_pairwise_disjoint(self):
        bundle = render_scene(lab_scene(seed=2))
        for cap in bundle.captures:
            stack = np.stack([full(m) for m in cap.masks.values()])
            assert stack.sum(axis=0).max() <= 1

    def test_occluder_never_adds_mask_pixels(self):
        spec = lab_scene(seed=4)
        clean = dataclasses.replace(spec, occluders=[], noise=NoiseSpec(0.0))
        occluded = dataclasses.replace(spec, noise=NoiseSpec(0.0))
        for cap_c, cap_o in zip(render_scene(clean).captures, render_scene(occluded).captures):
            for fid, mask_c in cap_c.masks.items():
                mask_o = cap_o.masks.get(fid)
                occ = full(mask_o) if mask_o is not None else np.zeros_like(full(mask_c))
                assert not (occ & ~full(mask_c)).any()

    def test_empty_scene(self):
        spec = SceneSpec(fruits=[], occluders=[], rig=[single_camera()],
                         noise=NoiseSpec(0.0), seed=0)
        bundle = render_scene(spec)
        assert bundle.captures[0].masks == {}
        assert not bundle.captures[0].depth.data.any()

    def test_half_occluded_sphere(self):
        # quad hides the upper half of the view: fill ratio drops well below
        # the clean value and the height is under-measured. The algebraic
        # circle fit follows the occlusion chord, so the fill ratio lands
        # near 0.73, not at the 0.5 a full-outline fit would give.
        quad = QuadOccluder(np.array([
            [-0.1, -0.1, 0.3], [0.1, -0.1, 0.3], [0.1, 0.0, 0.3], [-0.1, 0.0, 0.3]]))
        spec = sphere_scene(occluders=[quad])
        clean = sphere_scene()
        k = spec.rig[0].intrinsics
        cap = render_scene(spec).captures[0]
        cap_clean = render_scene(clean).captures[0]
        occluded = measure_fruit(cap.masks["s0"], cap.depth, k)
        reference = measure_fruit(cap_clean.masks["s0"], cap_clean.depth, k)
        assert np.count_nonzero(cap.masks["s0"].data) \
            < 0.6 * np.count_nonzero(cap_clean.masks["s0"].data)
        assert occluded.fill_ratio < reference.fill_ratio - 0.1
        assert 0.6 <= occluded.fill_ratio <= 0.85
        assert occluded.height_mm < 0.85 * reference.height_mm
        # width survives apart from the occlusion bias on the edge-depth median
        assert occluded.width_mm == pytest.approx(reference.width_mm, rel=0.05)

    def test_ground_truth_covers_every_fruit(self):
        spec = lab_scene(seed=1)
        bundle = render_scene(spec)
        assert {t.fruit_id for t in bundle.truth} == {f.fruit_id for f in spec.fruits}
        by_id = {t.fruit_id: t for t in bundle.truth}
        for f in spec.fruits:
            assert by_id[f.fruit_id].height_mm == pytest.approx(2000 * f.semi_axes[1])
            assert by_id[f.fruit_id].width_mm == pytest.approx(2000 * f.semi_axes[0])

    def test_mask_pixels_have_depth(self):
        bundle = render_scene(lab_scene(seed=0, noise_sigma_at_1m=0.0))
        for cap in bundle.captures:
            for mask in cap.masks.values():
                assert (cap.depth.data[full(mask)] > 0).all()


class TestAddDepthNoise:
    def make_depth(self, value=1000, shape=(64, 64)):
        from fruitgauge.geometry import DepthImage
        return DepthImage(np.full(shape, value, dtype=np.uint16))

    def test_zero_sigma_is_identity(self):
        depth = self.make_depth()
        out = add_depth_noise(depth, 0.0, seed=9)
        assert np.array_equal(out.data, depth.data)

    def test_same_seed_same_output(self):
        depth = self.make_depth()
        a = add_depth_noise(depth, 0.002, seed=42)
        b = add_depth_noise(depth, 0.002, seed=42)
        assert np.array_equal(a.data, b.data)
        c = add_depth_noise(depth, 0.002, seed=43)
        assert not np.array_equal(a.data, c.data)

    def test_empirical_sigma_at_one_meter(self):
        # 10^5 samples at z = 1 m with sigma_at_1m = 2 mm
        depth = self.make_depth(value=1000, shape=(400, 250))
        out = add_depth_noise(depth, 0.002, seed=7)
        sigma = (out.data.astype(float) - 1000).std() * 0.001
        assert sigma == pytest.approx(0.002, rel=0.05)

    def test_zeros_stay_zero(self, rng):
        from fruitgauge.geometry import DepthImage
        data = np.where(rng.random((32, 32)) < 0.5, 800, 0).astype(np.uint16)
        out = add_depth_noise(DepthImage(data), 0.01, seed=3)
        assert not out.data[data == 0].any()
        assert (out.data[data != 0] > 0).all()

    def test_sigma_grows_with_depth_squared(self):
        # remove the quantization variance (q^2/12) before comparing scales
        def noise_var(value):
            out = add_depth_noise(self.make_depth(value, (300, 300)), 0.002, seed=5)
            return (out.data.astype(float) - value).var() - 1.0 / 12.0

        ratio = math.sqrt(noise_var(2000) / noise_var(500))
        assert ratio == pytest.approx(16.0, rel=0.1)


class TestPaperRig:
    def test_heights_match_stand(self):
        rig = {c.camera_id: c for c in paper_rig()}
        mid_h = CAMERA_HEIGHTS_M[1]
        assert rig["middle"].cam_to_world.translation[1] == 0
        assert rig["top"].cam_to_world.translation[1] == pytest.approx(-(1.05 - mid_h))
        assert rig["bottom"].cam_to_world.translation[1] == pytest.approx(mid_h - 0.15)

    def test_middle_camera_anchors_world(self):
        rig = {c.camera_id: c for c in paper_rig()}
        anchor = rig["middle"].cam_to_world
        assert np.allclose(anchor.rotation, np.eye(3)) and np.allclose(anchor.translation, 0)

    def test_adjacent_axes_45_degrees_apart(self):
        rig = {c.camera_id: c for c in paper_rig()}
        axes = {cid: cam.cam_to_world.rotation[:, 2] for cid, cam in rig.items()}
        def angle(a, b):
            return math.degrees(math.acos(np.clip(np.dot(a, b), -1, 1)))
        assert angle(axes["top"], axes["middle"]) == pytest.approx(45.0, abs=0.1)
        assert angle(axes["middle"], axes["bottom"]) == pytest.approx(45.0, abs=0.1)
        assert angle(axes["top"], axes["bottom"]) == pytest.approx(90.0, abs=0.2)

    def test_axes_pass_through_target(self):
        for cam in paper_rig():
            o = cam.cam_to_world.translation
            z = cam.cam_to_world.rotation[:, 2]
            miss = np.linalg.norm(np.cross(RIG_TARGET.to_array() - o, z))
            assert miss <= 1e-3

    def test_rotations_are_proper(self):
        for cam in paper_rig():
            r = cam.cam_to_world.rotation
            assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-9
            assert abs(np.linalg.det(r) - 1.0) <= 1e-9


class TestLabScene:
    def test_fruit_sizes_in_requested_ranges(self):
        spec = lab_scene(seed=6)
        for f in spec.fruits:
            assert 35.0 <= f.height_mm <= 44.0
            assert 42.0 <= f.width_mm <= 52.0

    def test_sphere_mode(self):
        spec = lab_scene(seed=6, fruit_shape="sphere", occlusion=False)
        for f in spec.fruits:
            assert f.height_mm == f.width_mm
            assert len(set(np.round(f.semi_axes, 12))) == 1

    def test_spacing_exceeds_twice_max_radius(self):
        spec = lab_scene(seed=7)
        centers = np.array([f.center_world.to_array() for f in spec.fruits])
        rmax = max(float(f.semi_axes.max()) for f in spec.fruits)
        d = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        d[np.diag_indices(len(centers))] = np.inf
        assert d.min() > 2 * rmax

    def test_occlusion_hits_bottom_camera_only_and_in_band(self):
        spec = lab_scene(seed=8)
        clean = dataclasses.replace(spec, occluders=[], noise=NoiseSpec(0.0))
        occluded = dataclasses.replace(spec, noise=NoiseSpec(0.0))
        caps = {c.camera.camera_id: c for c in render_scene(occluded).captures}
        caps_clean = {c.camera.camera_id: c for c in render_scene(clean).captures}
        coverages = []
        for cam_id in ("top", "middle", "bottom"):
            for fid, mc in caps_clean[cam_id].masks.items():
                mo = caps[cam_id].masks.get(fid)
                cov = 1 - (np.count_nonzero(mo.data) if mo else 0) / np.count_nonzero(mc.data)
                if cam_id == "bottom":
                    coverages.append(cov)
                else:
                    assert cov == 0.0
        assert all(0.10 <= c <= 0.50 for c in coverages)
        assert 0.20 <= np.mean(coverages) <= 0.40

    def test_every_fruit_visible_in_every_camera(self):
        bundle = render_scene(lab_scene(seed=9, occlusion=False, noise_sigma_at_1m=0.0))
        for cap in bundle.captures:
            assert len(cap.masks) == 12


class TestSceneValidation:
    def test_zero_semi_axis_rejected(self):
        with pytest.raises(InvalidSpec):
            FruitSpec("f", Point3(0, 0, 0.6), np.array([0.0, 0.01, 0.01]))

    @pytest.mark.parametrize("center,semi", [
        (Point3(math.nan, 0, 0.6), [0.02, 0.02, 0.02]),
        (Point3(0, 0, math.inf), [0.02, 0.02, 0.02]),
        (Point3(0, 0, 0.6), [math.inf, 0.02, 0.02]),
        (Point3(0, 0, 0.6), [math.nan, 0.02, 0.02]),
    ])
    def test_non_finite_fruit_rejected(self, center, semi):
        with pytest.raises(InvalidSpec):
            FruitSpec("f", center, np.array(semi))

    @pytest.mark.parametrize("field,value", [("seed", -1), ("depth_scale", math.nan)])
    def test_bad_seed_or_depth_scale_rejected(self, field, value):
        with pytest.raises(InvalidSpec):
            SceneSpec(fruits=[], occluders=[], rig=[single_camera()], **{field: value})

    def test_empty_rig_rejected(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(fruits=[], occluders=[], rig=[], noise=NoiseSpec(0.0), seed=0)

    def test_distorted_intrinsics_rejected(self):
        k = CameraIntrinsics(64, 64, 60.0, 60.0, 32.0, 32.0,
                             distortion=[0.1, 0, 0, 0, 0])
        with pytest.raises(InvalidSpec):
            SceneSpec(fruits=[], occluders=[], rig=[RigCamera("c", k, RigidTransform.identity())],
                      noise=NoiseSpec(0.0), seed=0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidSpec):
            NoiseSpec(-0.001)

    def test_nan_sigma_rejected(self):
        with pytest.raises(InvalidSpec):
            NoiseSpec(math.nan)

    def test_bad_occluder_shape_rejected(self):
        with pytest.raises(InvalidSpec):
            QuadOccluder(np.zeros((3, 3)))

    def test_scene_dict_roundtrip(self):
        spec = lab_scene(seed=3)
        doc = scene_to_dict(spec)
        back = scene_from_dict(doc)
        assert scene_to_dict(back) == doc
        a, b = render_scene(spec), render_scene(back)
        for ca, cb in zip(a.captures, b.captures):
            assert np.array_equal(ca.depth.data, cb.depth.data)
