import dataclasses
import math
import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitgauge import geometry, simulate
from fruitgauge.errors import InvalidSpec
from fruitgauge.fileio import scene_from_dict
from fruitgauge.geometry import (
    CameraIntrinsics,
    Point3,
    RigCamera,
    RigidTransform,
    align_depth_to_color,
    apply,
    apply_points,
    compose,
    depth_units,
    invert,
    pixel_to_ray,
    ray_to_pixel,
    translation_transform,
)
from fruitgauge.maskops import BinaryMask, Pixel
from fruitgauge.simulate import (
    CAMERA_HEIGHTS_M,
    DEFAULT_INTRINSICS,
    RIG_TARGET,
    SceneFruits,
    SceneLeaves,
    SceneSpec,
    _camera_noise_seed,
    _chord_coordinates,
    _noisy_units,
    _windows,
    lab_scene,
    paper_rig,
    render_scene,
)

from conftest import deproject, rotation_about, scene_to_dict
from test_maskops import extremes, full
from test_sizing import measure_one


class Fruit(NamedTuple):
    """A fruit as one row, the form of the references below; a scene takes
    its fruits as ``SceneFruits`` columns."""

    fruit_id: str
    center_world: Point3
    semi_axes: np.ndarray   # (ax, ay, az) meters


def fruit_columns(rows) -> SceneFruits:
    return SceneFruits([f.fruit_id for f in rows], [tuple(f.center_world) for f in rows],
                       [f.semi_axes for f in rows])


NO_FRUITS, NO_LEAVES = SceneFruits([], [], []), SceneLeaves([])


def single_camera(k=None):
    k = k or CameraIntrinsics(640, 480, 600.0, 600.0, 319.5, 239.5)
    return RigCamera("middle", k, RigidTransform.identity())


def sphere_scene(diameter_m=0.0467, z=0.6, k=None, noise=0.0, occluders=(), seed=0):
    r = diameter_m / 2
    return SceneSpec(
        fruits=SceneFruits(["s0"], [(0, 0, z)], [(r, r, r)]),
        occluders=SceneLeaves(list(occluders)),
        rig=[single_camera(k)],
        sigma_at_1m=noise,
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
    fruits = list(zip(spec.fruits.center_world_m, spec.fruits.semi_axes))
    objects = [center + _CUBE_SIGNS * semi for center, semi in fruits]
    objects += list(spec.occluders.corners)
    windows = [ref_object_window(corners, world_to_cam, k) for corners in objects]
    for idx, (c, window) in enumerate(zip(objects, windows)):
        if window is None:
            continue
        u0, u1, v0, v1 = window
        dirs, shape = ref_pixel_dirs(cam, u0, u1, v0, v1)
        if idx < len(fruits):
            t = ref_ellipsoid_ts(origin, dirs, *fruits[idx])
        else:
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
    for idx, (fruit_id, window) in enumerate(zip(spec.fruits.fruit_id, windows)):
        if window is None:
            continue
        u0, u1, v0, v1 = window
        m = BinaryMask(winner[v0:v1 + 1, u0:u1 + 1] == idx, u0, v0, winner.shape)
        if not m.is_empty():
            masks[fruit_id] = m
    return samples, masks


def ref_add_depth_noise(data, depth_scale, sigma_at_1m, seed):
    valid = data != 0
    noise = np.zeros(data.shape)
    noise[valid] = np.random.default_rng(seed).standard_normal(np.count_nonzero(valid))
    z = data.astype(float) * depth_scale
    q = depth_units(z + noise * sigma_at_1m * z * z, depth_scale)
    q[data == 0] = 0
    return q


def ref_render_scene(spec):
    """(depth samples, masks) per camera."""
    out = []
    for ci, cam in enumerate(spec.rig):
        samples, masks = ref_render_camera(cam, spec)
        if spec.sigma_at_1m > 0:
            samples = ref_add_depth_noise(samples, spec.depth_scale, spec.sigma_at_1m,
                                          _camera_noise_seed(spec.seed, ci))
        out.append((samples, masks))
    return out


# -- the per-fruit lab_scene the package used before it built the scene in --
# -- array passes, with its 60-step bisection per cut; kept as the reference -

def ref_chord_coordinate(fraction):
    """q such that the unit-disc area with coordinate >= q equals fraction."""
    if not 0 < fraction < 1:
        raise InvalidSpec(f"cut fraction must be in (0,1), got {fraction}")
    lo, hi = -1.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        area = (math.acos(mid) - mid * math.sqrt(1 - mid * mid)) / math.pi
        if area > fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ref_window_quad(cam, u_range, v_range):
    us = np.array([u_range[0], u_range[1], u_range[1], u_range[0]])
    vs = np.array([v_range[0], v_range[0], v_range[1], v_range[1]])
    xn, yn = pixel_to_ray(cam.intrinsics, us, vs)
    corners_cam = np.column_stack([xn, yn, np.ones(4)]) * simulate.LEAF_DEPTH_M
    return apply_points(cam.cam_to_world, corners_cam)


def ref_leaves_for_fruit(fruit, cam, cut, fraction):
    k = cam.intrinsics
    c_cam = apply(invert(cam.cam_to_world), fruit.center_world).to_array()
    if c_cam[2] <= 0:
        raise InvalidSpec("occluded fruit is behind the occluded camera")
    u0, v0 = ray_to_pixel(k, c_cam[0] / c_cam[2], c_cam[1] / c_cam[2])
    ax, ay, az = fruit.semi_axes
    view_world = cam.cam_to_world.rotation @ (c_cam / np.linalg.norm(c_cam))
    sin_elev = abs(float(view_world[1]))
    cos_elev = math.sqrt(max(1.0 - sin_elev * sin_elev, 0.0))
    s_vert = math.sqrt((ay * cos_elev) ** 2 + (az * sin_elev) ** 2)
    rho_u = k.fx * ax / c_cam[2]
    rho_v = k.fy * s_vert / c_cam[2]
    margin = simulate.LEAF_MARGIN
    full_u = (u0 - margin * rho_u, u0 + margin * rho_u)
    full_v = (v0 - margin * rho_v, v0 + margin * rho_v)
    if cut == "left":
        q = ref_chord_coordinate(fraction)
        windows = [((full_u[0], u0 - q * rho_u), full_v)]
    elif cut == "right":
        q = ref_chord_coordinate(fraction)
        windows = [((u0 + q * rho_u, full_u[1]), full_v)]
    else:
        q = ref_chord_coordinate(fraction / 2.0)
        windows = [(full_u, (full_v[0], v0 - q * rho_v)), (full_u, (v0 + q * rho_v, full_v[1]))]
    return [ref_window_quad(cam, ur, vr) for ur, vr in windows]


def ref_lab_objects(seed=0, *, rig=None, n_fruits=12, columns=6, pitch_x=0.09, pitch_y=0.11):
    """The reference lab's rig, its fruits as rows and its leaves' corners."""
    rig = rig if rig is not None else paper_rig()
    bottom = next(c for c in rig if c.camera_id == "bottom")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CE2E]))
    rows = math.ceil(n_fruits / columns)
    fruits = []
    for i in range(n_fruits):
        r, c = divmod(i, columns)
        x = (c - (columns - 1) / 2.0) * pitch_x
        y = (r - (rows - 1) / 2.0) * pitch_y
        z = RIG_TARGET.z + rng.uniform(-simulate.Z_JITTER_M, simulate.Z_JITTER_M)
        h = rng.uniform(*simulate.HEIGHT_RANGE_MM) / 1000.0
        w = rng.uniform(*simulate.WIDTH_RANGE_MM) / 1000.0
        fruits.append(Fruit(f"fruit{i:02d}", Point3(x, y, z), np.array([w / 2, h / 2, w / 2])))
    occluders = []
    lo, hi = simulate.OCCLUDED_FRACTION
    for i, fruit in enumerate(fruits):
        kind = ("left", "band", "right", "band")[i % 4]
        fraction = rng.uniform(max(lo, hi - 0.3 * (hi - lo)), hi) \
            if kind == "band" else rng.uniform(lo, hi)
        occluders.extend(ref_leaves_for_fruit(fruit, bottom, kind, fraction))
    return rig, fruits, occluders


def ref_lab_scene(seed=0, **kwargs):
    rig, fruits, occluders = ref_lab_objects(seed, **kwargs)
    return SceneSpec(fruits=fruit_columns(fruits), occluders=SceneLeaves(occluders), rig=rig,
                     sigma_at_1m=0.002, seed=seed)


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
    fruits = SceneFruits(["odd", "target"], [center, RIG_TARGET], [semi, [0.03, 0.025, 0.03]])
    return SceneSpec(fruits=fruits, occluders=NO_LEAVES, rig=paper_rig(SMALL_K),
                     sigma_at_1m=0.002, seed=3)


# crosses the middle camera's z = 0 plane; its far edge, at y/z = 0.1, lies
# on the centers of that camera's pixel row 71
LEAF_ACROSS_CAMERA_PLANE = [(-0.05, -0.02, -0.05), (0.05, -0.02, -0.05), (0.05, 0.02, 0.2),
                            (-0.05, 0.02, 0.2)]


def leaf_scene(corners) -> SceneSpec:
    """The normal fruit at the rig target and one leaf, seen by a small paper rig."""
    return SceneSpec(fruits=SceneFruits(["target"], [RIG_TARGET], [[0.03, 0.025, 0.03]]),
                     occluders=SceneLeaves([corners]), rig=paper_rig(SMALL_K),
                     sigma_at_1m=0.002, seed=3)


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
    "leaf_crosses_camera_plane": lambda: leaf_scene(LEAF_ACROSS_CAMERA_PLANE),
    "leaf_reversed": lambda: leaf_scene(LEAF_ACROSS_CAMERA_PLANE[::-1]),
}


@pytest.mark.parametrize("name", RENDER_SCENES)
def test_render_matches_point_array_reference(monkeypatch, name):
    # noise draws one normal per sample over the whole frame in the reference;
    # the render draws block by block, with the default blocks and with blocks
    # of 7 rows of a 640-wide frame (14 of a 320-wide one, 28 of a 160-wide one)
    spec = RENDER_SCENES[name]()
    assert spec.sigma_at_1m > 0
    expected = ref_render_scene(spec)
    assert any(masks for _, masks in expected)
    for block_pixels in (geometry.BLOCK_PIXELS, 7 * 640):
        monkeypatch.setattr(geometry, "BLOCK_PIXELS", block_pixels)
        got = render_scene(spec).captures
        assert len(got) == len(expected)
        for cap, (samples, masks) in zip(got, expected):
            assert np.array_equal(cap.depth.data, samples)
            assert cap.masks == masks
    for cam in spec.rig:
        rows = geometry.row_blocks(cam.intrinsics.height, cam.intrinsics.width)
        assert len(rows) >= 3 and cam.intrinsics.height % (rows[0].stop - rows[0].start)


def test_full_frame_render_and_alignment_peak_memory():
    # each 1280x720 depth sensor of the orchard rig, 15 mm beside its color
    # camera: the peak of what the render and then the alignment hold. The
    # render's z-buffer (t and winner) and depth frame take 11 bytes per
    # pixel and the aligned frame 2; the rest is one block's temporaries.
    k = CameraIntrinsics(1280, 720, 920.0, 920.0, 639.5, 359.5)
    rig = paper_rig(k)
    spec = lab_scene(0, rig=rig, n_fruits=60, columns=10, pitch_x=0.07, pitch_y=0.075)
    to_color = translation_transform(-0.015, 0.0, 0.0)
    pixels = k.width * k.height
    for cam in rig:
        sensor = dataclasses.replace(spec, rig=[
            RigCamera(cam.camera_id, k, compose(cam.cam_to_world, to_color))])
        tracemalloc.start()
        try:
            depth = render_scene(sensor).captures[0].depth
            render_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            align_depth_to_color(depth, k, k, to_color)
            align_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert render_peak <= 15.0 * pixels, cam.camera_id
        assert align_peak <= 7.0 * pixels, cam.camera_id


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
    fruit = Fruit("f", Point3(*center), np.array(semi))
    world_to_cam = invert(cam.cam_to_world)
    (window,) = _windows(SceneFruits(["f"], [center], [semi]), SceneLeaves([]), world_to_cam,
                         SMALL_K)
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
    fruits = SceneFruits(["f"], [center], [[0.03, 0.04, 0.05]])
    assert _windows(fruits, SceneLeaves([]), invert(cam.cam_to_world), SMALL_K) == [window]


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
        ext = extremes(mask)
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
        m = measure_one(cap.masks["s0"], cap.depth, k)
        assert m.width_mm == pytest.approx(46.7, rel=0.01)
        assert m.height_mm == pytest.approx(46.7, rel=0.01)

    def test_depth_consistency_against_ray_oracle(self, rng):
        spec = sphere_scene()
        bundle = render_scene(spec)
        cap = bundle.captures[0]
        k = cap.camera.intrinsics
        center = spec.fruits.center_world_m[0]
        radius = float(spec.fruits.semi_axes[0, 0])
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
        clean = dataclasses.replace(spec, occluders=NO_LEAVES, sigma_at_1m=0.0)
        occluded = dataclasses.replace(spec, sigma_at_1m=0.0)
        for cap_c, cap_o in zip(render_scene(clean).captures, render_scene(occluded).captures):
            for fid, mask_c in cap_c.masks.items():
                mask_o = cap_o.masks.get(fid)
                occ = full(mask_o) if mask_o is not None else np.zeros_like(full(mask_c))
                assert not (occ & ~full(mask_c)).any()

    def test_empty_scene(self):
        spec = SceneSpec(fruits=NO_FRUITS, occluders=NO_LEAVES, rig=[single_camera()],
                         sigma_at_1m=0.0, seed=0)
        bundle = render_scene(spec)
        assert bundle.captures[0].masks == {}
        assert not bundle.captures[0].depth.data.any()

    def test_half_occluded_sphere(self):
        # quad hides the upper half of the view: fill ratio drops well below
        # the clean value and the height is under-measured. The algebraic
        # circle fit follows the occlusion chord, so the fill ratio lands
        # near 0.73, not at the 0.5 a full-outline fit would give.
        quad = [[-0.1, -0.1, 0.3], [0.1, -0.1, 0.3], [0.1, 0.0, 0.3], [-0.1, 0.0, 0.3]]
        spec = sphere_scene(occluders=[quad])
        clean = sphere_scene()
        k = spec.rig[0].intrinsics
        cap = render_scene(spec).captures[0]
        cap_clean = render_scene(clean).captures[0]
        occluded = measure_one(cap.masks["s0"], cap.depth, k)
        reference = measure_one(cap_clean.masks["s0"], cap_clean.depth, k)
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
        assert bundle.truth == spec.fruits
        for f, center, semi in zip(spec.fruits, spec.fruits.center_world_m,
                                   spec.fruits.semi_axes, strict=True):
            assert (f.height_mm, f.width_mm) == (2000 * semi[1], 2000 * semi[0])
            assert f.center_world == Point3(*center)

    def test_mask_pixels_have_depth(self):
        bundle = render_scene(dataclasses.replace(lab_scene(seed=0), sigma_at_1m=0.0))
        for cap in bundle.captures:
            for mask in cap.masks.values():
                assert (cap.depth.data[full(mask)] > 0).all()


class TestAddDepthNoise:
    """``_noisy_units``, the one depth-noise path of ``render_scene``. A bad
    sigma is rejected when the ``SceneSpec`` is built."""

    def units(self, value=1000, n=64 * 64):
        return np.full(n, value, dtype=np.uint16)

    def test_zero_sigma_is_identity(self):
        units = self.units()
        assert np.array_equal(_noisy_units(units, 0.001, 0.0, np.random.default_rng(9)), units)

    def test_same_seed_same_output(self):
        units = self.units()
        a = _noisy_units(units, 0.001, 0.002, np.random.default_rng(42))
        b = _noisy_units(units, 0.001, 0.002, np.random.default_rng(42))
        assert np.array_equal(a, b)
        c = _noisy_units(units, 0.001, 0.002, np.random.default_rng(43))
        assert not np.array_equal(a, c)

    def test_empirical_sigma_at_one_meter(self):
        # 10^5 samples at z = 1 m with sigma_at_1m = 2 mm
        out = _noisy_units(self.units(1000, 400 * 250), 0.001, 0.002, np.random.default_rng(7))
        sigma = (out.astype(float) - 1000).std() * 0.001
        assert sigma == pytest.approx(0.002, rel=0.05)

    def test_zeros_stay_zero(self, rng):
        data = np.where(rng.random((32, 32)) < 0.5, 800, 0).astype(np.uint16)
        out = _noisy_units(data.ravel(), 0.001, 0.01, np.random.default_rng(3)).reshape(data.shape)
        assert not out[data == 0].any()
        assert (out[data != 0] > 0).all()
        assert np.array_equal(out, ref_add_depth_noise(data, 0.001, 0.01, 3))

    @pytest.mark.parametrize("zero_share", [0.0, 0.3], ids=["all_nonzero", "with_zeros"])
    def test_matches_reference(self, rng, zero_share):
        # all nonzero units take the path without a gather and a scatter
        data = rng.integers(1, 3000, size=(40, 50)).astype(np.uint16)
        data[rng.random(data.shape) < zero_share] = 0
        out = _noisy_units(data.ravel(), 0.001, 0.01, np.random.default_rng(3)).reshape(data.shape)
        assert np.array_equal(out, ref_add_depth_noise(data, 0.001, 0.01, 3))

    def test_blocks_drawn_from_one_generator_match_one_draw(self, rng):
        # blocks of 7 rows, one of them all zeros and one with none
        data = rng.integers(1, 3000, size=(50, 40)).astype(np.uint16)
        data[rng.random(data.shape) < 0.3] = 0
        data[14:21] = 0
        data[21:28] = 900
        whole = _noisy_units(data.ravel(), 0.001, 0.01, np.random.default_rng(3))
        noise = np.random.default_rng(3)
        blocks = [_noisy_units(data[v0:v0 + 7].ravel(), 0.001, 0.01, noise)
                  for v0 in range(0, 50, 7)]
        assert np.array_equal(np.concatenate(blocks), whole)
        assert np.array_equal(whole.reshape(data.shape), ref_add_depth_noise(data, 0.001, 0.01, 3))

    def test_sigma_grows_with_depth_squared(self):
        # remove the quantization variance (q^2/12) before comparing scales
        def noise_var(value):
            out = _noisy_units(self.units(value, 300 * 300), 0.001, 0.002, np.random.default_rng(5))
            return (out.astype(float) - value).var() - 1.0 / 12.0

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

    def test_spacing_exceeds_twice_max_radius(self):
        spec = lab_scene(seed=7)
        centers = np.array([f.center_world.to_array() for f in spec.fruits])
        rmax = float(spec.fruits.semi_axes.max())
        d = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        d[np.diag_indices(len(centers))] = np.inf
        assert d.min() > 2 * rmax

    def test_occlusion_hits_bottom_camera_only_and_in_band(self):
        spec = lab_scene(seed=8)
        clean = dataclasses.replace(spec, occluders=NO_LEAVES, sigma_at_1m=0.0)
        occluded = dataclasses.replace(spec, sigma_at_1m=0.0)
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
        spec = dataclasses.replace(lab_scene(seed=9), occluders=NO_LEAVES, sigma_at_1m=0.0)
        for cap in render_scene(spec).captures:
            assert len(cap.masks) == 12

    def test_rig_without_bottom_camera_rejected(self):
        with pytest.raises(InvalidSpec, match="bottom"):
            lab_scene(0, rig=[c for c in paper_rig() if c.camera_id != "bottom"])


ORCHARD_K = CameraIntrinsics(1280, 720, 920.0, 920.0, 639.5, 359.5)
ORCHARD_GRID = dict(n_fruits=60, columns=10, pitch_x=0.07, pitch_y=0.075)


def disc_area_above(q):
    """Share of the unit disc's area at coordinate >= q."""
    return (math.acos(q) - q * math.sqrt(1 - q * q)) / math.pi


class TestChordCoordinates:
    def test_matches_the_bisection(self):
        ends = np.geomspace(1e-6, 1e-3, 200)
        fractions = np.concatenate([ends, np.linspace(1e-6, 1 - 1e-6, 2001), 1 - ends,
                                    np.linspace(1e-3, 0.9, 2001)])
        q = _chord_coordinates(fractions)
        error = np.abs(q - [ref_chord_coordinate(f) for f in fractions.tolist()])
        # both solve the same rounded area; near the ends a step of f moves q
        # by up to pi / (2 sqrt(1 - q^2)) times as much
        assert error.max() <= 1e-13
        assert error[(fractions >= 1e-3) & (fractions <= 0.9)].max() <= 6e-16
        assert max(abs(disc_area_above(qi) - f)
                   for qi, f in zip(q.tolist(), fractions.tolist())) <= 1e-15

    def test_fractions_too_near_the_ends_stay_inside_the_disc(self):
        q = _chord_coordinates(np.array([5e-324, 1e-300, 1e-20, 1 - 2 ** -53]))
        assert (np.abs(q) < 1).all()
        assert q[:3] == pytest.approx(1.0, abs=1e-13) and q[3] == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, math.nan])
    def test_fraction_outside_the_open_interval_rejected(self, fraction):
        text = re.escape(f"cut fraction must be in (0,1), got {fraction}")
        with pytest.raises(InvalidSpec, match=text):
            ref_chord_coordinate(fraction)
        with pytest.raises(InvalidSpec, match=text):
            _chord_coordinates(np.array([0.3, fraction, 0.5]))


def assert_same_scene(spec, ref):
    """Fruits bitwise equal, leaf corners within 1e-15 m, the rest equal."""
    assert spec.fruits.fruit_id == ref.fruits.fruit_id
    assert spec.fruits.center_world_m.tobytes() == ref.fruits.center_world_m.tobytes()
    assert spec.fruits.semi_axes.tobytes() == ref.fruits.semi_axes.tobytes()
    assert spec.occluders.corners.shape == ref.occluders.corners.shape
    assert np.abs(spec.occluders.corners - ref.occluders.corners).max(initial=0.0) <= 1e-15
    assert (spec.sigma_at_1m, spec.seed, spec.depth_scale) == (ref.sigma_at_1m, ref.seed,
                                                               ref.depth_scale)
    for got, want in zip(spec.rig, ref.rig, strict=True):
        assert (got.camera_id, got.intrinsics) == (want.camera_id, want.intrinsics)
        assert np.array_equal(got.cam_to_world.rotation, want.cam_to_world.rotation)
        assert np.array_equal(got.cam_to_world.translation, want.cam_to_world.translation)


class TestLabSceneArrayPasses:
    """``lab_scene`` against the per-fruit reference it replaced."""

    @pytest.mark.parametrize("seed,orchard,render", [
        (0, False, True), (1, False, True), (2, False, True), (3, False, True),
        (0, True, True), (1, True, False),
    ], ids=["lab0", "lab1", "lab2", "lab3", "orchard0", "orchard1"])
    def test_matches_the_per_fruit_reference(self, seed, orchard, render):
        kwargs = dict(rig=paper_rig(ORCHARD_K), **ORCHARD_GRID) if orchard else {}
        spec, ref = lab_scene(seed, **kwargs), ref_lab_scene(seed, **kwargs)
        assert_same_scene(spec, ref)
        if not render:
            return
        for got, want in zip(render_scene(spec).captures, render_scene(ref).captures):
            assert got.depth.data.tobytes() == want.depth.data.tobytes()
            assert got.masks == want.masks

    @pytest.mark.parametrize("n_fruits,columns", [(0, 6), (1, 6), (1, 1), (5, 8), (7, 3)])
    def test_small_and_ragged_grids(self, n_fruits, columns):
        spec = lab_scene(4, n_fruits=n_fruits, columns=columns)
        assert_same_scene(spec, ref_lab_scene(4, n_fruits=n_fruits, columns=columns))
        assert len(spec.fruits) == n_fruits
        assert len(spec.occluders.corners) == n_fruits + n_fruits // 2   # odd fruits have a band

    @pytest.mark.parametrize("kwargs", [
        # the second row sits 1 m below the target, behind the upturned camera
        dict(pitch_y=2.0),
        # a bottom camera turned to look away from the grid
        dict(rig=[RigCamera("bottom", DEFAULT_INTRINSICS,
                            RigidTransform(np.diag([-1.0, 1.0, -1.0]), np.zeros(3)))]),
    ], ids=["one_row_behind", "all_behind"])
    def test_fruit_behind_the_bottom_camera_rejected(self, kwargs):
        for build in (lab_scene, ref_lab_scene):
            with pytest.raises(InvalidSpec, match="occluded fruit is behind the occluded camera"):
                build(0, **kwargs)


# -- the checks a fruit row and a leaf's corners ran on themselves before ----
# -- a scene held its fruits and leaves as columns, kept as the reference; ---
# -- a leaf's text now names its index, and the fruit range rule is new ------

def ref_is_planar_convex(corners):
    """True when four corners, in order, bound a planar convex polygon of
    nonzero area; one quad, in Python floats."""
    sub, dot, cross = simulate._sub, simulate._dot, simulate._cross
    d1, d2 = sub(corners[2], corners[0]), sub(corners[3], corners[1])
    e = sub(corners[1], corners[0])
    s = cross(d1, d2)
    ss, twist = dot(s, s), dot(e, s)
    return (0 < dot(cross(e, d2), s) < ss and 0 < dot(cross(e, d1), s) < ss
            and twist * twist <= 1e-18 * dot(e, e) * ss)


def ref_check_fruit(fruit):
    s = np.asarray(fruit.semi_axes, dtype=float).reshape(-1)
    if s.shape != (3,) or not (0 < s.min() and s.max() < math.inf
                               and all(map(math.isfinite, fruit.center_world))):
        raise InvalidSpec(f"fruit {fruit.fruit_id!r}: needs a finite center and "
                          "3 positive finite semi-axes")
    if not max(2000.0 * float(s[1]), 2000.0 * float(s[0])) < math.inf:
        raise InvalidSpec(f"fruit {fruit.fruit_id!r}: height and width in mm must be finite")
    (lo, hi), reach = simulate.SEMI_AXIS_RANGE_M, simulate.CENTER_REACH_M
    if not (lo <= s.min() and s.max() <= hi and max(map(abs, fruit.center_world)) <= reach):
        raise InvalidSpec(f"fruit {fruit.fruit_id!r}: semi-axes must lie in [1e-06, 1000] m "
                          "and center coordinates in [-1000, 1000] m")


def ref_check_occluder(index, corners):
    c = np.asarray(corners, dtype=float)
    if c.shape != (4, 3) or not np.isfinite(c).all():
        raise InvalidSpec(f"occluder {index} needs 4 finite 3D corners")
    if not ref_is_planar_convex(c.tolist()):
        raise InvalidSpec(f"occluder {index} corners must bound a planar convex quad "
                          "of nonzero area")


def scene_of(fruits=(), leaves=()) -> SceneSpec:
    """A one-camera scene of ``Fruit`` rows and leaf corners, whose columns
    check them."""
    return SceneSpec(fruits=fruit_columns(fruits), occluders=SceneLeaves(list(leaves)),
                     rig=[single_camera()])


class TestSceneValidation:
    def test_zero_semi_axis_rejected(self):
        with pytest.raises(InvalidSpec):
            scene_of([Fruit("f", Point3(0, 0, 0.6), np.array([0.0, 0.01, 0.01]))])

    @pytest.mark.parametrize("center,semi", [
        (Point3(math.nan, 0, 0.6), [0.02, 0.02, 0.02]),
        (Point3(0, 0, math.inf), [0.02, 0.02, 0.02]),
        (Point3(0, 0, 0.6), [math.inf, 0.02, 0.02]),
        (Point3(0, 0, 0.6), [math.nan, 0.02, 0.02]),
    ])
    def test_non_finite_fruit_rejected(self, center, semi):
        with pytest.raises(InvalidSpec):
            scene_of([Fruit("f", center, np.array(semi))])

    @pytest.mark.parametrize("semi", [[0.02, 1e305, 0.02], [1e305, 0.02, 0.02]],
                             ids=["height", "width"])
    def test_size_past_the_float_range_in_mm_rejected(self, semi):
        # the fruit is its own truth row, whose sizes are 2000 x a semi-axis in mm
        with pytest.raises(InvalidSpec, match="fruit 'f': height and width in mm must be finite"):
            scene_of([Fruit("f", Point3(0, 0, 0.6), np.array(semi))])

    @pytest.mark.parametrize("centers,semi", [
        ([[0, 0, 0.6]], [[0.02] * 3] * 2),
        ([[0, 0, 0.6]] * 3, [[0.02] * 3] * 2),
        ([[0, 0, 0.6, 0.6, 0, 0]], [[0.02] * 3] * 2),
    ], ids=["few_centers", "many_centers", "flat_centers"])
    def test_columns_of_another_length_rejected(self, centers, semi):
        with pytest.raises(InvalidSpec, match=r"^fruit columns: 2 ids but center_world_m of shape"):
            SceneFruits(["a", "b"], centers, semi)
        with pytest.raises(InvalidSpec, match=r"^fruit columns: 2 ids but semi_axes of shape"):
            SceneFruits(["a", "b"], semi, centers)

    @pytest.mark.parametrize("shape", [(8, 3), (2, 4, 2), (12,)])
    def test_leaf_corners_of_another_shape_rejected(self, shape):
        with pytest.raises(InvalidSpec, match=r"^leaf corners must be of shape \(m, 4, 3\), not"):
            SceneLeaves(np.zeros(shape))

    @pytest.mark.parametrize("field,value", [("seed", -1), ("depth_scale", math.nan),
                                             ("depth_scale", math.inf)])
    def test_bad_seed_or_depth_scale_rejected(self, field, value):
        with pytest.raises(InvalidSpec):
            SceneSpec(fruits=NO_FRUITS, occluders=NO_LEAVES, rig=[single_camera()],
                      **{field: value})

    def test_empty_rig_rejected(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(fruits=NO_FRUITS, occluders=NO_LEAVES, rig=[], sigma_at_1m=0.0, seed=0)

    @pytest.mark.parametrize("field,repeated", [("fruits", "fruit01"), ("rig", "middle")])
    def test_repeated_id_rejected(self, field, repeated):
        spec = lab_scene(0)
        if field == "fruits":
            rows = [*range(len(spec.fruits)), 1]
            items = SceneFruits([spec.fruits.fruit_id[i] for i in rows],
                                spec.fruits.center_world_m[rows], spec.fruits.semi_axes[rows])
        else:
            items = spec.rig + [spec.rig[1]]
        with pytest.raises(InvalidSpec, match=f"'{repeated}'"):
            dataclasses.replace(spec, **{field: items})

    @pytest.mark.parametrize("field,value", [("fruits", []), ("occluders", [np.zeros((4, 3))]),
                                             ("fruits", NO_LEAVES)])
    def test_fields_other_than_columns_rejected(self, field, value):
        kind = {"fruits": "SceneFruits", "occluders": "SceneLeaves"}[field]
        text = f"^{field} must be {kind}, got {type(value).__name__}$"
        with pytest.raises(TypeError, match=text):
            dataclasses.replace(lab_scene(0), **{field: value})

    @pytest.mark.parametrize("position", [(1e155, 0, 0), (0, 0, -1e160), (0, 1e200, 0),
                                          (1e300, 0, 0), (0, 1000.0000000001, 0)])
    def test_camera_past_the_reach_rejected(self, position):
        rig = [single_camera(), RigCamera("far", DEFAULT_INTRINSICS,
                                          RigidTransform(np.eye(3), np.array(position)))]
        with pytest.raises(InvalidSpec, match=re.escape(
                "camera 'far': position must lie within [-1000, 1000] m on each axis")):
            SceneSpec(fruits=NO_FRUITS, occluders=NO_LEAVES, rig=rig)

    def test_camera_at_the_reach_accepted(self):
        cam = RigCamera("edge", DEFAULT_INTRINSICS,
                        RigidTransform(np.eye(3), np.array([-1000.0, 1000.0, 1000.0])))
        assert SceneSpec(fruits=NO_FRUITS, occluders=NO_LEAVES, rig=[cam]).rig == [cam]

    def test_distorted_intrinsics_rejected(self):
        k = CameraIntrinsics(64, 64, 60.0, 60.0, 32.0, 32.0,
                             distortion=[0.1, 0, 0, 0, 0])
        with pytest.raises(InvalidSpec):
            SceneSpec(fruits=NO_FRUITS, occluders=NO_LEAVES,
                      rig=[RigCamera("c", k, RigidTransform.identity())],
                      sigma_at_1m=0.0, seed=0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(fruits=NO_FRUITS, occluders=NO_LEAVES, rig=[single_camera()],
                      sigma_at_1m=-0.001)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_nan_sigma_rejected(self, sigma):
        with pytest.raises(InvalidSpec):
            SceneSpec(fruits=NO_FRUITS, occluders=NO_LEAVES, rig=[single_camera()],
                      sigma_at_1m=sigma)

    @pytest.mark.parametrize("model", ["z3", ""], ids=["z3", "empty"])
    def test_unknown_noise_model_rejected(self, model):
        doc = scene_to_dict(lab_scene(0))
        doc["noise"]["model"] = model
        with pytest.raises(InvalidSpec, match=f"^scene <inline>: unknown noise model {model!r}$"):
            scene_from_dict(doc)

    @pytest.mark.parametrize("corners", [
        np.zeros((3, 3)),
        [[0, 0, 0.3], [0.01, 0, 0.3], [0.01, 0.01, 0.31], [0, 0.01, 0.3]],
        [[0, 0, 0.3], [0.03, 0, 0.3], [0, 0.01, 0.3], [0.01, 0.01, 0.3]],
        [[0, 0, 0.3], [0.01, 0, 0.3], [0.02, 0, 0.3], [0.03, 0, 0.3]],
    ], ids=["three_corners", "non_planar", "bow_tie", "zero_area"])
    def test_bad_occluder_shape_rejected(self, corners):
        with pytest.raises(InvalidSpec):
            scene_of(leaves=[np.array(corners, dtype=float)])

    def test_scene_dict_roundtrip(self):
        spec = lab_scene(seed=3)
        doc = scene_to_dict(spec)
        back = scene_from_dict(doc)
        assert scene_to_dict(back) == doc
        a, b = render_scene(spec), render_scene(back)
        for ca, cb in zip(a.captures, b.captures, strict=True):
            assert np.array_equal(ca.depth.data, cb.depth.data)
            assert ca.masks == cb.masks and len(ca.masks) == 12
        assert list(a.truth) == list(b.truth) and len(list(a.truth)) == 12


SEMI_AXIS_VALUES = st.one_of(
    st.floats(0.001, 0.2),
    st.sampled_from([0.0, -0.02, math.inf, -math.inf, math.nan, 1e-200, 5e-7, 1e-6, 1e3,
                     1000.0000000001, 1e100, 1e305]))
CENTER_VALUES = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e3, -1e3, 1000.0000000001, -1e200]))
# a 4 cm by 3 cm rectangle, its corners in order, then what is done to it
LEAF = np.array([[0, 0, 0], [0.04, 0, 0], [0.04, 0.03, 0], [0, 0.03, 0]], dtype=float)
LEAF_DAMAGE = {
    "none": lambda c, x: c,
    "reversed": lambda c, x: c[::-1],
    "non_planar": lambda c, x: c + np.outer(np.arange(4) == 3, [0, 0, x * 1e-3]),
    "barely_non_planar": lambda c, x: c + np.outer(np.arange(4) == 3, [0, 0, x * 1e-12]),
    # corner 2 from corner 0 (x = -1) through the far diagonal (0) to where it was (1)
    "non_convex": lambda c, x: np.where(np.arange(4)[:, None] == 2,
                                        [0.02 * (1 + x), 0.015 * (1 + x), 0], c),
    "bow_tie": lambda c, x: c[[0, 1, 3, 2]],
    "zero_area": lambda c, x: c * [1, 0, 1],
    "point": lambda c, x: c * 0,
    "non_finite": lambda c, x: np.where(np.arange(12).reshape(4, 3) == 7, x * math.inf, c),
    "huge": lambda c, x: c * 10.0 ** (75 + 40 * x),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fruits=st.lists(st.tuples(st.tuples(*[CENTER_VALUES] * 3),
                                 st.tuples(*[SEMI_AXIS_VALUES] * 3)),
                       max_size=4),
       leaves=st.lists(st.tuples(st.sampled_from(sorted(LEAF_DAMAGE)), st.floats(-1.0, 1.0),
                                 st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.floats(-3.0, 3.0),
                                 st.tuples(*[st.floats(-1.0, 1.0)] * 3)),
                       max_size=4))
def test_column_checks_match_the_per_object_reference(fruits, leaves):
    # the first bad fruit, then the first bad leaf, with the same text, and
    # no overflow warning on the way
    fruit_rows = [Fruit(f"f{i}", Point3(*center), np.array(semi))
                  for i, (center, semi) in enumerate(fruits)]
    leaf_rows = []
    for damage, x, axis, angle, shift in leaves:
        corners = LEAF_DAMAGE[damage](LEAF, x)
        if np.linalg.norm(axis) > 1e-3 and np.isfinite(corners).all():
            corners = apply_points(rotation_about(axis, angle, shift), corners)
        leaf_rows.append(corners)

    def outcome(check):
        try:
            check()
        except InvalidSpec as e:
            return str(e)
        return None

    def reference():
        for fruit in fruit_rows:
            ref_check_fruit(fruit)
        for i, leaf in enumerate(leaf_rows):
            ref_check_occluder(i, leaf)

    assert outcome(lambda: scene_of(fruit_rows, leaf_rows)) == outcome(reference)


@pytest.mark.parametrize("semi", [[0.02, 1e100, 0.02], [1e100, 1e100, 1e100],
                                  [1e-200, 1e-200, 1e-200]], ids=["tall", "huge", "tiny"])
def test_semi_axes_that_would_overflow_the_render_rejected(semi):
    # each rendered after an overflow or invalid-value warning before the range rule
    with pytest.raises(InvalidSpec, match=r"^fruit 'f': semi-axes must lie in \[1e-06, 1000\] m"):
        scene_of([Fruit("f", RIG_TARGET, np.array(semi))])


@pytest.mark.parametrize("seed,orchard", [(0, False), (5, False), (2, True)],
                         ids=["lab0", "lab5", "orchard2"])
def test_lab_scene_columns_equal_the_reference_objects_bit_for_bit(monkeypatch, seed, orchard):
    # with the reference's cut solved by the Newton iteration lab_scene takes,
    # not by its bisection; the reference's objects become columns exactly
    monkeypatch.setitem(globals(), "ref_chord_coordinate",
                        lambda fraction: float(_chord_coordinates(np.array([fraction]))[0]))
    kwargs = dict(rig=paper_rig(ORCHARD_K), **ORCHARD_GRID) if orchard else {}
    spec, (_, fruits, leaves) = lab_scene(seed, **kwargs), ref_lab_objects(seed, **kwargs)
    assert spec.fruits.fruit_id == [f.fruit_id for f in fruits]
    for got, want in [(spec.fruits.center_world_m, [f.center_world for f in fruits]),
                      (spec.fruits.semi_axes, [f.semi_axes for f in fruits]),
                      (spec.occluders.corners, leaves)]:
        assert got.dtype == np.float64 and got.tobytes() == np.array(want, dtype=float).tobytes()


@pytest.mark.parametrize("change", ["no_leaves", "new_rig"])
def test_replaced_scene_renders_as_the_reference(monkeypatch, change):
    spec = small_orchard(False)
    if change == "no_leaves":
        scene = dataclasses.replace(spec, occluders=NO_LEAVES)
        assert len(scene.occluders.corners) == 0 and scene.fruits is spec.fruits
    else:
        # a scene's columns were checked when it was built, and are not again
        monkeypatch.setattr(simulate, "_planar_convex", None)
        offset = translation_transform(-0.015, 0.0, 0.0)
        scene = dataclasses.replace(spec, rig=[
            RigCamera(c.camera_id, c.intrinsics, compose(c.cam_to_world, offset))
            for c in spec.rig])
        assert scene.fruits is spec.fruits and scene.occluders is spec.occluders
        monkeypatch.undo()
    expected = ref_render_scene(scene)
    for cap, (samples, masks) in zip(render_scene(scene).captures, expected, strict=True):
        assert np.array_equal(cap.depth.data, samples)
        assert cap.masks == masks
