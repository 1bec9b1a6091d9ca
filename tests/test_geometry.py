import ast
import re
from pathlib import Path

import numpy as np
import pytest

import fruitgauge

from fruitgauge import geometry
from fruitgauge.errors import BehindCamera, InvalidDepth, InvalidPose, LengthMismatch, OutOfBounds
from fruitgauge.geometry import (
    CameraIntrinsics,
    DepthImage,
    Pixel,
    Point3,
    RigidTransform,
    align_depth_to_color,
    apply,
    compose,
    depth_units,
    distance,
    invert,
    pixel_to_ray,
    project,
    ray_to_pixel,
    solve_camera_chain,
    translation_transform,
)
from fruitgauge.simulate import FruitSpec, QuadOccluder

from conftest import deproject, random_rigid, rotation_about


def assert_transforms_close(a: RigidTransform, b: RigidTransform, tol: float):
    assert np.max(np.abs(a.rotation - b.rotation)) <= tol
    assert np.max(np.abs(a.translation - b.translation)) <= tol


class TestTransformBasics:
    def test_compose_with_identity(self, rng):
        t = random_rigid(rng)
        assert_transforms_close(compose(t, RigidTransform.identity()), t, 1e-15)
        assert_transforms_close(compose(RigidTransform.identity(), t), t, 1e-15)

    def test_compose_with_inverse_is_identity(self, rng):
        t = random_rigid(rng)
        assert_transforms_close(compose(t, invert(t)), RigidTransform.identity(), 1e-9)
        assert_transforms_close(compose(invert(t), t), RigidTransform.identity(), 1e-9)

    def test_pure_translations_add(self):
        got = compose(translation_transform(1, 0, 0), translation_transform(0, 2, 0))
        assert_transforms_close(got, translation_transform(1, 2, 0), 0.0)

    def test_invert_identity(self):
        assert_transforms_close(
            invert(RigidTransform.identity()), RigidTransform.identity(), 0.0
        )

    def test_invert_translation(self):
        got = invert(translation_transform(1, 2, 3))
        assert_transforms_close(got, translation_transform(-1, -2, -3), 0.0)

    def test_invert_is_involution(self, rng):
        t = random_rigid(rng)
        assert_transforms_close(invert(invert(t)), t, 1e-12)

    def test_apply_identity(self):
        assert apply(RigidTransform.identity(), Point3(1, 2, 3)) == Point3(1, 2, 3)

    def test_apply_translation(self):
        p = apply(translation_transform(0, 0, -0.6), Point3(0, 0, 0.623))
        assert abs(p.z - 0.023) < 1e-15 and p.x == 0 and p.y == 0

    def test_apply_rotation_about_z(self):
        rot_z = rotation_about([0, 0, 1], np.pi / 2)
        p = apply(rot_z, Point3(1, 0, 0))
        assert abs(p.x) < 1e-12 and abs(p.y - 1) < 1e-12 and abs(p.z) < 1e-12

    def test_bad_rotation_rejected_by_validate(self):
        t = RigidTransform(np.eye(3) * 1.1, np.zeros(3))
        with pytest.raises(InvalidPose):
            t.validate()


class TestTransformGroupLaws:
    N = 1000

    def test_group_laws(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N):
            a, b, c = (random_rigid(rng) for _ in range(3))
            lhs = compose(compose(a, b), c)
            rhs = compose(a, compose(b, c))
            assert_transforms_close(lhs, rhs, 1e-12)
            assert_transforms_close(compose(a, invert(a)), RigidTransform.identity(), 1e-9)
            assert_transforms_close(compose(invert(a), a), RigidTransform.identity(), 1e-9)

    def test_apply_preserves_distances(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            t = random_rigid(rng)
            p = Point3(*rng.uniform(-2, 2, size=3))
            q = Point3(*rng.uniform(-2, 2, size=3))
            assert abs(distance(apply(t, p), apply(t, q)) - distance(p, q)) <= 1e-9

    def test_long_chain_stays_orthonormal(self, rng):
        t = RigidTransform.identity()
        step = random_rigid(rng)
        for _ in range(10000):
            t = compose(t, step)
        r = t.rotation
        assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-9


class TestSolveCameraChain:
    def test_identity_board_pose(self, rng):
        x = random_rigid(rng)
        got = solve_camera_chain(RigidTransform.identity(), x)
        assert_transforms_close(got, x, 1e-12)

    def test_chain_property_1000_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            pa, pb = random_rigid(rng), random_rigid(rng)
            t = solve_camera_chain(pa, pb)
            assert_transforms_close(compose(t, pa), pb, 1e-9)

    def test_scaled_rotation_rejected(self, rng):
        bad = RigidTransform(random_rigid(rng).rotation * 1.1, np.zeros(3))
        with pytest.raises(InvalidPose):
            solve_camera_chain(bad, RigidTransform.identity())


K_NODIST = CameraIntrinsics(1280, 720, 600.0, 600.0, 640.0, 360.0)


@pytest.mark.parametrize("fx", [0.0, -1.0, np.nan, np.inf])
def test_bad_focal_length_rejected(fx):
    with pytest.raises(InvalidPose):
        CameraIntrinsics(1280, 720, fx, 600.0, 640.0, 360.0)


@pytest.mark.parametrize("scale", [0.0, -0.001, np.nan, np.inf])
def test_bad_depth_scale_rejected(scale):
    with pytest.raises(InvalidDepth):
        DepthImage(np.zeros((2, 2), np.uint16), scale)


@pytest.mark.parametrize("data", [
    np.zeros((2, 2), np.int64),
    np.zeros((2, 2), float),
    np.zeros((2, 2, 1), np.uint16),
    [[0, 1], [2, 3]],
], ids=["int64", "float", "3-d", "list"])
def test_depth_data_other_than_2d_uint16_rejected(data):
    # every reader and renderer makes uint16 samples; nothing is cast
    with pytest.raises(InvalidDepth, match="2-D uint16"):
        DepthImage(data)


class TestDeprojectProject:
    def test_principal_point_on_axis(self):
        p = deproject(K_NODIST, Pixel(640, 360), 0.5)
        assert p == Point3(0.0, 0.0, 0.5)

    def test_hand_evaluated_pinhole(self):
        # oracle: x = (u - ppx) / fx * z
        k = CameraIntrinsics(1280, 720, 500.0, 500.0, 640.0, 360.0)
        p = deproject(k, Pixel(1140, 360), 1.0)
        assert abs(p.x - 1.0) < 1e-12 and abs(p.y) < 1e-12 and p.z == 1.0

    def test_zero_depth_rejected(self):
        with pytest.raises(InvalidDepth):
            deproject(K_NODIST, Pixel(640, 360), 0.0)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(OutOfBounds):
            deproject(K_NODIST, Pixel(1280, 360), 0.5)

    def test_project_principal_point(self):
        px = project(K_NODIST, Point3(0, 0, 0.5))
        assert px == Pixel(640.0, 360.0)

    def test_project_behind_camera(self):
        with pytest.raises(BehindCamera):
            project(K_NODIST, Point3(0, 0, -1))

    @pytest.mark.parametrize(
        "k",
        [
            K_NODIST,
            CameraIntrinsics(1280, 720, 920.0, 918.0, 640.5, 360.2,
                             distortion=[0.12, -0.22, 0.0015, -0.0008, 0.08]),
        ],
        ids=["ideal", "brown_conrady"],
    )
    def test_roundtrip_10k_random_pixels(self, k):
        rng = np.random.default_rng(14)
        us = rng.uniform(0, k.width - 1, 10000)
        vs = rng.uniform(0, k.height - 1, 10000)
        ds = rng.uniform(0.2, 3.0, 10000)
        points, pixels = [], []
        for u, v, d in zip(us.tolist(), vs.tolist(), ds.tolist()):
            p = deproject(k, Pixel(u, v), d)
            px = project(k, p)
            assert abs(px.u - u) <= 1e-6 and abs(px.v - v) <= 1e-6
            points.append(p)
            pixels.append(px)

        # the camera model takes whole arrays and gives the scalar calls' results exactly
        xn, yn = pixel_to_ray(k, us, vs)
        assert np.array_equal(np.column_stack([xn * ds, yn * ds, ds]), points)
        pts = np.array(points)
        u, v = ray_to_pixel(k, pts[:, 0] / pts[:, 2], pts[:, 1] / pts[:, 2])
        assert np.array_equal(np.column_stack([u, v]), pixels)


@pytest.mark.parametrize(
    "z_m, scale, expected",
    [
        (0.0, 0.001, 0),
        (0.6, 0.001, 600),
        (0.0004999, 0.001, 0),
        (0.0005, 0.001, 1),        # half rounds up
        (0.0015, 0.001, 2),
        (0.6235, 0.001, 624),
        (0.125, 0.25, 1),          # exactly half a unit
        (-0.2, 0.001, 0),          # negative clips to "no depth"
        (65.535, 0.001, 65535),
        (65.5354, 0.001, 65535),
        (70.0, 0.001, 65535),      # beyond the 16-bit range clips
        (1e9, 0.001, 65535),
    ],
)
def test_depth_units(z_m, scale, expected):
    got = depth_units(np.array([z_m]), scale)
    assert got.dtype == np.uint16 and got.tolist() == [expected]
    assert int(depth_units(z_m, scale)) == expected


@pytest.mark.parametrize("scale", [0.001, 0.25])
def test_depth_units_matches_the_four_step_formula(scale):
    # divide, add a half, floor, clip, then cast: on every half-unit boundary
    # from -3 to 66000 units and the floats either side of it, on random
    # depths and at +-inf
    edges = np.arange(-6, 132001) / 2 * scale
    z = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        np.random.default_rng(8).uniform(-3, 66000, 10**6) * scale,
                        [-np.inf, np.inf]])
    expected = np.clip(np.floor(z / scale + 0.5), 0, 65535).astype(np.uint16)
    assert np.array_equal(depth_units(z, scale), expected)


def test_only_geometry_and_fileio_read_the_camera_model():
    # Principal point and distortion are read by the camera model in
    # geometry (and serialized by fileio); every other module goes through
    # pixel_to_ray/ray_to_pixel.
    readers = set()
    for path in sorted(Path(fruitgauge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("ppx", "ppy", "distortion"):
                readers.add(f"{path.name}:{node.lineno}")
    assert readers and {r.split(":")[0] for r in readers} <= {"geometry.py", "fileio.py"}, \
        sorted(r for r in readers if not r.startswith(("geometry.py", "fileio.py")))


def reference_landings(depth, depth_k, color_k, depth_to_color):
    """The depth row, color pixel (v, u) and sample of every depth sample that
    lands inside the color frame nonzero, on an (n, 3) point array as the
    package did it before it moved to one array per coordinate."""
    vv, uu = np.nonzero(depth.data)
    z = depth.data[vv, uu].astype(float) * depth.depth_scale
    xn, yn = pixel_to_ray(depth_k, uu, vv)
    pts = (np.column_stack([xn * z, yn * z, z]) @ depth_to_color.rotation.T
           + depth_to_color.translation)
    front = pts[:, 2] > 0
    vv, pts = vv[front], pts[front]
    u, v = ray_to_pixel(color_k, pts[:, 0] / pts[:, 2], pts[:, 1] / pts[:, 2])
    uo = np.floor(u + 0.5).astype(int)
    vo = np.floor(v + 0.5).astype(int)
    samples = depth_units(pts[:, 2], depth.depth_scale)
    keep = (uo >= 0) & (uo < color_k.width) & (vo >= 0) & (vo < color_k.height) & (samples > 0)
    return vv[keep], vo[keep], uo[keep], samples[keep]


def reference_align(depth, depth_k, color_k, depth_to_color):
    """Alignment with the nearest sample written last; kept as the reference."""
    _, vo, uo, samples = reference_landings(depth, depth_k, color_k, depth_to_color)
    out = np.zeros((color_k.height, color_k.width), dtype=np.uint16)
    order = np.argsort(samples, kind="stable")[::-1]  # write nearest last
    out[vo[order], uo[order]] = samples[order]
    return out


def align_in_blocks(monkeypatch, rows, depth, depth_k, color_k, depth_to_color):
    """``align_depth_to_color`` with blocks of ``rows`` depth rows, after
    checking that they make at least three blocks, the last one partial, and
    that some color pixel takes its nearest sample from an earlier block than
    another of its samples and some from a later one."""
    monkeypatch.setattr(geometry, "BLOCK_PIXELS", rows * depth.width + depth.width // 2)
    assert depth.height // rows >= 2 and depth.height % rows
    row, vo, uo, samples = reference_landings(depth, depth_k, color_k, depth_to_color)
    by_pixel = {}
    for b, pixel, sample in zip((row // rows).tolist(), zip(vo.tolist(), uo.tolist()),
                                samples.tolist()):
        by_pixel.setdefault(pixel, []).append((sample, b))
    spans = [(min(hits)[1], {b for _, b in hits}) for hits in by_pixel.values()]
    assert any(b < max(blocks) for b, blocks in spans)
    assert any(b > min(blocks) for b, blocks in spans)
    return align_depth_to_color(depth, depth_k, color_k, depth_to_color)


class TestAlignDepthToColor:
    def test_identity_alignment_is_identity(self, rng):
        k = CameraIntrinsics(64, 48, 60.0, 60.0, 32.0, 24.0)
        data = rng.integers(0, 3000, size=(48, 64)).astype(np.uint16)
        out = align_depth_to_color(DepthImage(data), k, k, RigidTransform.identity())
        assert np.array_equal(out.data, data)

    # a PGM may declare a frame 0 samples wide, which no depth sensor is
    @pytest.mark.parametrize("shape", [(24, 32), (96, 128), (48, 63), (48, 0)])
    def test_frame_of_another_size_than_the_depth_sensor_rejected(self, shape):
        k = CameraIntrinsics(64, 48, 60.0, 60.0, 32.0, 24.0)
        depth = DepthImage(np.full(shape, 1000, dtype=np.uint16))
        with pytest.raises(LengthMismatch, match=re.escape(
                f"depth {shape} differs from the 48x64 depth sensor image")):
            align_depth_to_color(depth, k, k, RigidTransform.identity())

    def test_translated_sample_lands_25px_right(self):
        # fx * 0.05 / 1.0 = 25 px shift for a 5 cm x-translation at 1 m
        k = CameraIntrinsics(1280, 720, 500.0, 500.0, 640.0, 360.0)
        data = np.zeros((720, 1280), dtype=np.uint16)
        data[360, 640] = 1000
        out = align_depth_to_color(DepthImage(data), k, k,
                                   translation_transform(0.05, 0, 0))
        assert out.data[360, 665] == 1000
        assert out.data.sum() == 1000

    def test_all_zero_stays_zero(self):
        k = CameraIntrinsics(32, 32, 30.0, 30.0, 16.0, 16.0)
        out = align_depth_to_color(DepthImage(np.zeros((32, 32), dtype=np.uint16)), k, k,
                                   RigidTransform.identity())
        assert out.data.shape == (32, 32) and not out.data.any()

    def test_samples_all_behind_color_camera_leave_no_depth(self):
        k = CameraIntrinsics(32, 32, 30.0, 30.0, 16.0, 16.0)
        out = align_depth_to_color(DepthImage(np.full((32, 32), 1000, dtype=np.uint16)), k, k,
                                   translation_transform(0.0, 0.0, -2.0))
        assert not out.data.any()

    def test_never_invents_depth(self, rng):
        depth_k = CameraIntrinsics(64, 48, 55.0, 55.0, 32.0, 24.0)
        color_k = CameraIntrinsics(128, 96, 110.0, 110.0, 64.0, 48.0)
        data = np.where(rng.random((48, 64)) < 0.3,
                        rng.integers(300, 2000, size=(48, 64)), 0).astype(np.uint16)
        out = align_depth_to_color(DepthImage(data), depth_k, color_k,
                                   random_rigid(rng, t_scale=0.02))
        assert np.count_nonzero(out.data) <= np.count_nonzero(data)

    def test_zbuffer_keeps_nearest(self):
        # adjacent input pixels collapse onto one output pixel of a coarser
        # camera; the nearer sample must win
        k = CameraIntrinsics(16, 16, 16.0, 16.0, 8.0, 8.0)
        data = np.zeros((16, 16), dtype=np.uint16)
        data[8, 8] = 2000
        data[8, 9] = 1000  # xn = 1/16 -> u_out = 4/16 + 8 = 8.25 -> pixel 8
        out_k = CameraIntrinsics(16, 16, 4.0, 4.0, 8.0, 8.0)
        out = align_depth_to_color(DepthImage(data), k, out_k, RigidTransform.identity())
        assert out.data[8, 8] == 1000

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("distortion", [None, (0.05, -0.01, 0.001, -0.002, 0.0)])
    def test_rotated_extrinsic_matches_point_array_reference(self, monkeypatch, seed,
                                                             distortion):
        # a coarser, smaller color frame: samples collide, the right part of
        # the depth frame projects outside it, and the planted 0.1 m sample
        # lands behind the color camera
        rng = np.random.default_rng(seed)
        depth_k = CameraIntrinsics(96, 72, 80.0, 82.0, 47.3, 35.8, distortion=distortion)
        color_k = CameraIntrinsics(60, 40, 45.0, 44.0, 28.0, 21.5)
        to_color = rotation_about((0.3, 1.0, -0.2), 0.3, (0.04, -0.03, -0.2))
        data = np.where(rng.random((72, 96)) < 0.6,
                        rng.integers(500, 3000, size=(72, 96)), 0).astype(np.uint16)
        data[0, 95], data[30, 40] = 1500, 100
        assert project(color_k, apply(to_color, deproject(depth_k, Pixel(95, 0), 1.5))).u > 60
        assert apply(to_color, deproject(depth_k, Pixel(40, 30), 0.1)).z < 0
        depth = DepthImage(data)
        expected = reference_align(depth, depth_k, color_k, to_color)
        assert np.count_nonzero(expected) > 1000
        out = align_depth_to_color(depth, depth_k, color_k, to_color)
        assert np.array_equal(out.data, expected)
        out = align_in_blocks(monkeypatch, 5, depth, depth_k, color_k, to_color)
        assert np.array_equal(out.data, expected)

    def test_zbuffer_matches_reference_on_collisions_ties_and_zero_samples(self, monkeypatch):
        # Up to 14 depth pixels land on one pixel of the coarse color frame,
        # in no depth order, and most tie with another of equal depth; 1 mm
        # samples move to 0.2 mm and round to 0, and more than half the
        # samples project outside the color frame.
        rng = np.random.default_rng(12345)
        depth_k = CameraIntrinsics(64, 48, 60.0, 60.0, 31.5, 23.5)
        color_k = CameraIntrinsics(12, 10, 15.0, 15.0, 4.5, 5.5)
        data = rng.choice(np.array([0, 1, 2, 3, 700, 700, 701], dtype=np.uint16), (48, 64))
        to_color = translation_transform(0.0005, 0.0, -0.0008)
        depth = DepthImage(data)
        expected = reference_align(depth, depth_k, color_k, to_color)
        assert set(np.unique(expected)) == {1, 2, 699}
        out = align_depth_to_color(depth, depth_k, color_k, to_color)
        assert np.array_equal(out.data, expected)
        out = align_in_blocks(monkeypatch, 5, depth, depth_k, color_k, to_color)
        assert np.array_equal(out.data, expected)


@pytest.mark.parametrize("make", [
    RigidTransform.identity,
    lambda: DepthImage(np.zeros((2, 2), dtype=np.uint16)),
    lambda: FruitSpec("f", Point3(0.0, 0.0, 0.6), np.array([0.02, 0.02, 0.02])),
    lambda: QuadOccluder(np.array([[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float)),
], ids=["RigidTransform", "DepthImage", "FruitSpec", "QuadOccluder"])
def test_array_dataclasses_compare_by_identity(make):
    # two equal-valued instances with separate arrays
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.parametrize("distortion", [None, [0.1, 0, 0, 0, 0]], ids=["pinhole", "distorted"])
def test_intrinsics_compare_and_hash_by_value(distortion):
    def make(fx=60.0):
        return CameraIntrinsics(64, 48, fx, 60.0, 32.0, 24.0, distortion=distortion)

    a, b = make(), make()
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != make(fx=61.0)
