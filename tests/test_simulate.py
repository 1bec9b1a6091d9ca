import dataclasses
import math

import numpy as np
import pytest

from fruitgauge.errors import InvalidSpec
from fruitgauge.fileio import scene_from_dict, scene_to_dict
from fruitgauge.geometry import (
    CameraIntrinsics,
    Point3,
    RigCamera,
    RigidTransform,
    deproject,
    invert,
    apply,
)
from fruitgauge.maskops import Pixel, extreme_points
from fruitgauge.simulate import (
    CAMERA_HEIGHTS_M,
    RIG_TARGET,
    FruitSpec,
    NoiseSpec,
    QuadOccluder,
    SceneSpec,
    add_depth_noise,
    lab_scene,
    paper_rig,
    render_scene,
)
from fruitgauge.sizing import measure_fruit

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
        assert cap.masks["s0"].count < 0.6 * cap_clean.masks["s0"].count
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
        assert np.allclose(rig["middle"].cam_to_world.matrix, np.eye(4))

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
            cam.cam_to_world.validate(1e-9)


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
                cov = 1 - (mo.count if mo else 0) / mc.count
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
