import numpy as np
import pytest

from fruitgauge.errors import DegenerateCircle, EmptyMask, NoValidDepth, ZeroArea
from fruitgauge.geometry import CameraIntrinsics, DepthImage, Point3, distance
from fruitgauge.maskops import BinaryMask, extract_edges
from fruitgauge.sizing import FittedCircle, fill_ratio, fit_circle, measure_fruit

from test_maskops import disc_mask


def circle_samples(cu, cv, r, n, phase=0.0):
    th = phase + np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([cu + r * np.cos(th), cv + r * np.sin(th)])


def uniform_depth(w, h, mm, scale=0.001):
    return DepthImage(np.full((h, w), mm, dtype=np.uint16), scale)


class TestFitCircle:
    def test_circumscribed_three_points(self):
        c = fit_circle(np.array([[0, 1], [1, 0], [0, -1]]))
        assert abs(c.cu) <= 1e-9 and abs(c.cv) <= 1e-9 and abs(c.r_px - 1) <= 1e-9

    def test_exact_recovery_100_samples(self):
        c = fit_circle(circle_samples(30, 40, 25, 100))
        assert abs(c.cu - 30) <= 1e-6 and abs(c.cv - 40) <= 1e-6
        assert abs(c.r_px - 25) <= 1e-6

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateCircle):
            fit_circle(np.array([[0, 0], [1, 1], [2, 2]]))

    def test_too_few_points(self):
        with pytest.raises(DegenerateCircle):
            fit_circle(np.array([[0, 0], [1, 1]]))

    def test_exact_recovery_random_configurations(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            cu, cv = rng.uniform(-500, 500, size=2)
            r = rng.uniform(0.5, 100)
            n = int(rng.integers(3, 200))
            c = fit_circle(circle_samples(cu, cv, r, n, phase=rng.uniform(0, np.pi)))
            assert max(abs(c.cu - cu), abs(c.cv - cv), abs(c.r_px - r)) <= 1e-6

    def test_translation_equivariance(self):
        rng = np.random.default_rng(32)
        pts = circle_samples(10, 20, 7, 40) + rng.normal(0, 0.3, size=(40, 2))
        base = fit_circle(pts)
        for du, dv in ((13.5, -4.25), (-100, 250)):
            moved = fit_circle(pts + [du, dv])
            assert abs(moved.cu - base.cu - du) <= 1e-9
            assert abs(moved.cv - base.cv - dv) <= 1e-9
            assert abs(moved.r_px - base.r_px) <= 1e-9

    def test_accepts_edge_set(self):
        edges = extract_edges(disc_mask(64, 64, 32, 32, 10))
        c = fit_circle(edges)
        assert abs(c.cu - 32) < 0.5 and abs(c.cv - 32) < 0.5
        assert abs(c.r_px - 10) < 1.0


class TestFillRatio:
    def test_exact_disc(self):
        m = disc_mask(100, 100, 50, 50, 20)
        assert fill_ratio(m, FittedCircle(50, 50, 20)) >= 0.98

    def test_half_disc_against_full_outline(self):
        m = disc_mask(100, 100, 50, 50, 20)
        m.data[50:, :] = False  # keep the upper half
        got = fill_ratio(m, FittedCircle(50, 50, 20))
        assert got == pytest.approx(0.5, abs=0.03)

    def test_disjoint_is_zero(self):
        m = disc_mask(100, 100, 20, 20, 6)
        assert fill_ratio(m, FittedCircle(70, 70, 6)) == 0.0

    def test_circle_outside_image(self):
        m = disc_mask(32, 32, 16, 16, 4)
        with pytest.raises(ZeroArea):
            fill_ratio(m, FittedCircle(1000.0, 1000.0, 3.0))

    def test_monotone_under_pixel_removal(self, rng):
        m = disc_mask(64, 64, 32, 32, 12)
        circle = FittedCircle(32, 32, 12)
        previous = fill_ratio(m, circle)
        data = m.data.copy()
        inside = list(zip(*np.nonzero(data)))
        rng.shuffle(inside)
        for v, u in inside[:80]:
            data[v, u] = False
            current = fill_ratio(BinaryMask(data), circle)
            assert current <= previous + 1e-12
            previous = current


K600 = CameraIntrinsics(1280, 960, 6000.0, 6000.0, 640.0, 480.0)


class TestMeasureFruit:
    def test_height_from_anchored_extremes(self):
        # disc of radius 197 px at the principal point, uniform depth 0.6 m:
        # extremes deproject to (0, -/+19.7, 600) mm, height = 39.4 mm
        m = disc_mask(1280, 960, 640, 480, 197)
        meas = measure_fruit(m, uniform_depth(1280, 960, 600), K600)
        assert meas.height_mm == pytest.approx(39.4, abs=1e-9)
        assert meas.width_mm == pytest.approx(39.4, abs=1e-9)
        assert meas.median_depth_m == pytest.approx(0.6)

    def test_width_from_pythagorean_points(self):
        # 1-2-2 triple: |(1,2,2)| mm = 3 mm
        assert 1000 * distance(Point3(0, 0, 0), Point3(0.001, 0.002, 0.002)) \
            == pytest.approx(3.0, abs=1e-12)

    def test_all_edge_depths_zero(self):
        m = disc_mask(64, 64, 32, 32, 8)
        with pytest.raises(NoValidDepth):
            measure_fruit(m, DepthImage(np.zeros((64, 64), dtype=np.uint16)),
                          CameraIntrinsics(64, 64, 60.0, 60.0, 32.0, 32.0))

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            measure_fruit(BinaryMask(np.zeros((8, 8), dtype=bool)),
                          uniform_depth(8, 8, 500),
                          CameraIntrinsics(8, 8, 10.0, 10.0, 4.0, 4.0))

    def test_translation_invariance_at_constant_depth(self):
        depth = uniform_depth(1280, 960, 700)
        base = measure_fruit(disc_mask(1280, 960, 300, 300, 60), depth, K600)
        for cu, cv in ((500, 300), (900, 600), (320, 640)):
            moved = measure_fruit(disc_mask(1280, 960, cu, cv, 60), depth, K600)
            assert moved.height_mm == pytest.approx(base.height_mm, rel=0.005)
            assert moved.width_mm == pytest.approx(base.width_mm, rel=0.005)

    def test_size_scales_linearly_with_depth(self):
        m = disc_mask(1280, 960, 640, 480, 80)
        at_d = measure_fruit(m, uniform_depth(1280, 960, 600), K600)
        at_2d = measure_fruit(m, uniform_depth(1280, 960, 1200), K600)
        assert at_2d.height_mm == pytest.approx(2 * at_d.height_mm, rel=1e-12)
        assert at_2d.width_mm == pytest.approx(2 * at_d.width_mm, rel=1e-12)

    def test_circle_fit_consistent_with_width(self):
        # similar triangles: 2 * r_px * d / fx within 2% of the width
        m = disc_mask(1280, 960, 640, 480, 90)
        meas = measure_fruit(m, uniform_depth(1280, 960, 600), K600)
        similar = 2 * meas.circle.r_px * meas.median_depth_m / K600.fx * 1000
        assert similar == pytest.approx(meas.width_mm, rel=0.02)

    def test_bbox_extreme_mode(self):
        m = disc_mask(1280, 960, 640, 480, 100)
        a = measure_fruit(m, uniform_depth(1280, 960, 600), K600)
        b = measure_fruit(m, uniform_depth(1280, 960, 600), K600,
                          extreme_source="bbox")
        # a disc's bbox midpoints coincide with its mask extremes
        assert b.height_mm == pytest.approx(a.height_mm, abs=1e-9)

    def test_per_point_depth_mode(self):
        m = disc_mask(1280, 960, 640, 480, 100)
        depth = uniform_depth(1280, 960, 600)
        depth.data[380, 640] = 900  # top extreme pixel farther than the rest
        a = measure_fruit(m, depth, K600)
        b = measure_fruit(m, depth, K600, per_point_depth=True)
        assert a.height_mm != pytest.approx(b.height_mm)
        assert b.height_mm > a.height_mm
