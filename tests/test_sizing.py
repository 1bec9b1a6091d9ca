import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fruitgauge.errors import DegenerateCircle, EmptyMask, NoValidDepth, ZeroArea
from fruitgauge.geometry import CameraIntrinsics, DepthImage, Point3, distance
from fruitgauge.maskops import BinaryMask, extract_edges
from fruitgauge.sizing import COLLINEAR_TOL, FittedCircle, fill_ratio, fit_circle, measure_fruit

from test_maskops import disc, disc_mask, full, placed_masks


def circle_samples(cu, cv, r, n, phase=0.0):
    th = phase + np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([cu + r * np.cos(th), cv + r * np.sin(th)])


def uniform_depth(w, h, mm, scale=0.001):
    return DepthImage(np.full((h, w), mm, dtype=np.uint16), scale)


# Reference bodies of fit_circle and fill_ratio, written with column_stack and
# meshgrid; the kernels must give bit-identical results.

def ref_fit_circle(points) -> FittedCircle:
    pts = np.asarray(points).reshape(-1, 2).astype(float)
    if len(pts) < 3:
        raise DegenerateCircle(f"need at least 3 points, got {len(pts)}")
    centroid = pts.mean(axis=0)
    q = pts - centroid
    sv = np.linalg.svd(q, compute_uv=False)
    if sv[1] <= COLLINEAR_TOL * max(sv[0], 1.0):
        raise DegenerateCircle("points are collinear")
    a = np.column_stack([q[:, 0], q[:, 1], np.ones(len(q))])
    b = -(q[:, 0] ** 2 + q[:, 1] ** 2)
    (ca, cb, cc), *_ = np.linalg.lstsq(a, b, rcond=None)
    cu, cv = -ca / 2.0, -cb / 2.0
    r = float(np.sqrt(max(cu * cu + cv * cv - cc, 0.0)))
    return FittedCircle(float(cu + centroid[0]), float(cv + centroid[1]), r)


def ref_fill_ratio(mask: BinaryMask, circle: FittedCircle) -> float:
    u0 = max(int(np.floor(circle.cu - circle.r_px)), 0)
    u1 = min(int(np.ceil(circle.cu + circle.r_px)), mask.width - 1)
    v0 = max(int(np.floor(circle.cv - circle.r_px)), 0)
    v1 = min(int(np.ceil(circle.cv + circle.r_px)), mask.height - 1)
    if u0 > u1 or v0 > v1:
        raise ZeroArea("fitted circle covers no image pixels")
    uu, vv = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1))
    inside = (uu - circle.cu) ** 2 + (vv - circle.cv) ** 2 <= circle.r_px ** 2
    total = int(inside.sum())
    if total == 0:
        raise ZeroArea("fitted circle covers no image pixels")
    covered = int((inside & mask.window(u0, v0, u1 - u0 + 1, v1 - v0 + 1)).sum())
    return min(max(covered / total, 0.0), 1.0)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DegenerateCircle, ZeroArea) as e:
        return type(e)


@st.composite
def circles(draw, mask: BinaryMask):
    """A circle over the mask or anywhere near its frame (so also clipped by a
    border or off it), with a radius from sub-pixel to wider than the frame."""
    h, w = mask.frame
    ch, cw = mask.data.shape
    cu = draw(st.floats(mask.x0 - 2, mask.x0 + cw + 1) | st.floats(-8, w + 8))
    cv = draw(st.floats(mask.y0 - 2, mask.y0 + ch + 1) | st.floats(-8, h + 8))
    return FittedCircle(cu, cv, draw(st.floats(0.05, 0.7) | st.floats(0.7, 30)))


class TestAgainstReferenceKernels:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(placed_masks())
    @example(BinaryMask(disc(40, 40, 20.3, 19.6, 15.2)))
    @example(BinaryMask(disc(20, 30, -2.5, 10.25, 8.0)))
    @example(BinaryMask(np.eye(6, dtype=bool)))
    def test_fit_circle_on_edges(self, mask):
        edges = extract_edges(mask)
        assert outcome(fit_circle, edges) == outcome(ref_fit_circle, edges)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: arrays(
        float, (n, 2), elements=st.floats(-1e3, 1e3) | st.integers(-50, 50).map(float))))
    @example(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0]]))
    @example(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    def test_fit_circle_on_points(self, points):
        assert outcome(fit_circle, points) == outcome(ref_fit_circle, points)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(placed_masks().flatmap(lambda m: st.tuples(st.just(m), circles(m))))
    @example((BinaryMask(disc(30, 30, 14.5, 14.5, 10)), FittedCircle(14.5, 14.5, 10.0)))
    @example((BinaryMask(disc(30, 30, 0.0, 29.0, 6)), FittedCircle(0.0, 29.0, 6.0)))
    @example((BinaryMask(disc(9, 9, 4.0, 4.0, 2)), FittedCircle(4.2, 3.9, 0.3)))
    @example((BinaryMask(disc(9, 9, 4.0, 4.0, 2)), FittedCircle(4.5, 4.5, 0.4)))
    def test_fill_ratio(self, case):
        mask, circle = case
        assert outcome(fill_ratio, mask, circle) == outcome(ref_fill_ratio, mask, circle)


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
        data = full(disc_mask(100, 100, 50, 50, 20))
        data[50:, :] = False  # keep the upper half
        got = fill_ratio(BinaryMask(data), FittedCircle(50, 50, 20))
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
        data = full(m)
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
