import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fruitgauge import pipeline
from fruitgauge.errors import (
    DegenerateCircle,
    EmptyMask,
    FruitGaugeError,
    InvalidDepth,
    LengthMismatch,
    NoValidDepth,
    OutOfBounds,
    ZeroArea,
)
from fruitgauge.fileio import Detection, DetectionFile
from fruitgauge.geometry import (
    CameraIntrinsics,
    DepthImage,
    Pixel,
    Point3,
    RigCamera,
    apply,
    distance,
)
from fruitgauge.maskops import MAX_INVALID_EDGE_FRACTION, BinaryMask, extract_edges
from fruitgauge.sizing import COLLINEAR_TOL, ON_CIRCLE_TOL, fill_ratio, fit_circle, measure_fruit

from conftest import FittedCircle, deproject, random_rigid, record_dicts
from test_fuzz import FUZZ
from test_maskops import (
    disc,
    disc_mask,
    full,
    one_fill_ratio,
    placed_masks,
    ref_extract_edges,
    ref_extreme_points,
    ref_nearest_mask_depth,
)


def circle_samples(cu, cv, r, n, phase=0.0):
    th = phase + np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([cu + r * np.cos(th), cv + r * np.sin(th)])


def uniform_depth(w, h, mm, scale=0.001):
    return DepthImage(np.full((h, w), mm, dtype=np.uint16), scale)


def fit(points) -> FittedCircle:
    """fit_circle on one group of points, raising DegenerateCircle as measure_fruit rejects it."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:  # measure_fruit's groups are never empty
        raise DegenerateCircle("need at least 3 points, got 0")
    cu, cv, r, degenerate = fit_circle(pts, np.zeros(len(pts), dtype=np.int64), 1)
    if len(pts) < 3:
        raise DegenerateCircle(f"need at least 3 points, got {len(pts)}")
    if degenerate[0]:
        raise DegenerateCircle("points are collinear")
    return FittedCircle(float(cu[0]), float(cv[0]), float(r[0]))


def measure_one(mask: BinaryMask, depth: DepthImage, k: CameraIntrinsics) -> SimpleNamespace:
    """measure_fruit on one mask as floats and a circle; raises its rejection."""
    m = measure_fruit([mask], depth, k)
    if m.rejections[0] is not None:
        raise m.rejections[0]
    return SimpleNamespace(height_mm=float(m.height_mm[0]), width_mm=float(m.width_mm[0]),
                           median_depth_m=float(m.median_depth_m[0]),
                           fill_ratio=float(m.fill_ratio[0]),
                           circle=FittedCircle(*m.circle[0].tolist()))


# Reference bodies: the per-detection kernels that measure_fruit and the
# measure pipeline replaced, written with column_stack and meshgrid.

def ref_median_edge_depth(edges: np.ndarray, depth: DepthImage) -> float:
    if len(edges) == 0:
        raise NoValidDepth("edge set is empty")
    samples = depth.data[edges[:, 1], edges[:, 0]]
    valid = samples[samples > 0]
    if len(samples) - len(valid) > MAX_INVALID_EDGE_FRACTION * len(samples):
        raise NoValidDepth(
            f"{len(samples) - len(valid)}/{len(samples)} edge pixels have no depth"
        )
    if len(valid) == 0:
        raise NoValidDepth("no edge pixel has a depth sample")
    ordered = np.sort(valid)
    return float(ordered[(len(ordered) - 1) // 2]) * depth.depth_scale


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
    inside = ((uu - circle.cu) ** 2 + (vv - circle.cv) ** 2
              <= circle.r_px ** 2 * (1 + ON_CIRCLE_TOL))
    total = int(inside.sum())
    if total == 0:
        raise ZeroArea("fitted circle covers no image pixels")
    covered = int((inside & full(mask)[v0:v1 + 1, u0:u1 + 1]).sum())
    return min(max(covered / total, 0.0), 1.0)


def ref_measure_fruit(mask: BinaryMask, depth: DepthImage, k: CameraIntrinsics) -> SimpleNamespace:
    if mask.is_empty():
        raise EmptyMask("cannot measure an empty mask")
    edges = ref_extract_edges(mask)
    d = ref_median_edge_depth(edges, depth)
    top, bottom, left, right = (Pixel(int(u), int(v)) for u, v in ref_extreme_points(full(mask)))
    fitted = ref_fit_circle(edges)

    def size_mm(a, b):
        return 1000.0 * float(np.linalg.norm(deproject(k, a, d).to_array()
                                             - deproject(k, b, d).to_array()))

    return SimpleNamespace(height_mm=size_mm(top, bottom), width_mm=size_mm(left, right),
                           median_depth_m=d, circle=fitted,
                           fill_ratio=ref_fill_ratio(mask, fitted))


def ref_check_detection(det: Detection, depth: DepthImage, k: CameraIntrinsics) -> None:
    """Raises the rejection of a detection whose mask cannot be measured at all."""
    if det.mask.frame != (k.height, k.width) or depth.data.shape != (k.height, k.width):
        raise LengthMismatch(f"mask {det.mask.frame} or depth {depth.data.shape} "
                             f"differs from the {k.height}x{k.width} image")
    x, y, w, h = det.bbox
    if not det.mask.is_empty():
        mx, my, mw, mh = det.mask.bbox()
        if not (x <= mx and y <= my and mx + mw <= x + w and my + mh <= y + h):
            raise OutOfBounds(f"mask has pixels outside its bbox {list(det.bbox)}")
    if det.mask.is_empty():
        raise EmptyMask("cannot measure an empty mask")


def ref_measure_detection(det: Detection, index: int, frame_id: str, depth: DepthImage,
                          cam: RigCamera) -> dict:
    """One detection's ``records.json`` object, from the reference chain:
    checks, measurement, front depth, metric radius and localization; raises
    its rejection."""
    k = cam.intrinsics
    ref_check_detection(det, depth, k)
    x, y, w, h = det.bbox
    m = ref_measure_fruit(det.mask, depth, k)
    center_px = Pixel(x + (w - 1) / 2.0, y + (h - 1) / 2.0)
    front_depth = ref_nearest_mask_depth(full(det.mask), depth, Pixel(x + w // 2, y + h // 2))
    if front_depth <= 0:
        raise InvalidDepth(f"depth must be positive, got {front_depth}")
    radius_m = m.circle.r_px * front_depth / k.fx
    p = deproject(k, center_px, front_depth).to_array()
    norm = float(np.linalg.norm(p))
    p = p * (norm + radius_m) / norm
    return {"frame_id": frame_id, "camera_id": cam.camera_id, "detection_index": index,
            "class": det.class_name, "fruit_id": det.fruit_id, "height_mm": m.height_mm,
            "width_mm": m.width_mm, "median_depth_m": m.median_depth_m,
            "fill_ratio": m.fill_ratio, "circle": vars(m.circle),
            "bbox": [int(b) for b in det.bbox], "center_depth_m": front_depth,
            "radius_m": radius_m,
            "center_world_m": list(apply(cam.cam_to_world, Point3.from_array(p)))}


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DegenerateCircle, ZeroArea) as e:
        return type(e)


def close(a, b, scale=None, rel=1e-12) -> bool:
    """Whether ``a`` and ``b`` agree to ``rel`` relative to ``scale`` (default their size)."""
    scale = max(abs(a), abs(b)) if scale is None else scale
    return abs(a - b) <= rel * scale


def same_circle(a: FittedCircle, b: FittedCircle, rel=1e-12) -> bool:
    """Equal to ``rel``, relative to the larger of the circle's size and 1 px."""
    scale = max(abs(a.cu), abs(a.cv), a.r_px, 1.0)
    return all(close(x, y, scale, rel) for x, y in zip((a.cu, a.cv, a.r_px),
                                                        (b.cu, b.cv, b.r_px)))


def same_outcome(got, want, rel=1e-12) -> bool:
    if isinstance(got, FittedCircle) and isinstance(want, FittedCircle):
        return same_circle(got, want, rel)
    return got == want


WELL_CONDITIONED = 1e6


def kind(outcome):
    """A fitted circle's class, or the class of the exception its fit raised."""
    return outcome if isinstance(outcome, type) else type(outcome)


def condition(points) -> float:
    """The condition number of the centered points' scatter matrix."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        return math.inf
    sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return float((sv[0] / sv[1]) ** 2) if sv[1] > 0 else math.inf


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
        assert same_outcome(outcome(fit, edges), outcome(ref_fit_circle, edges))

    # The two solves differ by rounding amplified by the condition number of
    # the points' scatter matrix: up to WELL_CONDITIONED their circles agree
    # to 1e-12, and beyond it they still agree on whether there is a circle.
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: arrays(
        float, (n, 2), elements=st.floats(-1e3, 1e3) | st.integers(-50, 50).map(float))))
    @example(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0]]))
    @example(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    def test_fit_circle_on_points(self, points):
        got, want = outcome(fit, points), outcome(ref_fit_circle, points)
        if condition(points) <= WELL_CONDITIONED:
            assert same_outcome(got, want)
        else:
            assert kind(got) == kind(want)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(placed_masks().filter(lambda m: not m.is_empty())
           .flatmap(lambda m: st.tuples(st.just(m), circles(m))))
    @example((BinaryMask(disc(30, 30, 14.5, 14.5, 10)), FittedCircle(14.5, 14.5, 10.0)))
    @example((BinaryMask(disc(30, 30, 0.0, 29.0, 6)), FittedCircle(0.0, 29.0, 6.0)))
    @example((BinaryMask(disc(9, 9, 4.0, 4.0, 2)), FittedCircle(4.2, 3.9, 0.3)))
    @example((BinaryMask(disc(9, 9, 4.0, 4.0, 2)), FittedCircle(4.5, 4.5, 0.4)))
    def test_fill_ratio(self, case):
        mask, circle = case
        assert outcome(one_fill_ratio, mask, circle) == outcome(ref_fill_ratio, mask, circle)


class TestFitCircle:
    def test_circumscribed_three_points(self):
        c = fit(np.array([[0, 1], [1, 0], [0, -1]]))
        assert abs(c.cu) <= 1e-9 and abs(c.cv) <= 1e-9 and abs(c.r_px - 1) <= 1e-9

    def test_exact_recovery_100_samples(self):
        c = fit(circle_samples(30, 40, 25, 100))
        assert abs(c.cu - 30) <= 1e-6 and abs(c.cv - 40) <= 1e-6
        assert abs(c.r_px - 25) <= 1e-6

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateCircle):
            fit(np.array([[0, 0], [1, 1], [2, 2]]))

    def test_too_few_points(self):
        with pytest.raises(DegenerateCircle):
            fit(np.array([[0, 0], [1, 1]]))

    def test_exact_recovery_random_configurations(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            cu, cv = rng.uniform(-500, 500, size=2)
            r = rng.uniform(0.5, 100)
            n = int(rng.integers(3, 200))
            c = fit(circle_samples(cu, cv, r, n, phase=rng.uniform(0, np.pi)))
            assert max(abs(c.cu - cu), abs(c.cv - cv), abs(c.r_px - r)) <= 1e-6

    def test_translation_equivariance(self):
        rng = np.random.default_rng(32)
        pts = circle_samples(10, 20, 7, 40) + rng.normal(0, 0.3, size=(40, 2))
        base = fit(pts)
        for du, dv in ((13.5, -4.25), (-100, 250)):
            moved = fit(pts + [du, dv])
            assert abs(moved.cu - base.cu - du) <= 1e-9
            assert abs(moved.cv - base.cv - dv) <= 1e-9
            assert abs(moved.r_px - base.r_px) <= 1e-9

    def test_accepts_edge_set(self):
        edges = extract_edges(disc_mask(64, 64, 32, 32, 10))
        c = fit(edges)
        assert abs(c.cu - 32) < 0.5 and abs(c.cv - 32) < 0.5
        assert abs(c.r_px - 10) < 1.0


class TestFillRatio:
    def test_exact_disc(self):
        m = disc_mask(100, 100, 50, 50, 20)
        assert one_fill_ratio(m, FittedCircle(50, 50, 20)) >= 0.98

    def test_half_disc_against_full_outline(self):
        data = full(disc_mask(100, 100, 50, 50, 20))
        data[50:, :] = False  # keep the upper half
        got = one_fill_ratio(BinaryMask(data), FittedCircle(50, 50, 20))
        assert got == pytest.approx(0.5, abs=0.03)

    def test_disjoint_is_zero(self):
        m = disc_mask(100, 100, 20, 20, 6)
        assert one_fill_ratio(m, FittedCircle(70, 70, 6)) == 0.0

    def test_circle_outside_image(self):
        m = disc_mask(32, 32, 16, 16, 4)
        with pytest.raises(ZeroArea):
            one_fill_ratio(m, FittedCircle(1000.0, 1000.0, 3.0))

    def test_monotone_under_pixel_removal(self, rng):
        m = disc_mask(64, 64, 32, 32, 12)
        circle = FittedCircle(32, 32, 12)
        previous = one_fill_ratio(m, circle)
        data = full(m)
        inside = list(zip(*np.nonzero(data)))
        rng.shuffle(inside)
        for v, u in inside[:80]:
            data[v, u] = False
            current = one_fill_ratio(BinaryMask(data), circle)
            assert current <= previous + 1e-12
            previous = current


K600 = CameraIntrinsics(1280, 960, 6000.0, 6000.0, 640.0, 480.0)


class TestMeasureFruit:
    def test_height_from_anchored_extremes(self):
        # disc of radius 197 px at the principal point, uniform depth 0.6 m:
        # extremes deproject to (0, -/+19.7, 600) mm, height = 39.4 mm
        m = disc_mask(1280, 960, 640, 480, 197)
        meas = measure_one(m, uniform_depth(1280, 960, 600), K600)
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
            measure_one(m, DepthImage(np.zeros((64, 64), dtype=np.uint16)),
                          CameraIntrinsics(64, 64, 60.0, 60.0, 32.0, 32.0))

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            measure_one(BinaryMask(np.zeros((8, 8), dtype=bool)),
                          uniform_depth(8, 8, 500),
                          CameraIntrinsics(8, 8, 10.0, 10.0, 4.0, 4.0))

    def test_translation_invariance_at_constant_depth(self):
        depth = uniform_depth(1280, 960, 700)
        base = measure_one(disc_mask(1280, 960, 300, 300, 60), depth, K600)
        for cu, cv in ((500, 300), (900, 600), (320, 640)):
            moved = measure_one(disc_mask(1280, 960, cu, cv, 60), depth, K600)
            assert moved.height_mm == pytest.approx(base.height_mm, rel=0.005)
            assert moved.width_mm == pytest.approx(base.width_mm, rel=0.005)

    def test_size_scales_linearly_with_depth(self):
        m = disc_mask(1280, 960, 640, 480, 80)
        at_d = measure_one(m, uniform_depth(1280, 960, 600), K600)
        at_2d = measure_one(m, uniform_depth(1280, 960, 1200), K600)
        assert at_2d.height_mm == pytest.approx(2 * at_d.height_mm, rel=1e-12)
        assert at_2d.width_mm == pytest.approx(2 * at_d.width_mm, rel=1e-12)

    def test_circle_fit_consistent_with_width(self):
        # similar triangles: 2 * r_px * d / fx within 2% of the width
        m = disc_mask(1280, 960, 640, 480, 90)
        meas = measure_one(m, uniform_depth(1280, 960, 600), K600)
        similar = 2 * meas.circle.r_px * meas.median_depth_m / K600.fx * 1000
        assert similar == pytest.approx(meas.width_mm, rel=0.02)


@st.composite
def frames(draw):
    """A frame of 1-8 non-empty masks, its depth and its camera. A mask is one
    pixel, two pixels wide or high, a one-pixel line, a disc or a random
    pattern, flush with a frame border or inside; depth is sampled on all of a
    mask, on part of it or on none of it. The camera may have distortion."""
    h, w = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masks = []
    for _ in range(draw(st.integers(1, 8))):
        ch, cw = draw(st.integers(1, h)), draw(st.integers(1, w))
        kind = draw(st.sampled_from(["pixel", "two-wide", "two-high", "line", "disc", "random"]))
        if kind == "pixel":
            crop = np.ones((1, 1), dtype=bool)
        elif kind == "two-wide":
            crop = rng.random((ch, min(cw, 2))) < 0.8
        elif kind == "two-high":
            crop = rng.random((min(ch, 2), cw)) < 0.8
        elif kind == "line":
            crop = np.eye(ch, cw, draw(st.integers(1 - ch, cw - 1)), dtype=bool)
            crop = crop[::-1] if draw(st.booleans()) else crop
        elif kind == "disc":
            crop = disc(ch, cw, draw(st.floats(-2, cw + 1)), draw(st.floats(-2, ch + 1)),
                        draw(st.floats(0.3, 20)))
        else:
            crop = rng.random((ch, cw)) < draw(st.sampled_from([0.3, 0.7, 0.95]))
        ch, cw = crop.shape
        x0 = draw(st.sampled_from([0, w - cw]) | st.integers(0, w - cw))
        y0 = draw(st.sampled_from([0, h - ch]) | st.integers(0, h - ch))
        mask = BinaryMask(crop, x0, y0, (h, w))
        if not mask.is_empty():
            masks.append(mask)
    masks = masks or [BinaryMask(np.ones((1, 1), dtype=bool), 0, 0, (h, w))]
    data = rng.integers(300, 2000, size=(h, w)).astype(np.uint16)
    data[rng.random((h, w)) < draw(st.sampled_from([0.0, 0.05, 0.3]))] = 0
    for mask in masks:
        unsampled = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
        data[full(mask) & (rng.random((h, w)) < unsampled)] = 0
    k = CameraIntrinsics(w, h, draw(st.floats(20, 2000)), draw(st.floats(20, 2000)),
                         draw(st.floats(0, w - 1)), draw(st.floats(0, h - 1)),
                         draw(st.none() | st.tuples(*[st.floats(-0.1, 0.1)] * 5)))
    return masks, DepthImage(data, 0.001), k, rng


def rejection(fn, *args):
    try:
        return fn(*args)
    except FruitGaugeError as e:
        return e


def same_rejection(got, want) -> bool:
    return type(got) is type(want) and str(got) == str(want)


def tie(rows, cols, crop, x0, y0):
    """A frame holding one mask whose pixel centers lie on the circle through
    its edge pixels, as in a three-pixel L: whether such a center counts as
    inside the fitted circle must not hang on the circle's last bits."""
    depth = uniform_depth(cols, rows, 500)
    k = CameraIntrinsics(cols, rows, 100.0, 100.0, cols / 2, rows / 2)
    return [BinaryMask(np.array(crop, dtype=bool), x0, y0, (rows, cols))], depth, k, None


class TestBatchedKernel:
    """measure_fruit and the measure pipeline's frame step against the
    per-detection references: exact sizes, depths, fill ratios and
    rejections; circles, radii and centers to 1e-12. Both count a pixel
    center within ``ON_CIRCLE_TOL`` of the circle as inside, so the fill
    ratio and its ZeroArea check agree although the circles differ in their
    last bits."""

    @FUZZ
    @given(frames())
    @example(tie(10, 2, [[1, 1], [0, 1]], 0, 8))
    @example(tie(2, 2, [[1, 1], [1, 0]], 0, 0))
    @example(tie(720, 1280, [[0, 1], [1, 1]], 1278, 718))
    def test_measure_fruit_matches_references(self, frame):
        masks, depth, k, _ = frame
        m = measure_fruit(masks, depth, k)
        assert len(m.rejections) == len(masks)
        for i, mask in enumerate(masks):
            want = rejection(ref_measure_fruit, mask, depth, k)
            if isinstance(want, FruitGaugeError):
                assert same_rejection(m.rejections[i], want), (i, m.rejections[i], want)
                continue
            assert m.rejections[i] is None
            got = (m.height_mm[i], m.width_mm[i], m.median_depth_m[i], m.fill_ratio[i])
            assert got == (want.height_mm, want.width_mm, want.median_depth_m, want.fill_ratio)
            assert same_circle(FittedCircle(*m.circle[i].tolist()), want.circle)

    def test_a_frame_wide_circle_leaves_the_other_windows_small(self):
        """A slightly bent line fits a circle far wider than the frame, whose
        window spans the frame's width; the many small discs beside it are
        each counted over their own window, so the fill ratio's memory stays
        within two frame-sized float arrays."""
        h, w = 200, 300
        u = np.arange(w)
        arc = np.zeros((h, w), dtype=bool)
        arc[np.round(100 + (u - 150) ** 2 / 20000).astype(int), u] = True
        rng = np.random.default_rng(5)
        masks = [BinaryMask(arc)] + [
            BinaryMask(disc(h, w, *rng.uniform(10, [w - 10, h - 10]), 3.0)) for _ in range(200)]
        depth, k = uniform_depth(w, h, 600), CameraIntrinsics(w, h, 300.0, 300.0, 150.0, 100.0)
        m = measure_fruit(masks, depth, k)
        assert m.circle[0, 2] > 10 * w and m.rejections == [None] * len(masks)
        assert m.fill_ratio.tolist() == [ref_measure_fruit(mask, depth, k).fill_ratio
                                         for mask in masks]
        tracemalloc.start()
        try:
            fill_ratio(masks, m.circle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * h * w

    @FUZZ
    @given(frames(), st.data())
    def test_measure_frame_matches_reference_chain(self, frame, data):
        masks, depth, k, rng = frame
        h, w = depth.data.shape
        detections = []
        for mask in masks:
            x, y, bw, bh = mask.bbox()
            kind = data.draw(st.sampled_from(["tight", "grown", "shrunk", "empty", "frame"]))
            if kind == "grown":   # its center may leave the image
                dx, dy = data.draw(st.integers(0, 2 * w)), data.draw(st.integers(0, 2 * h))
                x, y, bw, bh = x - dx, y - dy, bw + dx + data.draw(st.integers(0, 2 * w)), \
                    bh + dy + data.draw(st.integers(0, 2 * h))
            elif kind == "shrunk":
                x, bw = x + 1, bw - 1
            elif kind == "empty":
                mask = BinaryMask(np.zeros((h, w), dtype=bool))
            elif kind == "frame":
                mask = BinaryMask(mask.data, mask.x0, mask.y0, (h + 1, w))
            detections.append(Detection("fruit", 1.0, (x, y, bw, bh), mask, kind))
        cam = RigCamera("cam", k, random_rigid(rng))
        records, warnings = pipeline._measure_frame(DetectionFile("f0", "cam", detections),
                                                    depth, cam)
        want_records, want_warnings = [], []
        for i, det in enumerate(detections):
            want = rejection(ref_measure_detection, det, i, "f0", depth, cam)
            if isinstance(want, FruitGaugeError):
                want_warnings.append({"frame_id": "f0", "camera_id": "cam",
                                      "detection_index": i, "reason": type(want).__name__,
                                      "message": str(want)})
            else:
                want_records.append(want)
        assert warnings == want_warnings
        assert len(records) == len(want_records)
        inexact = ("circle", "radius_m", "center_world_m")
        for got, want in zip(record_dicts(records), want_records):
            assert {key: got[key] for key in got if key not in inexact} == \
                {key: want[key] for key in want if key not in inexact}
            assert list(got) == list(want)
            assert same_circle(FittedCircle(**got["circle"]), FittedCircle(**want["circle"]))
            assert close(got["radius_m"], want["radius_m"])
            assert distance(got["center_world_m"], want["center_world_m"]) \
                <= 1e-12 * np.linalg.norm(want["center_world_m"])
