import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fruitgauge.errors import EmptyMask, LengthMismatch, NoValidDepth, ZeroArea
from fruitgauge.geometry import DepthImage, Pixel
from fruitgauge.maskops import (
    BinaryMask,
    decode_rle,
    encode_rle,
    extract_edges,
    extreme_points,
    median_edge_depth,
    nearest_mask_depth,
)
from fruitgauge.sizing import FittedCircle, fill_ratio


def full(mask: BinaryMask) -> np.ndarray:
    """The mask as a full-frame (height, width) bool array."""
    out = np.zeros((mask.height, mask.width), dtype=bool)
    h, w = mask.data.shape
    out[mask.y0:mask.y0 + h, mask.x0:mask.x0 + w] = mask.data
    return out


def disc(h, w, cu, cv, r) -> np.ndarray:
    """Pixels of an (h, w) frame whose centers lie within r of (cu, cv)."""
    uu, vv = np.meshgrid(np.arange(w), np.arange(h))
    return (uu - cu) ** 2 + (vv - cv) ** 2 <= r * r


def disc_mask(w, h, cu, cv, r):
    return BinaryMask(disc(h, w, cu, cv, r))


# Laplacian-style edge kernel: positive response on mask pixels with at
# least one background 8-neighbor (image border counts as background).
EDGE_KERNEL = np.array([[-1, -1, -1], [-1, 8, -1], [-1, -1, -1]], dtype=np.int32)


def edge_set(edges: np.ndarray) -> set:
    """The edge pixels as a set of (u, v) int pairs."""
    return {(int(u), int(v)) for u, v in edges}


def edge_oracle(mask: BinaryMask) -> set:
    """Direct convolution with the 3x3 kernel over the zero-padded mask."""
    m = full(mask).astype(np.int32)
    padded = np.pad(m, 1)
    out = set()
    for v in range(mask.height):
        for u in range(mask.width):
            response = int((padded[v:v + 3, u:u + 3] * EDGE_KERNEL[::-1, ::-1]).sum())
            if m[v, u] and response > 0:
                out.add((u, v))
    return out


def depth_from_map(values: dict, w=64, h=64, scale=0.001) -> DepthImage:
    data = np.zeros((h, w), dtype=np.uint16)
    for (u, v), mm in values.items():
        data[v, u] = mm
    return DepthImage(data, scale)


# Full-frame reference implementations: every mask operation must give the
# same result on the crop layout as these give on the whole frame.

def ref_encode(m: np.ndarray) -> dict:
    flat = m.reshape(-1)
    if len(flat) == 0:
        return {"size": list(m.shape), "counts": []}
    change = np.nonzero(flat[1:] != flat[:-1])[0] + 1
    counts = (np.concatenate([change, [len(flat)]]) - np.concatenate([[0], change])).tolist()
    return {"size": list(m.shape), "counts": [0] + counts if flat[0] else counts}


def ref_decode(counts, size) -> np.ndarray:
    return np.repeat(np.arange(len(counts)) % 2 == 1, counts).reshape(size)


def ref_bbox(m: np.ndarray):
    vs, us = np.nonzero(m)
    return (int(us.min()), int(vs.min()),
            int(us.max() - us.min() + 1), int(vs.max() - vs.min() + 1))


def ref_extreme_points(m: np.ndarray):
    vs, us = np.nonzero(m)  # sorted by (v, u)
    by_u = np.lexsort((vs, us))
    return ((us[0], vs[0]), (us[-1], vs[-1]),
            (us[by_u[0]], vs[by_u[0]]), (us[by_u[-1]], vs[by_u[-1]]))


def ref_fill_ratio(m: np.ndarray, c: FittedCircle) -> float:
    h, w = m.shape
    u0, u1 = max(int(np.floor(c.cu - c.r_px)), 0), min(int(np.ceil(c.cu + c.r_px)), w - 1)
    v0, v1 = max(int(np.floor(c.cv - c.r_px)), 0), min(int(np.ceil(c.cv + c.r_px)), h - 1)
    if u0 > u1 or v0 > v1:
        raise ZeroArea("no pixels")
    uu, vv = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1))
    inside = (uu - c.cu) ** 2 + (vv - c.cv) ** 2 <= c.r_px ** 2
    if not inside.any():
        raise ZeroArea("no pixels")
    return int((inside & m[v0:v1 + 1, u0:u1 + 1]).sum()) / int(inside.sum())


def ref_nearest_mask_depth(m: np.ndarray, depth: DepthImage, px: Pixel) -> float:
    vs, us = np.nonzero(m & (depth.data > 0))
    if len(us) == 0:
        raise NoValidDepth("none")
    i = int(np.argmin((us - px.u) ** 2 + (vs - px.v) ** 2))
    return float(depth.data[vs[i], us[i]]) * depth.depth_scale


def ref_extract_edges(mask: BinaryMask) -> np.ndarray:
    """The edge pixels as extract_edges found them before the separable
    erosion: eight shifted uint8 adds over the np.pad'ded crop, then a
    (v, u) lexsort."""
    if mask.is_empty():
        return np.empty((0, 2), dtype=np.int64)
    win = mask.data
    h, w = win.shape
    padded = np.pad(win, 1, mode="constant", constant_values=False)
    neighbors = np.zeros(win.shape, dtype=np.uint8)
    for dv in (-1, 0, 1):
        for du in (-1, 0, 1):
            if dv == 0 and du == 0:
                continue
            neighbors += padded[1 + dv:1 + dv + h, 1 + du:1 + du + w]
    edge = win & (neighbors < 8)
    vs, us = np.nonzero(edge)
    p = np.column_stack([us + mask.x0, vs + mask.y0]).astype(np.int64)
    return p[np.lexsort((p[:, 0], p[:, 1]))]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (EmptyMask, NoValidDepth, ZeroArea) as e:
        return type(e)


@st.composite
def frames(draw):
    """A random frame and mask: empty, single pixels, border-touching blobs."""
    h, w = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    return draw(arrays(bool, (h, w)))


@st.composite
def placed_masks(draw):
    """A mask whose crop is a random pattern, a 1-pixel line, a block or disc
    with holes, or a disc clipped by the frame or of sub-pixel radius; the
    crop sits flush with a frame border or at an offset inside the frame."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    ch, cw = draw(st.integers(1, h)), draw(st.integers(1, w))
    x0 = draw(st.sampled_from([0, w - cw]) | st.integers(0, w - cw))
    y0 = draw(st.sampled_from([0, h - ch]) | st.integers(0, h - ch))
    kind = draw(st.sampled_from(["random", "line", "holes", "disc"]))
    if kind == "random":
        crop = draw(arrays(bool, (ch, cw)))
    elif kind == "line":
        crop = np.zeros((ch, cw), dtype=bool)
        line = draw(st.sampled_from(["row", "column", "diagonal", "anti-diagonal"]))
        if line == "row":
            crop[draw(st.integers(0, ch - 1))] = True
        elif line == "column":
            crop[:, draw(st.integers(0, cw - 1))] = True
        else:
            crop = np.eye(ch, cw, draw(st.integers(1 - ch, cw - 1)), dtype=bool)
            crop = crop[::-1] if line == "anti-diagonal" else crop
    else:
        crop = (np.ones((ch, cw), dtype=bool) if kind == "holes" else
                disc(ch, cw, draw(st.floats(-3, cw + 2)), draw(st.floats(-3, ch + 2)),
                     draw(st.floats(0.3, 12))))
        for v, u in draw(st.lists(st.tuples(st.integers(0, ch - 1), st.integers(0, cw - 1)),
                                  max_size=6 if kind == "holes" else 2)):
            crop[v, u] = False
    return BinaryMask(crop, x0, y0, (h, w))


def pixel(h, w, v, u):
    m = np.zeros((h, w), dtype=bool)
    m[v, u] = True
    return m


class TestCropLayoutMatchesFullFrame:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(frames(), st.data())
    @example(np.zeros((0, 0), dtype=bool), None)
    @example(np.zeros((0, 7), dtype=bool), None)
    @example(np.zeros((5, 4), dtype=bool), None)
    @example(np.ones((5, 4), dtype=bool), None)
    @example(pixel(1, 1, 0, 0), None)
    @example(pixel(6, 9, 0, 0), None)
    @example(pixel(6, 9, 5, 8), None)
    @example(pixel(6, 9, 0, 8), None)
    @example(pixel(6, 9, 5, 0), None)
    @example(pixel(6, 9, 3, 4), None)
    @example(np.eye(6, 9, dtype=bool), None)
    @example(np.eye(6, 9, 3, dtype=bool)[::-1], None)
    def test_every_operation(self, m, data):
        h, w = m.shape
        mask = BinaryMask(m)
        assert mask.frame == (h, w) and np.array_equal(full(mask), m)
        assert np.count_nonzero(mask.data) == int(m.sum()) and mask.is_empty() == (not m.any())

        rle = encode_rle(mask)
        assert rle == ref_encode(m)
        assert (rle["counts"] == []) == (h * w == 0)
        decoded = decode_rle(rle["counts"], rle["size"])
        assert decoded.frame == (h, w) and np.array_equal(full(decoded), m)
        assert (decoded.x0, decoded.y0) == (mask.x0, mask.y0)
        assert np.array_equal(ref_decode(rle["counts"], (h, w)), m)

        assert outcome(BinaryMask.bbox, mask) == (ref_bbox(m) if m.any() else EmptyMask)
        if m.any():
            x, y, bw, bh = mask.bbox()
            assert mask.data.size == bw * bh
            assert (mask.x0, mask.y0) == (x, y)
            ext = extreme_points(mask)
            assert [tuple(p) for p in ext] == [tuple(int(c) for c in p)
                                              for p in ref_extreme_points(m)]
        else:
            assert outcome(extreme_points, mask) is EmptyMask
        assert edge_set(extract_edges(mask)) == edge_oracle(mask)

        if h == 0 or w == 0 or data is None:
            return
        circle = FittedCircle(data.draw(st.floats(-3, w + 3)), data.draw(st.floats(-3, h + 3)),
                              data.draw(st.floats(0.3, 8)))
        assert outcome(fill_ratio, mask, circle) == outcome(ref_fill_ratio, m, circle)

        depth = DepthImage(data.draw(arrays(np.uint16, (h, w), elements=st.integers(0, 3))))
        px = Pixel(data.draw(st.floats(0, w - 1)), data.draw(st.floats(0, h - 1)))
        assert (outcome(nearest_mask_depth, mask, depth, px)
                == outcome(ref_nearest_mask_depth, m, depth, px))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(frames(), st.data())
    def test_window_construction_matches(self, m, data):
        """A mask built from any window of its frame equals the full-frame one."""
        h, w = m.shape
        x0, y0 = data.draw(st.integers(0, w)), data.draw(st.integers(0, h))
        x1, y1 = data.draw(st.integers(x0, w)), data.draw(st.integers(y0, h))
        inside = np.zeros_like(m)
        inside[y0:y1, x0:x1] = m[y0:y1, x0:x1]
        mask = BinaryMask(m[y0:y1, x0:x1], x0, y0, (h, w))
        assert mask.frame == (h, w) and np.array_equal(full(mask), inside)
        assert encode_rle(mask) == ref_encode(inside)

    def test_window_outside_its_frame_rejected(self):
        with pytest.raises(LengthMismatch):
            BinaryMask(np.ones((3, 3), bool), 2, 0, (3, 4))


class TestMaskEquality:
    def test_equal_masks_compare_and_hash_equal(self):
        a, b = BinaryMask(np.eye(3, dtype=bool)), BinaryMask(np.eye(3, dtype=bool))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    def test_window_and_full_frame_construction_are_equal(self):
        m = np.zeros((6, 9), dtype=bool)
        m[2:4, 3:7] = True
        window = BinaryMask(m[1:5, 2:8], 2, 1, (6, 9))
        assert window == BinaryMask(m) and hash(window) == hash(BinaryMask(m))

    @pytest.mark.parametrize("other", [
        BinaryMask(np.eye(3, dtype=bool), 1, 0, (4, 4)),   # same crop, other offset
        BinaryMask(np.eye(3, dtype=bool), 0, 0, (4, 4)),   # same crop, other frame
        BinaryMask(np.eye(3, dtype=bool)[::-1]),            # same box, other pixels
        BinaryMask(np.ones((3, 3), dtype=bool)),
        BinaryMask(np.zeros((3, 3), dtype=bool)),
        None,
    ])
    def test_differing_masks_are_unequal(self, other):
        assert BinaryMask(np.eye(3, dtype=bool)) != other


class TestRLE:
    def test_all_background(self):
        m = decode_rle([4], (2, 2))
        assert m.is_empty() and m.width == 2 and m.height == 2

    def test_hand_unrolled_runs(self):
        # [1,2,1]: one zero, two ones, one zero in row-major order
        m = full(decode_rle([1, 2, 1], (2, 2)))
        assert m[0, 1] and m[1, 0]
        assert not m[0, 0] and not m[1, 1]

    def test_sum_mismatch(self):
        with pytest.raises(LengthMismatch):
            decode_rle([3], (2, 2))

    def test_negative_count(self):
        with pytest.raises(LengthMismatch):
            decode_rle([-1, 5], (2, 2))

    @pytest.mark.parametrize("counts,size", [
        ([6], (2, 3.5)), ([6], ("2", "3")), ([6], (2, 3, 1)), ([6], (2,)), ([5], (-1, -5)),
        ([6], None), ([6.0], (2, 3)), (["6"], (2, 3)), ([True, 5], (2, 3)), (6, (2, 3)),
        ([1, True, 4], (2, 3)), ([0, False, 6], (2, 3)), ([2.0, 4], (2, 3)),
        ([2, 1.5, 2.5], (2, 3)), ([8, -2], (2, 3)), ([-1, 7], (2, 3)),
        ([np.int64(6)], (2, 3)), ([1, np.int64(5)], (2, 3)), ([np.int32(6)], (2, 3)),
    ])
    def test_malformed_input_rejected(self, counts, size):
        with pytest.raises(LengthMismatch):
            decode_rle(counts, size)

    def test_roundtrip_random_masks(self, rng):
        for _ in range(200):
            h, w = rng.integers(1, 24, size=2)
            m = BinaryMask(rng.random((h, w)) < rng.uniform(0, 1))
            rle = encode_rle(m)
            assert np.array_equal(full(decode_rle(rle["counts"], rle["size"])), full(m))
            # canonical form survives a decode/encode cycle
            assert encode_rle(decode_rle(rle["counts"], rle["size"])) == rle

    def test_leading_foreground_gets_zero_count(self):
        m = BinaryMask(np.ones((2, 2), dtype=bool))
        assert encode_rle(m)["counts"] == [0, 4]


class TestExtractEdges:
    def test_single_pixel_is_edge(self):
        data = np.zeros((5, 5), dtype=bool)
        data[2, 3] = True
        assert edge_set(extract_edges(BinaryMask(data))) == {(3, 2)}

    def test_solid_3x3_block(self):
        data = np.zeros((7, 7), dtype=bool)
        data[2:5, 2:5] = True
        m = BinaryMask(data)
        edges = edge_set(extract_edges(m))
        assert edges == edge_oracle(m)
        assert (3, 3) not in edges  # center has response 8 - 8 = 0
        assert len(edges) == 8

    def test_empty_mask(self):
        assert len(extract_edges(BinaryMask(np.zeros((4, 4), dtype=bool)))) == 0

    def test_border_pixels_are_edges(self):
        # mask flush against the image border: border counts as background
        m = BinaryMask(np.ones((3, 3), dtype=bool))
        assert edge_set(extract_edges(m)) == edge_oracle(m)
        assert (0, 0) in edge_set(extract_edges(m))

    def test_matches_convolution_oracle_on_random_masks(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            h, w = rng.integers(1, 16, size=2)
            m = BinaryMask(rng.random((h, w)) < rng.uniform(0.2, 0.9))
            assert edge_set(extract_edges(m)) == edge_oracle(m)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(placed_masks())
    @example(BinaryMask(np.zeros((3, 4), dtype=bool)))
    @example(BinaryMask(np.ones((1, 1), dtype=bool)))
    @example(BinaryMask(np.ones((5, 7), dtype=bool), 2, 1, (9, 12)))
    @example(BinaryMask(np.eye(4, 6, 1, dtype=bool), 0, 3, (7, 6)))
    @example(BinaryMask(disc(12, 12, 5.5, 5.5, 5) & ~disc(12, 12, 5.5, 5.5, 2)))
    def test_matches_its_reference_pixel_for_pixel_and_in_order(self, mask):
        got = extract_edges(mask)
        assert got.dtype == np.int64 and got.shape[1:] == (2,)
        assert np.array_equal(got, ref_extract_edges(mask))

    def test_edges_subset_of_mask_and_interior_survives(self):
        m = disc_mask(40, 40, 20, 20, 8)
        edges = extract_edges(m)
        us, vs = edges[:, 0], edges[:, 1]
        assert full(m)[vs, us].all()
        remaining = full(m)
        remaining[vs, us] = False
        assert remaining.any()  # interior pixels stay


class TestExtremePoints:
    def test_rasterized_disc(self):
        m = disc_mask(100, 100, 50, 50, 10)
        ext = extreme_points(m)
        assert ext.top == (50, 40)
        assert ext.bottom == (50, 60)
        assert ext.left == (40, 50)
        assert ext.right == (60, 50)

    def test_single_pixel(self):
        data = np.zeros((10, 10), dtype=bool)
        data[3, 7] = True
        ext = extreme_points(BinaryMask(data))
        assert ext.top == ext.bottom == ext.left == ext.right == (7, 3)

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            extreme_points(BinaryMask(np.zeros((4, 4), dtype=bool)))

    def test_tie_breaking_on_a_block(self):
        data = np.zeros((5, 5), dtype=bool)
        data[1:3, 1:3] = True
        ext = extreme_points(BinaryMask(data))
        assert ext.top == (1, 1)      # min v, then min u
        assert ext.bottom == (2, 2)   # max v, then max u
        assert ext.left == (1, 1)     # min u, then min v
        assert ext.right == (2, 2)    # max u, then max v

    def test_extremes_attain_min_max(self, rng):
        for _ in range(50):
            m = BinaryMask(rng.random((12, 12)) < 0.3)
            if m.is_empty():
                continue
            ext = extreme_points(m)
            vs, us = np.nonzero(full(m))
            assert ext.top.v == vs.min() and ext.bottom.v == vs.max()
            assert ext.left.u == us.min() and ext.right.u == us.max()


class TestMedianEdgeDepth:
    def edges_at(self, pixels):
        return np.array(pixels)

    def test_odd_count_median(self):
        edges = self.edges_at([(0, 0), (1, 0), (2, 0)])
        depth = depth_from_map({(0, 0): 600, (1, 0): 610, (2, 0): 620})
        assert median_edge_depth(edges, depth) == pytest.approx(0.610)

    def test_median_rejects_far_outlier(self):
        pts = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
        depth = depth_from_map({(0, 0): 500, (1, 0): 600, (2, 0): 610,
                                (3, 0): 620, (4, 0): 5000})
        assert median_edge_depth(self.edges_at(pts), depth) == pytest.approx(0.610)

    def test_all_zero_rejected(self):
        edges = self.edges_at([(0, 0), (1, 0)])
        with pytest.raises(NoValidDepth):
            median_edge_depth(edges, depth_from_map({}))

    def test_over_half_invalid_rejected(self):
        pts = [(i, 0) for i in range(4)]
        depth = depth_from_map({(0, 0): 600})  # 3 of 4 invalid
        with pytest.raises(NoValidDepth):
            median_edge_depth(self.edges_at(pts), depth)

    def test_exactly_half_invalid_accepted(self):
        pts = [(i, 0) for i in range(4)]
        depth = depth_from_map({(0, 0): 600, (1, 0): 610})
        assert median_edge_depth(self.edges_at(pts), depth) == pytest.approx(0.600)

    def test_even_count_uses_lower_median(self):
        pts = [(i, 0) for i in range(4)]
        depth = depth_from_map({(0, 0): 600, (1, 0): 610, (2, 0): 620, (3, 0): 630})
        assert median_edge_depth(self.edges_at(pts), depth) == pytest.approx(0.610)

    def test_enumeration_order_invariance(self, rng):
        pixels = [(int(u), int(v)) for u, v in rng.integers(0, 64, size=(30, 2))]
        pixels = list(dict.fromkeys(pixels))
        depth = depth_from_map({p: int(rng.integers(400, 800)) for p in pixels})
        values = [median_edge_depth(self.edges_at(list(perm)), depth)
                  for perm in (pixels, pixels[::-1], sorted(pixels))]
        assert len(set(values)) == 1

    def test_contamination_robustness(self):
        # valid depths within one quantization step of a true depth;
        # up to 49% replaced by arbitrary larger outliers
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(8, 120))
            base = int(rng.integers(400, 2000))
            samples = base + rng.integers(0, 2, size=n)  # spans one step
            clean = np.sort(samples)[(n - 1) // 2]
            k = int(0.49 * n)
            idx = rng.choice(n, size=k, replace=False)
            samples = samples.astype(np.int64)
            samples[idx] = rng.integers(3000, 60000, size=k)
            data = np.zeros((1, n), dtype=np.uint16)
            data[0, :] = samples
            edges = self.edges_at([(i, 0) for i in range(n)])
            got = median_edge_depth(edges, DepthImage(data))
            assert abs(got - clean * 0.001) <= 0.001 + 1e-12


class TestNearestMaskDepth:
    def test_nearest_sampled_mask_pixel(self):
        mask = disc_mask(64, 64, 32, 32, 10)
        # the center has no sample; (34, 32) is nearer than (32, 29)
        depth = depth_from_map({(34, 32): 601, (32, 29): 602, (31, 32): 0, (1, 1): 5})
        assert nearest_mask_depth(mask, depth, Pixel(32, 32)) == pytest.approx(0.601)

    def test_tie_goes_to_first_in_row_major_order(self):
        mask = disc_mask(64, 64, 32, 32, 10)
        depth = depth_from_map({(32, 34): 610, (34, 32): 620, (30, 32): 630})
        assert nearest_mask_depth(mask, depth, Pixel(32, 32)) == pytest.approx(0.630)

    def test_reads_only_mask_pixels_inside_the_window(self):
        mask = disc_mask(64, 64, 32, 32, 10)
        # (23, 23) is inside the mask's crop but not the mask, (2, 2) outside both
        depth = depth_from_map({(23, 23): 100, (40, 32): 640, (2, 2): 1})
        assert nearest_mask_depth(mask, depth, Pixel(24, 24)) == pytest.approx(0.640)
        with pytest.raises(NoValidDepth):
            nearest_mask_depth(mask, depth_from_map({(23, 23): 100, (2, 2): 1}), Pixel(24, 24))
