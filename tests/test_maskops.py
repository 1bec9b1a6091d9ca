import numpy as np
import pytest

from fruitgauge.errors import EmptyMask, LengthMismatch, NoValidDepth
from fruitgauge.geometry import DepthImage, Pixel
from fruitgauge.maskops import (
    EDGE_KERNEL,
    BinaryMask,
    EdgeSet,
    bbox_extreme_points,
    decode_rle,
    encode_rle,
    extract_edges,
    extreme_points,
    median_edge_depth,
    nearest_mask_depth,
)


def disc_mask(w, h, cu, cv, r):
    uu, vv = np.meshgrid(np.arange(w), np.arange(h))
    return BinaryMask((uu - cu) ** 2 + (vv - cv) ** 2 <= r * r)


def edge_oracle(mask: BinaryMask) -> set:
    """Direct convolution with the 3x3 kernel over the zero-padded mask."""
    m = mask.data.astype(np.int32)
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


class TestRLE:
    def test_all_background(self):
        m = decode_rle([4], (2, 2))
        assert m.is_empty() and m.width == 2 and m.height == 2

    def test_hand_unrolled_runs(self):
        # [1,2,1]: one zero, two ones, one zero in row-major order
        m = decode_rle([1, 2, 1], (2, 2))
        assert m.data[0, 1] and m.data[1, 0]
        assert not m.data[0, 0] and not m.data[1, 1]

    def test_sum_mismatch(self):
        with pytest.raises(LengthMismatch):
            decode_rle([3], (2, 2))

    def test_negative_count(self):
        with pytest.raises(LengthMismatch):
            decode_rle([-1, 5], (2, 2))

    @pytest.mark.parametrize("counts,size", [
        ([6], (2, 3.5)), ([6], ("2", "3")), ([6], (2, 3, 1)), ([6], (2,)), ([5], (-1, -5)),
        ([6], None), ([6.0], (2, 3)), (["6"], (2, 3)), ([True, 5], (2, 3)), (6, (2, 3)),
    ])
    def test_malformed_input_rejected(self, counts, size):
        with pytest.raises(LengthMismatch):
            decode_rle(counts, size)

    def test_roundtrip_random_masks(self, rng):
        for _ in range(200):
            h, w = rng.integers(1, 24, size=2)
            m = BinaryMask(rng.random((h, w)) < rng.uniform(0, 1))
            rle = encode_rle(m)
            assert np.array_equal(decode_rle(rle["counts"], rle["size"]).data, m.data)
            # canonical form survives a decode/encode cycle
            assert encode_rle(decode_rle(rle["counts"], rle["size"])) == rle

    def test_leading_foreground_gets_zero_count(self):
        m = BinaryMask(np.ones((2, 2), dtype=bool))
        assert encode_rle(m)["counts"] == [0, 4]


class TestExtractEdges:
    def test_single_pixel_is_edge(self):
        m = BinaryMask(np.zeros((5, 5), dtype=bool))
        m.data[2, 3] = True
        assert extract_edges(m).as_set() == {(3, 2)}

    def test_solid_3x3_block(self):
        m = BinaryMask(np.zeros((7, 7), dtype=bool))
        m.data[2:5, 2:5] = True
        edges = extract_edges(m).as_set()
        assert edges == edge_oracle(m)
        assert (3, 3) not in edges  # center has response 8 - 8 = 0
        assert len(edges) == 8

    def test_empty_mask(self):
        assert len(extract_edges(BinaryMask(np.zeros((4, 4), dtype=bool)))) == 0

    def test_border_pixels_are_edges(self):
        # mask flush against the image border: border counts as background
        m = BinaryMask(np.ones((3, 3), dtype=bool))
        assert extract_edges(m).as_set() == edge_oracle(m)
        assert (0, 0) in extract_edges(m).as_set()

    def test_matches_convolution_oracle_on_random_masks(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            h, w = rng.integers(1, 16, size=2)
            m = BinaryMask(rng.random((h, w)) < rng.uniform(0.2, 0.9))
            assert extract_edges(m).as_set() == edge_oracle(m)

    def test_edges_subset_of_mask_and_interior_survives(self):
        m = disc_mask(40, 40, 20, 20, 8)
        edges = extract_edges(m)
        us, vs = edges.pixels[:, 0], edges.pixels[:, 1]
        assert m.data[vs, us].all()
        remaining = m.data.copy()
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
        m = BinaryMask(np.zeros((10, 10), dtype=bool))
        m.data[3, 7] = True
        ext = extreme_points(m)
        assert ext.top == ext.bottom == ext.left == ext.right == (7, 3)

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            extreme_points(BinaryMask(np.zeros((4, 4), dtype=bool)))

    def test_tie_breaking_on_a_block(self):
        m = BinaryMask(np.zeros((5, 5), dtype=bool))
        m.data[1:3, 1:3] = True
        ext = extreme_points(m)
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
            vs, us = np.nonzero(m.data)
            assert ext.top.v == vs.min() and ext.bottom.v == vs.max()
            assert ext.left.u == us.min() and ext.right.u == us.max()

    def test_bbox_variant_uses_edge_midpoints(self):
        ext = bbox_extreme_points((10, 20, 5, 3))
        assert ext.top == (12.0, 20)
        assert ext.bottom == (12.0, 22)
        assert ext.left == (10, 21.0)
        assert ext.right == (14, 21.0)


class TestMedianEdgeDepth:
    def edges_at(self, pixels):
        return EdgeSet(np.array(pixels))

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
        assert nearest_mask_depth(mask, depth, mask.bbox(), Pixel(32, 32)) == pytest.approx(0.601)

    def test_tie_goes_to_first_in_row_major_order(self):
        mask = disc_mask(64, 64, 32, 32, 10)
        depth = depth_from_map({(32, 34): 610, (34, 32): 620, (30, 32): 630})
        assert nearest_mask_depth(mask, depth, mask.bbox(), Pixel(32, 32)) == pytest.approx(0.630)

    def test_reads_only_mask_pixels_inside_the_window(self):
        mask = disc_mask(64, 64, 32, 32, 10)
        depth = depth_from_map({(32, 32): 100, (40, 32): 640, (2, 2): 1})
        # (2, 2) is outside the mask, (32, 32) outside the window
        got = nearest_mask_depth(mask, depth, (36, 22, 7, 21), Pixel(32, 32))
        assert got == pytest.approx(0.640)
        with pytest.raises(NoValidDepth):
            nearest_mask_depth(mask, depth, (0, 0, 20, 20), Pixel(32, 32))
