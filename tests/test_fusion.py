from dataclasses import dataclass, replace

import numpy as np
import pytest

from fruitgauge.errors import InvalidDepth
from fruitgauge.fusion import (
    deduplicate,
    estimate_metric_radius,
    localize,
    select_best,
)
from fruitgauge.geometry import (
    CameraIntrinsics,
    Pixel,
    Point3,
    RigidTransform,
    translation_transform,
)
from fruitgauge.sizing import FittedCircle

K500 = CameraIntrinsics(1280, 720, 500.0, 500.0, 640.0, 360.0)
ORDER = ("top", "middle", "bottom")  # the rig's camera order


@dataclass(frozen=True)
class FakeMeas:
    """The record attributes fusion reads."""

    fill_ratio: float
    camera_id: str = "middle"
    frame_id: str = "000"
    detection_index: int = 0
    center_world_m: Point3 = Point3(0.0, 0.0, 0.6)
    radius_m: float = 0.023


def det(x, y, z, r=0.023, fill=0.9, cam="middle", frame="000", index=0):
    return FakeMeas(fill, cam, frame, index, Point3(x, y, z), r)


class TestEstimateMetricRadius:
    def test_similar_triangles(self):
        got = estimate_metric_radius(FittedCircle(10, 10, 20.0), 0.6, K500)
        assert got == pytest.approx(0.024, abs=1e-12)

    def test_zero_depth(self):
        with pytest.raises(InvalidDepth):
            estimate_metric_radius(FittedCircle(10, 10, 20.0), 0.0, K500)

    def test_zero_radius_unrepresentable(self):
        with pytest.raises(Exception):
            FittedCircle(10, 10, 0.0)


class TestLocalize:
    def test_on_axis_ray_scaling(self):
        p = localize(Pixel(640, 360), 0.600, 0.023, K500, RigidTransform.identity())
        assert p.x == pytest.approx(0) and p.y == pytest.approx(0)
        assert p.z == pytest.approx(0.623, abs=1e-12)

    def test_composed_with_world_transform(self):
        p = localize(Pixel(640, 360), 0.600, 0.023, K500,
                     translation_transform(0, 0, -0.600))
        assert p.z == pytest.approx(0.023, abs=1e-12)

    def test_zero_depth_propagates(self):
        with pytest.raises(InvalidDepth):
            localize(Pixel(640, 360), 0.0, 0.023, K500, RigidTransform.identity())

    def test_off_axis_pushes_along_ray(self):
        p = localize(Pixel(740, 360), 0.500, 0.025, K500, RigidTransform.identity())
        ray = np.array([0.2 * 0.5, 0.0, 0.5])
        expected = ray * (np.linalg.norm(ray) + 0.025) / np.linalg.norm(ray)
        assert np.allclose(p.to_array(), expected, atol=1e-12)


class TestDeduplicate:
    def test_close_pair_merges(self):
        fruits = deduplicate([det(0, 0, 0.6), det(0.010, 0, 0.6)], ORDER)
        assert len(fruits) == 1 and len(fruits[0].members) == 2

    def test_far_pair_stays_apart(self):
        fruits = deduplicate([det(0, 0, 0.6), det(0.100, 0, 0.6)], ORDER)
        assert len(fruits) == 2

    def test_chain_merges_transitively(self):
        # a-b and b-c within radius, a-c not: one cluster of three
        fruits = deduplicate([det(0, 0, 0.6), det(0.020, 0, 0.6), det(0.040, 0, 0.6)],
                             ORDER)
        assert len(fruits) == 1 and len(fruits[0].members) == 3

    def test_empty_input(self):
        assert deduplicate([], ORDER) == []

    def test_cluster_center_and_radius_are_means(self):
        fruits = deduplicate([det(0, 0, 0.6, r=0.020), det(0.01, 0, 0.6, r=0.030)], ORDER)
        f = fruits[0]
        assert f.center_world.x == pytest.approx(0.005)
        assert f.radius_m == pytest.approx(0.025)

    def test_permutation_invariance(self, rng):
        base = [det(*rng.uniform(-0.3, 0.3, size=2), 0.6 + rng.uniform(-0.05, 0.05),
                    r=rng.uniform(0.015, 0.03), index=i) for i in range(20)]
        reference = {frozenset(m.detection_index for m in f.members)
                     for f in deduplicate(base, ORDER)}
        for _ in range(10):
            perm = list(base)
            rng.shuffle(perm)
            got = {frozenset(m.detection_index for m in f.members)
                   for f in deduplicate(perm, ORDER)}
            assert got == reference

    def test_cluster_count_monotone_in_radius(self, rng):
        pts = [det(*rng.uniform(-0.2, 0.2, size=2), 0.6, r=0.001, index=i)
               for i in range(15)]
        counts = []
        for scale in (1, 5, 20, 60, 200):
            scaled = [replace(p, radius_m=p.radius_m * scale) for p in pts]
            counts.append(len(deduplicate(scaled, ORDER)))
        assert counts == sorted(counts, reverse=True)

    def test_larger_radius_decides_a_match(self):
        pair = [det(0, 0, 0.6, r=0.005), det(0.010, 0, 0.6, r=0.030)]
        assert len(deduplicate(pair, ORDER)) == 1


class TestSelectBest:
    def test_highest_fill_ratio_wins(self):
        members = [FakeMeas(0.73, "top"), FakeMeas(0.94, "bottom")]
        assert select_best(members, ORDER) == 1

    def test_single_member(self):
        assert select_best([FakeMeas(0.5)], ORDER) == 0

    def test_tie_broken_by_camera_order(self):
        members = [FakeMeas(0.90, "bottom"), FakeMeas(0.90, "top")]
        assert select_best(members, ORDER) == 1  # top precedes bottom
        assert select_best(members, ("bottom", "middle", "top")) == 0

    def test_tie_broken_by_frame_then_index(self):
        members = [FakeMeas(0.9, "top", "002", 0), FakeMeas(0.9, "top", "001", 3),
                   FakeMeas(0.9, "top", "001", 1)]
        assert select_best(members, ORDER) == 2

    def test_chosen_attribute_on_clusters(self):
        fruits = deduplicate([det(0, 0, 0.6, fill=0.73, cam="top"),
                              det(0.005, 0, 0.6, fill=0.94, cam="bottom", index=1)], ORDER)
        assert fruits[0].chosen_member.fill_ratio == 0.94
        assert all(fruits[0].chosen_member.fill_ratio >= m.fill_ratio
                   for m in fruits[0].members)
