from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fruitgauge.errors import InvalidDepth
from fruitgauge import fusion
from fruitgauge.fileio import RecordTable
from fruitgauge.fileio import write_fused
from fruitgauge.fusion import deduplicate, estimate_metric_radius, localize
from fruitgauge.geometry import (
    CameraIntrinsics,
    Pixel,
    Point3,
    RigidTransform,
    apply,
    translation_transform,
)

from conftest import FittedCircle, clusters, deproject, random_rigid

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


def table(records) -> RecordTable:
    """The record table of ``records``' attributes; the fields fusion does not
    read hold placeholder values."""
    n = len(records)
    return RecordTable([m.frame_id for m in records], [m.camera_id for m in records],
                       [m.detection_index for m in records], ["fruit"] * n, [None] * n,
                       *[np.full(n, 40.0)] * 3, np.array([m.fill_ratio for m in records]),
                       np.full((n, 3), 10.0), [[0, 0, 1, 1]] * n, np.full(n, 0.6),
                       np.array([m.radius_m for m in records], dtype=float),
                       np.array([m.center_world_m for m in records], dtype=float).reshape(n, 3))


def ref_deduplicate(records, camera_order):
    """``deduplicate`` as it was before records became columns: the cluster
    bookkeeping over per-record attribute reads, each cluster as (member
    indices, chosen, center, radius)."""
    n = len(records)
    if n == 0:
        return []
    centers = np.array([c for r in records for c in r.center_world_m], dtype=float).reshape(n, 3)
    radii = np.array([r.radius_m for r in records], dtype=float)
    label = fusion._components(n, *fusion._matching_pairs(centers, radii))
    by_cluster = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[by_cluster], return_index=True, return_counts=True)
    rank = {camera_id: i for i, camera_id in enumerate(camera_order)}
    keys = [(-m.fill_ratio, rank[m.camera_id], m.frame_id, m.detection_index) for m in records]
    fruits = [None] * len(starts)
    for k in np.unique(sizes).tolist():
        of_size = np.flatnonzero(sizes == k)
        members = by_cluster[starts[of_size, None] + np.arange(k)]
        means = centers[members].mean(axis=1).tolist()
        mean_radii = radii[members].mean(axis=1).tolist()
        for c, idx, center, radius in zip(of_size.tolist(), members.tolist(), means, mean_radii):
            chosen = min(range(k), key=[keys[i] for i in idx].__getitem__)
            fruits[c] = (idx, chosen, Point3._make(center), radius)
    return fruits


def ref_select_best(members, camera_order):
    """The view a cluster reports, written out: the first member whose fill
    ratio no other member's beats, then the earliest camera in
    ``camera_order``, then the lowest frame id, then the lowest detection
    index. A NaN fill ratio is beaten by no one and beats no one."""
    best = 0
    for i, m in enumerate(members):
        b = members[best]
        if -m.fill_ratio != -b.fill_ratio:
            if -m.fill_ratio < -b.fill_ratio:
                best = i
            continue
        rank_m, rank_b = camera_order.index(m.camera_id), camera_order.index(b.camera_id)
        if (rank_m, m.frame_id, m.detection_index) < (rank_b, b.frame_id, b.detection_index):
            best = i
    return best


def chosen_view(members, camera_order=ORDER):
    """The index of the view that ``deduplicate`` reports for co-located
    ``members``, which form one cluster."""
    fruit, = clusters(deduplicate(table(members), camera_order))
    return fruit.chosen


class TestEstimateMetricRadius:
    def test_similar_triangles(self):
        got = estimate_metric_radius(20.0, 0.6, K500)
        assert got == pytest.approx(0.024, abs=1e-12)

    def test_zero_depth(self):
        with pytest.raises(InvalidDepth):
            estimate_metric_radius(np.array([20.0, 20.0]), np.array([0.6, 0.0]), K500)

    def test_zero_radius_unrepresentable(self):
        with pytest.raises(Exception):
            FittedCircle(10, 10, 0.0)


class TestLocalize:
    def test_on_axis_ray_scaling(self):
        x, y, z = localize(Pixel(640, 360), 0.600, 0.023, K500, RigidTransform.identity())
        assert x == pytest.approx(0) and y == pytest.approx(0)
        assert z == pytest.approx(0.623, abs=1e-12)

    def test_composed_with_world_transform(self):
        _, _, z = localize(Pixel(640, 360), 0.600, 0.023, K500,
                           translation_transform(0, 0, -0.600))
        assert z == pytest.approx(0.023, abs=1e-12)

    def test_zero_depth_propagates(self):
        with pytest.raises(InvalidDepth):
            localize(Pixel(640, 360), 0.0, 0.023, K500, RigidTransform.identity())

    def test_off_axis_pushes_along_ray(self):
        p = localize(Pixel(740, 360), 0.500, 0.025, K500, RigidTransform.identity())
        ray = np.array([0.2 * 0.5, 0.0, 0.5])
        expected = ray * (np.linalg.norm(ray) + 0.025) / np.linalg.norm(ray)
        assert np.allclose(p, expected, atol=1e-12)

    def test_arrays_match_one_point_at_a_time(self, rng):
        u, v = rng.uniform(0, 1279, 50), rng.uniform(0, 719, 50)
        depth, radius = rng.uniform(0.2, 2.0, 50), rng.uniform(0.01, 0.05, 50)
        pose = random_rigid(rng)
        got = localize(Pixel(u, v), depth, radius, K500, pose)
        for i in range(50):
            p = deproject(K500, Pixel(u[i], v[i]), depth[i]).to_array()
            norm = float(np.linalg.norm(p))
            want = apply(pose, Point3.from_array(p * (norm + radius[i]) / norm))
            assert np.allclose(got[i], want, rtol=1e-12, atol=1e-12)


class TestDeduplicate:
    def test_close_pair_merges(self):
        fruits = clusters(deduplicate(table([det(0, 0, 0.6), det(0.010, 0, 0.6)]), ORDER))
        assert len(fruits) == 1 and fruits[0].members == [0, 1]

    def test_far_pair_stays_apart(self):
        fruits = clusters(deduplicate(table([det(0, 0, 0.6), det(0.100, 0, 0.6)]), ORDER))
        assert [f.members for f in fruits] == [[0], [1]]

    def test_chain_merges_transitively(self):
        # a-b and b-c within radius, a-c not: one cluster of three
        fruits = clusters(deduplicate(
            table([det(0, 0, 0.6), det(0.020, 0, 0.6), det(0.040, 0, 0.6)]), ORDER))
        assert len(fruits) == 1 and len(fruits[0].members) == 3

    def test_empty_input(self, tmp_path):
        fruits = deduplicate(table([]), ORDER)
        assert fruits.starts.tolist() == [0]
        write_fused(tmp_path / "fused.json", fruits, table([]))
        assert (tmp_path / "fused.json").read_text() == '{"fruits": []}\n'

    def test_cluster_center_and_radius_are_means(self):
        f, = clusters(deduplicate(table([det(0, 0, 0.6, r=0.020), det(0.01, 0, 0.6, r=0.030)]),
                                  ORDER))
        assert f.center_world.x == pytest.approx(0.005)
        assert f.radius_m == pytest.approx(0.025)

    def test_permutation_invariance(self, rng):
        base = [det(*rng.uniform(-0.3, 0.3, size=2), 0.6 + rng.uniform(-0.05, 0.05),
                    r=rng.uniform(0.015, 0.03), index=i) for i in range(20)]
        reference = {frozenset(base[i].detection_index for i in f.members)
                     for f in clusters(deduplicate(table(base), ORDER))}
        for _ in range(10):
            perm = list(base)
            rng.shuffle(perm)
            got = {frozenset(perm[i].detection_index for i in f.members)
                   for f in clusters(deduplicate(table(perm), ORDER))}
            assert got == reference

    def test_cluster_count_monotone_in_radius(self, rng):
        pts = [det(*rng.uniform(-0.2, 0.2, size=2), 0.6, r=0.001, index=i)
               for i in range(15)]
        counts = []
        for scale in (1, 5, 20, 60, 200):
            scaled = [replace(p, radius_m=p.radius_m * scale) for p in pts]
            counts.append(len(clusters(deduplicate(table(scaled), ORDER))))
        assert counts == sorted(counts, reverse=True)

    def test_larger_radius_decides_a_match(self):
        pair = [det(0, 0, 0.6, r=0.005), det(0.010, 0, 0.6, r=0.030)]
        assert len(clusters(deduplicate(table(pair), ORDER))) == 1


class TestSelectBest:
    """The view ``deduplicate`` chooses for a cluster."""

    def test_highest_fill_ratio_wins(self):
        members = [FakeMeas(0.73, "top"), FakeMeas(0.94, "bottom")]
        assert chosen_view(members) == 1

    def test_single_member(self):
        assert chosen_view([FakeMeas(0.5)]) == 0

    def test_tie_broken_by_camera_order(self):
        members = [FakeMeas(0.90, "bottom"), FakeMeas(0.90, "top")]
        assert chosen_view(members) == 1  # top precedes bottom
        assert chosen_view(members, ("bottom", "middle", "top")) == 0

    def test_tie_broken_by_frame_then_index(self):
        members = [FakeMeas(0.9, "top", "002", 0), FakeMeas(0.9, "top", "001", 3),
                   FakeMeas(0.9, "top", "001", 1)]
        assert chosen_view(members) == 2

    def test_chosen_attribute_on_clusters(self):
        records = [det(0, 0, 0.6, fill=0.73, cam="top"),
                   det(0.005, 0, 0.6, fill=0.94, cam="bottom", index=1)]
        fruits = clusters(deduplicate(table(records), ORDER))
        chosen = records[fruits[0].members[fruits[0].chosen]]
        assert chosen.fill_ratio == 0.94
        assert all(chosen.fill_ratio >= records[i].fill_ratio for i in fruits[0].members)

    @pytest.mark.parametrize("fills", [(0.5, float("nan"), 0.9), (float("nan"), 0.5, 0.9),
                                       (0.9, 0.5, float("nan"))])
    def test_cluster_choice_is_select_best_with_a_nan_fill_ratio(self, fills):
        # NaN keys have no order, so a choice made in any other way than a
        # first-to-last scan of the cluster, such as one sort of all records
        # with the far second fruit, can differ from it
        views = [det(0, 0, 0.6 + i / 1000, fill=f, cam=cam, index=i)
                 for i, (f, cam) in enumerate(zip(fills, ORDER))]
        records = views + [det(1, 1, 1, fill=0.7, index=3)]
        fruit, _ = clusters(deduplicate(table(records), ORDER))
        assert fruit.chosen == ref_select_best([records[i] for i in fruit.members], ORDER)


def all_pairs_dedup(records):
    """The O(n^2) dedup the grid hash replaced: (member indices, chosen, center,
    radius) per cluster, in ``deduplicate``'s order."""
    n = len(records)
    centers = np.array([r.center_world_m for r in records], dtype=float)
    radii = np.array([r.radius_m for r in records], dtype=float)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        dist = np.linalg.norm(centers[i + 1:] - centers[i], axis=1)
        threshold = np.maximum(radii[i + 1:], radii[i])
        for j in np.nonzero(dist <= threshold)[0]:
            ri, rj = find(i), find(int(i + 1 + j))
            parent[max(ri, rj)] = min(ri, rj)
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return [(idx, ref_select_best([records[i] for i in idx], ORDER),
             Point3.from_array(centers[idx].mean(axis=0)), float(radii[idx].mean()))
            for idx in (clusters[root] for root in sorted(clusters))]


EDGE = 2.0 ** -5  # a dyadic radius, so a pair at exactly that distance is exact in floats
RADII = st.sampled_from([0.004, 0.015, 0.023, 0.03, EDGE])
NEAR = st.floats(-0.4, 0.4)
JITTER = st.floats(-0.02, 0.02)


STEP = st.floats(-0.002, 0.002)  # a step shorter than the smallest radius


@st.composite
def record_rows(draw):
    """(x, y, z, r) rows: views of a few fruits, a chain of 9 to 20 views that
    forms one cluster, one large radius among small ones, repeated centers, a
    sparse cloud metres wide, and pairs exactly ``EDGE`` apart across a cell
    boundary; all coordinates may be negative. The chain's means add 8 or
    more values, where numpy switches to pairwise summation."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        center = draw(st.tuples(NEAR, NEAR, NEAR))
        for _ in range(draw(st.integers(1, 3))):
            rows.append(tuple(c + draw(JITTER) for c in center) + (draw(RADII),))
    if draw(st.booleans()):
        x, y, z = draw(st.tuples(NEAR, NEAR, NEAR))
        for _ in range(draw(st.integers(9, 20))):
            rows.append((x, y, z, draw(RADII)))
            x, y, z = x + draw(STEP), y + draw(STEP), z + draw(STEP)
    if draw(st.booleans()):
        rows.append(draw(st.tuples(NEAR, NEAR, NEAR, st.sampled_from([0.12, 0.4]))))
    rows += draw(st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * 3, RADII), max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    for axis in draw(st.lists(st.integers(0, 2), max_size=4)):
        start = [draw(st.integers(-40, 40)) * EDGE for _ in range(3)]
        start[axis] -= draw(st.sampled_from([0.0, 2.0 ** -30, EDGE / 2, EDGE - 2.0 ** -30]))
        end = list(start)
        end[axis] += EDGE
        rows += [(*start, EDGE), (*end, draw(RADII))]
    return draw(st.permutations(rows))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(record_rows())
@example([(0.1, -0.2, 0.5, 0.02)])
@example([(-0.3, 0.0, 0.7, 0.02)] * 3)
@example([(0.1 + n * 0.0031, -0.2 + n * 0.0007, 0.5 - n * 0.0013, 0.004) for n in range(12)])
def test_grid_dedup_matches_all_pairs_reference(rows):
    records = [det(x, y, z, r=r, fill=0.5 + (i % 7) / 20, cam=ORDER[i % 3], index=i)
               for i, (x, y, z, r) in enumerate(rows)]
    fruits = deduplicate(table(records), ORDER)
    sizes = np.diff(fruits.starts)
    assert sorted(fruits.members.tolist()) == list(range(len(rows)))
    assert fruits.starts[0] == 0 and fruits.starts[-1] == len(rows) and (sizes > 0).all()
    assert ((0 <= fruits.chosen) & (fruits.chosen < sizes)).all()
    got = clusters(fruits)
    assert got == all_pairs_dedup(records)
    assert got == ref_deduplicate(records, ORDER)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("start,r", [
    (-3 * EDGE, EDGE), (-EDGE / 2, EDGE), (0.0, EDGE), (5 * EDGE - 2.0 ** -30, EDGE),
    # -1e-18 + 0.03 rounds to 0.03, so the distance test matches this pair,
    # while -1e-18 / 0.03 and 0.03 / 0.03 floor two cells apart
    (-1e-18, 0.03),
])
def test_pair_one_radius_apart_across_a_cell_boundary_merges(axis, start, r):
    a, b = [0.25, -0.5, 0.75], [0.25, -0.5, 0.75]
    a[axis], b[axis] = start, start + r
    assert np.linalg.norm(np.subtract([b], [a]), axis=1)[0] == r
    fruits = deduplicate(table([det(*a, r=r), det(*b, r=r / 4, index=1)]), ORDER)
    assert [f.members for f in clusters(fruits)] == [[0, 1]]
