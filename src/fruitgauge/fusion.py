"""Cross-view fusion: localization, radius-based dedup, best-view choice.

A fruit seen by several cameras yields several records, each already
localized in the world frame at measure time; two records are the same fruit
when their centers fall within the larger of their estimated fruit radii.
Clusters are connected components, so the result is independent of input
order.

Matching pairs are found with a uniform grid hash (Teschner et al. 2003,
"Optimized Spatial Hashing for Collision Detection of Deformable Objects"):
each record falls in a cubic cell as wide as the largest radius, so a match
can only lie in its own cell or one of the 26 around it, and only those
candidates get the exact distance test. The work is near-linear in the
record count instead of quadratic. The grid needs finite centers and finite
positive radii; ``fileio.read_records`` rejects anything else.

``deduplicate`` reads the columns of a ``fileio.RecordTable``: the center and
radius arrays, and for the best view the fill ratios and the id columns. The
rest of the cluster bookkeeping is numpy too. Components come from
min-index label propagation with pointer jumping over the matching pairs, so
a cluster's label is its smallest record index. Cluster means are taken per
cluster size over ``(m, k)`` gathers of members, which adds each cluster's
members in the same order as a mean over that cluster alone, so the values
are bit-identical to it. Each record's best-view key (``_best_view_keys``)
is computed once, and each cluster's view is the first member with the
least key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from .errors import InvalidDepth
from .geometry import (CameraIntrinsics, Pixel, Point3, RigidTransform, apply_points,
                       distance, pixel_to_ray)

if TYPE_CHECKING:
    from .fileio import RecordTable


def estimate_metric_radius(r_px, depth_m, k: CameraIntrinsics):
    """Pixel radii -> meters by similar triangles at the given depths (floats
    or arrays)."""
    if np.any(np.asarray(depth_m) <= 0):
        raise InvalidDepth(f"depth must be positive, got {depth_m}")
    return r_px * depth_m / k.fx


def localize(px: Pixel, depth_m: np.ndarray, radius_m: np.ndarray, k: CameraIntrinsics,
             cam_to_world: RigidTransform) -> np.ndarray:
    """World-frame centers of fruits, as an (n, 3) array, from the arrays of
    their bounding-box center pixels ``px.u`` and ``px.v``, front depths and radii.

    ``depth_m`` is the distance of each fruit's front surface along the
    viewing ray (read at the sampled mask pixel nearest that pixel); the
    point is pushed outward by the estimated radius to reach the center. The
    ray norm is ``geometry.distance``'s, so it is bit-identical to a norm of
    one point.
    """
    if np.any(np.asarray(depth_m) <= 0):
        raise InvalidDepth(f"depth must be positive, got {depth_m}")
    xn, yn = pixel_to_ray(k, np.asarray(px.u, dtype=float), np.asarray(px.v, dtype=float))
    p = np.stack([xn * depth_m, yn * depth_m, np.broadcast_to(depth_m, xn.shape)], axis=-1)
    norm = distance(p, 0.0)
    return apply_points(cam_to_world, p * (norm + radius_m)[..., None] / norm[..., None])


def _matching_pairs(centers: np.ndarray, radii: np.ndarray) -> tuple:
    """Index arrays ``(i, j)`` of every pair i < j with
    ``norm(c_j - c_i) <= max(r_i, r_j)``, from a uniform grid hash.

    The cell edge is the largest radius, widened by a relative 1e-9 so that
    rounding in ``c / edge`` cannot put a matching pair two cells apart (exact
    while coordinates stay within about 10**6 cell edges of the origin).
    """
    n = len(centers)
    edge = float(radii.max()) * (1 + 1e-9)
    cells = np.floor(centers / edge).astype(np.int64)
    # A cell's key packs the first positions of its coordinates in each
    # axis's sorted cell coordinates, so it fits in int64 for up to two
    # million records; a neighbour cell with an unoccupied coordinate gets
    # key -1. Row 9 dx + 3 dy + dz + 13 of ``query`` holds the key of each
    # record's cell moved by (dx, dy, dz), each in -1..1: each axis is
    # searched for its three shifted coordinates only, and the 27
    # neighbours are their combinations.
    key = np.zeros((1, n), dtype=np.int64)
    occupied = np.ones((1, n), dtype=bool)
    for a in range(3):
        values = np.sort(cells[:, a])
        shifted = cells[:, a] + np.array([[-1], [0], [1]])
        rank = np.minimum(np.searchsorted(values, shifted), n - 1)
        key = (key[:, None] * n + rank).reshape(-1, n)
        occupied = (occupied[:, None] & (values[rank] == shifted)).reshape(-1, n)
    query = np.where(occupied, key, -1)
    own = query[13]
    order = np.argsort(own)
    # Occupied cell k holds the records order[starts[k]:starts[k] + sizes[k]];
    # record i's candidates in a queried cell are the run order[lo:lo + count].
    cell_keys, starts, sizes = np.unique(own[order], return_index=True, return_counts=True)
    query = query.reshape(-1)
    at = np.minimum(np.searchsorted(cell_keys, query), len(cell_keys) - 1)
    lo, count = starts[at], np.where(cell_keys[at] == query, sizes[at], 0)
    i = np.repeat(np.tile(np.arange(n), 27), count)
    j = order[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(i))]
    keep = i < j
    i, j = i[keep], j[keep]
    match = np.linalg.norm(centers[j] - centers[i], axis=1) <= np.maximum(radii[i], radii[j])
    return i[match], j[match]


@dataclass
class WorldFruit:
    """One physical fruit: its records, as rows of the clustered table, plus
    the selected view."""

    center_world: Point3
    radius_m: float
    members: List[int]                  # rows of the table, in table order
    chosen: int = 0                     # index into ``members``


def _best_view_keys(records: RecordTable, camera_order: Sequence[str]) -> List[tuple]:
    """Each record's best-view key; a cluster reports its first member with
    the least key. Highest fill ratio wins; exact ties fall back to the rig's
    camera order, then to the lowest frame id and detection index. Every
    ``camera_id`` must be in ``camera_order``."""
    rank = {camera_id: i for i, camera_id in enumerate(camera_order)}
    return list(zip((-records.fill_ratio).tolist(), map(rank.__getitem__, records.camera_id),
                    records.frame_id, records.detection_index))


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Each node's component label, its smallest node index, for the edges
    ``(i, j)``: hook the larger label of every edge onto the smaller one, then
    jump pointers until every label is a root; repeat until no edge joins two
    labels."""
    label = np.arange(n)
    while True:
        li, lj = label[i], label[j]
        apart = li != lj
        if not apart.any():
            return label
        li, lj = li[apart], lj[apart]
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def deduplicate(records: RecordTable, camera_order: Sequence[str]) -> List[WorldFruit]:
    """Cluster the rows of a record table that view the same physical fruit.

    Centers must be finite and radii finite and positive. Two records match
    when their center distance does not exceed the larger of the two radii;
    clusters are the connected components of the match graph, found from the
    grid hash's candidate pairs. A cluster's members keep table order,
    clusters are ordered by their first member, and cluster center and radius
    are member means. The chosen member is the first with the least
    ``_best_view_keys`` key.
    """
    n = len(records)
    if n == 0:
        return []
    centers, radii = records.center_world_m, records.radius_m
    label = _components(n, *_matching_pairs(centers, radii))

    # Members grouped by cluster in input order; clusters ordered by label,
    # which is their first member.
    by_cluster = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[by_cluster], return_index=True, return_counts=True)
    keys = _best_view_keys(records, camera_order)

    fruits: List[WorldFruit] = [None] * len(starts)
    # Means per cluster size, over (m, k) gathers, so that each mean adds
    # its k members in the same order as a mean over that cluster alone.
    for k in np.unique(sizes).tolist():
        of_size = np.flatnonzero(sizes == k)
        members = by_cluster[starts[of_size, None] + np.arange(k)]
        means = centers[members].mean(axis=1).tolist()
        mean_radii = radii[members].mean(axis=1).tolist()
        for c, idx, center, radius in zip(of_size.tolist(), members.tolist(), means, mean_radii):
            chosen = min(range(k), key=[keys[i] for i in idx].__getitem__)
            fruits[c] = WorldFruit(Point3._make(center), radius, idx, chosen)
    return fruits
