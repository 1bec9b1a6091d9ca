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

``deduplicate`` reads the columns of a ``fileio.RecordTable`` and returns
its fruits as the columns of a ``FruitTable``. Components come from
min-index label propagation with pointer jumping over the matching pairs, so
a cluster's label is its smallest record index. Means are taken per cluster
size over ``(m, k)`` gathers of members, which adds each cluster's members in
the same order as a mean over that cluster alone, so the values are
bit-identical to it. The paper keeps the view with the best fill ratio: the
highest, ties going to the rig's earlier camera, then the lower frame id,
detection index and member index. A first-to-last scan of each size group's
k columns replaces the best so far only by a member that beats it, so a NaN
fill ratio is chosen only as a cluster's first member.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import InvalidDepth
from .geometry import CameraIntrinsics, Pixel, RigidTransform, apply_points, distance, pixel_to_ray

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


class FruitTable(NamedTuple):
    """The fruits of a record table as columns. Fruit f's members are the
    table rows ``members[starts[f]:starts[f + 1]]``, in table order, and its
    chosen view is the row ``members[starts[f] + chosen[f]]``."""

    members: np.ndarray          # (n,) int: every table row, grouped by fruit
    starts: np.ndarray           # (m + 1,) int: fruit f's first member; starts[m] is n
    chosen: np.ndarray           # (m,) int: the chosen view's index among the members
    center_world_m: np.ndarray   # (m, 3) float: mean member center
    radius_m: np.ndarray         # (m,) float: mean member radius


def deduplicate(records: RecordTable, camera_order: Sequence[str]) -> FruitTable:
    """Cluster the rows of a record table that view the same physical fruit.

    Centers must be finite, radii finite and positive, and every
    ``camera_id`` in ``camera_order``. Two records match when their center
    distance does not exceed the larger of the two radii; fruits are the
    connected components of the match graph, ordered by their first member.
    The chosen view has the highest fill ratio; exact ties go to the earlier
    camera in ``camera_order``, then the lower frame id, detection index and
    member index. A NaN fill ratio neither beats nor is beaten, so a fruit
    whose first member has one keeps it.
    """
    n = len(records)
    centers, radii, fill = records.center_world_m, records.radius_m, records.fill_ratio
    label = _components(n, *_matching_pairs(centers, radii)) if n else np.arange(0)
    # Rows grouped by fruit in table order; fruits ordered by label, which is
    # their first member.
    members = np.argsort(label, kind="stable")
    _, first, sizes = np.unique(label[members], return_index=True, return_counts=True)
    # Each row's place in one stable sort of the tie-break keys.
    camera_rank = {camera_id: i for i, camera_id in enumerate(camera_order)}
    keys = list(zip(map(camera_rank.__getitem__, records.camera_id), records.frame_id,
                    records.detection_index))
    tie = np.argsort(sorted(range(n), key=keys.__getitem__))

    center, radius, chosen = np.empty((len(sizes), 3)), np.empty(len(sizes)), np.zeros_like(sizes)
    for k in np.unique(sizes).tolist():
        of_size = np.flatnonzero(sizes == k)
        rows = members[first[of_size, None] + np.arange(k)]
        center[of_size] = centers[rows].mean(axis=1)
        radius[of_size] = radii[rows].mean(axis=1)
        best = rows[:, 0]
        for c in range(1, k):
            row = rows[:, c]
            better = (fill[row] > fill[best]) | (fill[row] == fill[best]) & (tie[row] < tie[best])
            chosen[of_size[better]] = c
            best = np.where(better, row, best)
    return FruitTable(members, np.append(first, n), chosen, center, radius)
