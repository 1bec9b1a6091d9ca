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
positive radii; ``fileio.Record.from_dict`` rejects anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from .errors import InvalidDepth
from .geometry import CameraIntrinsics, Pixel, Point3, RigidTransform, apply, deproject
from .sizing import FittedCircle

if TYPE_CHECKING:
    from .fileio import Record


def estimate_metric_radius(circle: FittedCircle, depth_m: float, k: CameraIntrinsics) -> float:
    """Pixel radius -> meters by similar triangles at the given depth."""
    if depth_m <= 0:
        raise InvalidDepth(f"depth must be positive, got {depth_m}")
    return circle.r_px * depth_m / k.fx


def localize(
    px: Pixel,
    depth_m: float,
    radius_m: float,
    k: CameraIntrinsics,
    cam_to_world: RigidTransform,
) -> Point3:
    """World-frame center of a fruit from its bounding-box center pixel.

    ``depth_m`` is the distance of the fruit's front surface along the
    viewing ray (the aligned depth map's reading at the center pixel); the
    point is pushed outward by the estimated radius to reach the center.
    """
    p = deproject(k, px, depth_m).to_array()
    norm = float(np.linalg.norm(p))
    p = p * (norm + radius_m) / norm
    return apply(cam_to_world, Point3.from_array(p))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # deterministic: smaller root wins
            if rj < ri:
                ri, rj = rj, ri
            self.parent[rj] = ri


# A cell and the 26 cells around it.
_NEIGHBOURS = np.array(list(product((-1, 0, 1), repeat=3)), dtype=np.int64)


def _matching_pairs(centers: np.ndarray, radii: np.ndarray) -> tuple:
    """Index lists ``(i, j)`` of every pair i < j with
    ``norm(c_j - c_i) <= max(r_i, r_j)``, from a uniform grid hash.

    The cell edge is the largest radius, widened by a relative 1e-9 so that
    rounding in ``c / edge`` cannot put a matching pair two cells apart (exact
    while coordinates stay within about 10**6 cell edges of the origin).
    """
    edge = float(radii.max()) * (1 + 1e-9)
    cells = np.floor(centers / edge).astype(np.int64)
    # A cell's key packs the first positions of its coordinates in each
    # axis's sorted cell coordinates, so it fits in int64 for up to two
    # million records; a neighbour cell with an unoccupied coordinate gets
    # key -1.
    axes = [np.sort(cells[:, a]) for a in range(3)]

    def keys(c: np.ndarray) -> np.ndarray:
        key = np.zeros(len(c), dtype=np.int64)
        occupied = np.ones(len(c), dtype=bool)
        for a, values in enumerate(axes):
            rank = np.minimum(np.searchsorted(values, c[:, a]), len(values) - 1)
            occupied &= values[rank] == c[:, a]
            key = key * len(values) + rank
        return np.where(occupied, key, -1)

    own = keys(cells)
    order = np.argsort(own)
    sorted_keys = own[order]
    # Query every record's 27 cells at once; record i's candidates in a cell
    # are the sorted run order[lo:lo + count].
    query = keys((cells + _NEIGHBOURS[:, None]).reshape(-1, 3))
    lo = np.searchsorted(sorted_keys, query, side="left")
    count = np.searchsorted(sorted_keys, query, side="right") - lo
    i = np.repeat(np.tile(np.arange(len(cells)), len(_NEIGHBOURS)), count)
    j = order[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(i))]
    keep = i < j
    i, j = i[keep], j[keep]
    match = np.linalg.norm(centers[j] - centers[i], axis=1) <= np.maximum(radii[i], radii[j])
    return i[match].tolist(), j[match].tolist()


@dataclass
class WorldFruit:
    """One physical fruit: clustered records plus the selected view."""

    center_world: Point3
    radius_m: float
    members: List[Record]
    chosen: int = 0                     # index into ``members``


def select_best(members: Sequence[Record], camera_order: Sequence[str]) -> int:
    """Index of the member to report for a cluster.

    Highest fill ratio wins; exact ties fall back to the rig's camera order,
    then to the lowest frame id and detection index. Members need
    ``fill_ratio``, ``camera_id``, ``frame_id`` and ``detection_index``
    attributes, and every ``camera_id`` must be in ``camera_order``.
    """
    def key(i: int):
        m = members[i]
        return (-m.fill_ratio, camera_order.index(m.camera_id), m.frame_id, m.detection_index)

    return min(range(len(members)), key=key)


def deduplicate(records: Sequence[Record], camera_order: Sequence[str]) -> List[WorldFruit]:
    """Cluster world-frame records of the same physical fruit.

    Records need ``center_world_m`` and ``radius_m`` attributes, plus those
    ``select_best`` reads; centers must be finite and radii finite and
    positive. Two records match when their center distance does not exceed
    the larger of the two radii; clusters are the connected components of the
    match graph, found from the grid hash's candidate pairs. A cluster's
    members keep input order, clusters are ordered by their first member, and
    cluster center and radius are member means.
    """
    n = len(records)
    if n == 0:
        return []
    centers = np.array([r.center_world_m for r in records], dtype=float)
    radii = np.array([r.radius_m for r in records], dtype=float)

    uf = _UnionFind(n)
    for i, j in zip(*_matching_pairs(centers, radii)):
        uf.union(i, j)

    clusters: dict[int, List[int]] = {}
    for i in range(n):
        clusters.setdefault(uf.find(i), []).append(i)

    fruits = []
    for root in sorted(clusters):
        idx = clusters[root]
        members = [records[i] for i in idx]
        fruits.append(
            WorldFruit(
                center_world=Point3.from_array(centers[idx].mean(axis=0)),
                radius_m=float(radii[idx].mean()),
                members=members,
                chosen=select_best(members, camera_order),
            )
        )
    return fruits
