"""Cross-view fusion: localization, radius-based dedup, best-view choice.

A fruit seen by several cameras yields several records, each already
localized in the world frame at measure time; two records are the same fruit
when their centers fall within the larger of their estimated fruit radii.
Clusters are connected components, so the result is independent of input
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .errors import InvalidDepth
from .geometry import CameraIntrinsics, Pixel, Point3, RigidTransform, apply, deproject
from .sizing import FittedCircle

if TYPE_CHECKING:
    from .fileio import Record

DEFAULT_CAMERA_ORDER = ("top", "middle", "bottom")


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


@dataclass
class WorldFruit:
    """One physical fruit: clustered records plus the selected view."""

    center_world: Point3
    radius_m: float
    members: List[Record]
    chosen: int = 0

    @property
    def chosen_member(self) -> Record:
        return self.members[self.chosen]


def _camera_rank(camera_id: str, camera_order: Sequence[str]) -> Tuple[int, str]:
    try:
        return (camera_order.index(camera_id), camera_id)
    except ValueError:
        return (len(camera_order), camera_id)


def select_best(
    members: Sequence[Record],
    camera_order: Sequence[str] = DEFAULT_CAMERA_ORDER,
) -> int:
    """Index of the member to report for a cluster.

    Highest fill ratio wins; exact ties fall back to camera order, then to
    the lowest frame id and detection index. Members need ``fill_ratio``,
    ``camera_id``, ``frame_id`` and ``detection_index`` attributes.
    """
    def key(i: int):
        m = members[i]
        return (-m.fill_ratio, _camera_rank(m.camera_id, camera_order),
                m.frame_id, m.detection_index)

    return min(range(len(members)), key=key)


def deduplicate(
    records: Sequence[Record],
    camera_order: Sequence[str] = DEFAULT_CAMERA_ORDER,
) -> List[WorldFruit]:
    """Cluster world-frame records of the same physical fruit.

    Records need ``center_world_m`` and ``radius_m`` attributes, plus those
    ``select_best`` reads. Two records match when their center distance does
    not exceed the larger of the two radii; clusters are the connected
    components of the match graph. Cluster center and radius are member
    means.
    """
    n = len(records)
    if n == 0:
        return []
    centers = np.array([r.center_world_m for r in records], dtype=float)
    radii = np.array([r.radius_m for r in records], dtype=float)

    uf = _UnionFind(n)
    for i in range(n):
        dist = np.linalg.norm(centers[i + 1:] - centers[i], axis=1)
        threshold = np.maximum(radii[i + 1:], radii[i])
        for j in np.nonzero(dist <= threshold)[0]:
            uf.union(i, int(i + 1 + j))

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
