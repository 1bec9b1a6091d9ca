"""Per-view fruit metrics: 3D height/width, circle fit, fill ratio.

The measurement follows the shared-depth assumption: all four extreme points
of a fruit mask are taken to lie at the same camera-frame depth, estimated as
the (lower) median depth over the mask's edge pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import DegenerateCircle, EmptyMask, ZeroArea
from .geometry import CameraIntrinsics, DepthImage, Pixel, deproject, distance
from .maskops import (
    BinaryMask,
    EdgeSet,
    ExtremePoints,
    bbox_extreme_points,
    extract_edges,
    extreme_points,
    median_edge_depth,
)

COLLINEAR_TOL = 1e-9


@dataclass(frozen=True)
class FittedCircle:
    cu: float       # center column, pixels
    cv: float       # center row, pixels
    r_px: float

    def __post_init__(self):
        if not (math.isfinite(self.cu) and math.isfinite(self.cv) and self.r_px > 0):
            raise DegenerateCircle(
                f"invalid circle (cu={self.cu}, cv={self.cv}, r={self.r_px})"
            )


@dataclass(frozen=True)
class FruitMeasurement:
    height_mm: float
    width_mm: float
    extremes: ExtremePoints
    median_depth_m: float
    circle: FittedCircle
    fill_ratio: float


def fit_circle(points: Union[EdgeSet, np.ndarray]) -> FittedCircle:
    """Least-squares circle through 2D points (Kasa algebraic fit).

    Solves the linearized circle equation u^2 + v^2 + A*u + B*v + C = 0 in
    closed form; exact on noiseless circular data.
    """
    pts = points.pixels if isinstance(points, EdgeSet) else np.asarray(points)
    pts = pts.reshape(-1, 2).astype(float)
    if len(pts) < 3:
        raise DegenerateCircle(f"need at least 3 points, got {len(pts)}")

    centroid = pts.mean(axis=0)
    q = pts - centroid  # centering improves conditioning and equivariance
    sv = np.linalg.svd(q, compute_uv=False)
    if sv[1] <= COLLINEAR_TOL * max(sv[0], 1.0):
        raise DegenerateCircle("points are collinear")

    a = np.column_stack([q[:, 0], q[:, 1], np.ones(len(q))])
    b = -(q[:, 0] ** 2 + q[:, 1] ** 2)
    (ca, cb, cc), *_ = np.linalg.lstsq(a, b, rcond=None)
    cu, cv = -ca / 2.0, -cb / 2.0
    r = float(np.sqrt(max(cu * cu + cv * cv - cc, 0.0)))

    return FittedCircle(float(cu + centroid[0]), float(cv + centroid[1]), r)


def fill_ratio(mask: BinaryMask, circle: FittedCircle) -> float:
    """Fraction of the circle's grid pixels covered by the mask.

    Both counts use pixel centers and only pixels of the image grid, so the
    numerator and denominator share the same discretization.
    """
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
    covered = int((inside & mask.data[v0:v1 + 1, u0:u1 + 1]).sum())
    return min(max(covered / total, 0.0), 1.0)


def measure_fruit(
    mask: BinaryMask,
    depth: DepthImage,
    k: CameraIntrinsics,
    *,
    extreme_source: str = "mask",
    bbox: Optional[Tuple[int, int, int, int]] = None,
    per_point_depth: bool = False,
) -> FruitMeasurement:
    """Measure one detection: metric height/width plus occlusion metrics.

    ``extreme_source="bbox"`` reproduces the coarser bounding-box variant of
    the endpoint choice; ``per_point_depth`` drops the shared-depth
    assumption and samples depth at each extreme pixel (falling back to the
    edge median where the sample is missing). Both default off.
    """
    if mask.is_empty():
        raise EmptyMask("cannot measure an empty mask")
    edges = extract_edges(mask)
    d = median_edge_depth(edges, depth)

    if extreme_source == "bbox":
        ext = bbox_extreme_points(bbox if bbox is not None else mask.bbox())
    elif extreme_source == "mask":
        ext = extreme_points(mask)
    else:
        raise ValueError(f"unknown extreme_source {extreme_source!r}")

    def point_depth(px: Pixel) -> float:
        if not per_point_depth:
            return d
        sample = depth.depth_m_at(px)
        return sample if sample > 0 else d

    p_top = deproject(k, ext.top, point_depth(ext.top))
    p_bot = deproject(k, ext.bottom, point_depth(ext.bottom))
    p_left = deproject(k, ext.left, point_depth(ext.left))
    p_right = deproject(k, ext.right, point_depth(ext.right))

    circle = fit_circle(edges)
    return FruitMeasurement(
        height_mm=1000.0 * distance(p_top, p_bot),
        width_mm=1000.0 * distance(p_left, p_right),
        extremes=ext,
        median_depth_m=d,
        circle=circle,
        fill_ratio=fill_ratio(mask, circle),
    )
