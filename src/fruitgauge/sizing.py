"""Per-view fruit metrics: 3D height/width, circle fit, fill ratio.

The measurement follows the shared-depth assumption: all four extreme points
of a fruit mask are taken to lie at the same camera-frame depth, estimated as
the (lower) median depth over the mask's edge pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCircle, EmptyMask, ZeroArea
from .geometry import CameraIntrinsics, DepthImage, deproject, distance
from .maskops import BinaryMask, extract_edges, extreme_points, median_edge_depth

COLLINEAR_TOL = 1e-9


@dataclass(frozen=True)
class FittedCircle:
    cu: float       # center column, pixels
    cv: float       # center row, pixels
    r_px: float

    def __post_init__(self):
        if not (math.isfinite(self.cu) and math.isfinite(self.cv) and 0 < self.r_px < math.inf):
            raise DegenerateCircle(
                f"invalid circle (cu={self.cu}, cv={self.cv}, r_px={self.r_px})"
            )


@dataclass(frozen=True)
class FruitMeasurement:
    height_mm: float
    width_mm: float
    median_depth_m: float
    circle: FittedCircle
    fill_ratio: float


def fit_circle(points: np.ndarray) -> FittedCircle:
    """Least-squares circle through 2D points (Kasa algebraic fit).

    Solves the linearized circle equation u^2 + v^2 + A*u + B*v + C = 0 in
    closed form; exact on noiseless circular data.
    """
    pts = np.asarray(points).reshape(-1, 2).astype(float)
    if len(pts) < 3:
        raise DegenerateCircle(f"need at least 3 points, got {len(pts)}")

    centroid = pts.mean(axis=0)
    q = pts - centroid  # centering improves conditioning and equivariance
    sv = np.linalg.svd(q, compute_uv=False)
    if sv[1] <= COLLINEAR_TOL * max(sv[0], 1.0):
        raise DegenerateCircle("points are collinear")

    a = np.ones((len(q), 3))
    a[:, :2] = q
    b = -(q[:, 0] ** 2 + q[:, 1] ** 2)
    (ca, cb, cc), *_ = np.linalg.lstsq(a, b, rcond=None)
    cu, cv = -ca / 2.0, -cb / 2.0
    r = float(np.sqrt(max(cu * cu + cv * cv - cc, 0.0)))

    return FittedCircle(float(cu + centroid[0]), float(cv + centroid[1]), r)


def fill_ratio(mask: BinaryMask, circle: FittedCircle) -> float:
    """Fraction of the circle's grid pixels covered by the mask.

    Both counts use pixel centers and only pixels of the image grid, so the
    numerator and denominator share the same discretization; the covered
    pixels are a subset of the circle's, so the ratio lies in [0, 1].
    """
    cu, cv, r = circle.cu, circle.cv, circle.r_px
    u0, u1 = max(math.floor(cu - r), 0), min(math.ceil(cu + r), mask.width - 1)
    v0, v1 = max(math.floor(cv - r), 0), min(math.ceil(cv + r), mask.height - 1)
    if u0 > u1 or v0 > v1:
        raise ZeroArea("fitted circle covers no image pixels")
    # a row of (u - cu)^2 plus a column of (v - cv)^2
    inside = ((np.arange(u0, u1 + 1) - cu) ** 2
              + (np.arange(v0, v1 + 1)[:, None] - cv) ** 2 <= r ** 2)
    total = int(np.count_nonzero(inside))
    if total == 0:
        raise ZeroArea("fitted circle covers no image pixels")
    return int(np.count_nonzero(inside & mask.window(u0, v0, u1 - u0 + 1, v1 - v0 + 1))) / total


def measure_fruit(mask: BinaryMask, depth: DepthImage, k: CameraIntrinsics) -> FruitMeasurement:
    """Measure one detection: metric height/width plus occlusion metrics.

    Height and width join the mask's extreme points, each deprojected at the
    edge-median depth.
    """
    if mask.is_empty():
        raise EmptyMask("cannot measure an empty mask")
    edges = extract_edges(mask)
    d = median_edge_depth(edges, depth)
    ext = extreme_points(mask)
    circle = fit_circle(edges)
    return FruitMeasurement(
        height_mm=1000.0 * distance(deproject(k, ext.top, d), deproject(k, ext.bottom, d)),
        width_mm=1000.0 * distance(deproject(k, ext.left, d), deproject(k, ext.right, d)),
        median_depth_m=d,
        circle=circle,
        fill_ratio=fill_ratio(mask, circle),
    )
