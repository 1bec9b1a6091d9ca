"""Per-view fruit metrics: 3D height/width, circle fit, fill ratio.

The measurement follows the shared-depth assumption: all four extreme points
of a fruit mask are taken to lie at the same camera-frame depth, estimated as
the (lower) median depth over the mask's edge pixels.

``measure_fruit`` sizes all of a frame's masks in one pass over their
``maskops.MaskStack`` canvas, where each crop sits at column 1 below a blank
row: one erosion gives every edge pixel, whose canvas row names its mask, and
every later step is an array operation over the masks or over their pixels,
grouped by mask, except the fill ratio, which counts each mask's circle
window on its own.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateCircle, FruitGaugeError, NoValidDepth, ZeroArea
from .geometry import CameraIntrinsics, DepthImage, distance, pixel_to_ray
from .maskops import (MAX_INVALID_EDGE_FRACTION, BinaryMask, MaskStack, extract_edges,
                      extreme_points, median_edge_depth)

COLLINEAR_TOL = 1e-9
# A pixel center lies inside a circle of radius r when its squared distance
# from the center is at most r^2 (1 + ON_CIRCLE_TOL), so a center on the circle
# counts as inside whatever the last bits of the fitted circle.
ON_CIRCLE_TOL = 1e-9


class FruitMeasurement(NamedTuple):
    """Arrays over a frame's masks, and each mask's rejection or None."""

    height_mm: np.ndarray
    width_mm: np.ndarray
    median_depth_m: np.ndarray
    circle: np.ndarray      # (n, 3): cu, cv, r_px
    fill_ratio: np.ndarray
    rejections: List[Optional[FruitGaugeError]]


def fit_circle(points: np.ndarray, group: np.ndarray, n: int) -> Tuple[np.ndarray, ...]:
    """Least-squares circle through each group of 2D points (Kasa algebraic fit),
    as arrays over the ``n`` groups (``group``: non-decreasing, none empty):
    ``(cu, cv, r_px, degenerate)``. Each group solves u^2 + v^2 + A*u +
    B*v + C = 0 about its centroid from moment sums, in closed form. It has no
    circle (is degenerate) with under 3 points or collinear ones: the scatter
    matrix's smaller eigenvalue, summed along its minor axis, is at most
    ``COLLINEAR_TOL**2`` times the larger one (or 1)."""
    pts = np.asarray(points, dtype=float)
    count = np.bincount(group, minlength=n)
    starts = np.cumsum(count) - count
    centroid = np.add.reduceat(pts, starts) / count[:, None]
    q = pts - centroid[group]    # centering improves conditioning and equivariance
    qu, qv = q[:, 0], q[:, 1]
    z = qu * qu + qv * qv
    suu, suv, svv, zu, zv, zz = np.add.reduceat(
        np.column_stack([qu * qu, qu * qv, qv * qv, qu * z, qv * z, z]), starts).T
    half = np.arctan2(2 * suv, suu - svv) / 2    # the major axis' angle
    minor = np.add.reduceat((qv * np.cos(half)[group] - qu * np.sin(half)[group]) ** 2, starts)
    major = (suu + svv + np.hypot(suu - svv, 2 * suv)) / 2
    degenerate = (minor <= COLLINEAR_TOL ** 2 * np.maximum(major, 1.0)) | (count < 3)
    det = 2 * np.where(degenerate, 1.0, major * minor)
    cu, cv = (zu * svv - zv * suv) / det, (zv * suu - zu * suv) / det
    r = np.sqrt(cu * cu + cv * cv + zz / count)
    return cu + centroid[:, 0], cv + centroid[:, 1], r, degenerate


def fill_ratio(masks: Sequence[BinaryMask], circles: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Per mask, how many grid pixels of its frame its circle (a row of cu,
    cv, r_px) holds, and how many of those the mask covers: ``(covered,
    total)``. Both count pixel centers, so the covered pixels are a subset of
    the circle's; a negative radius holds none. Each circle's window, its
    bounding box clipped to the frame, is counted on its own."""
    covered, total = np.zeros(len(masks), dtype=np.int64), np.zeros(len(masks), dtype=np.int64)
    for i, (mask, (cu, cv, r)) in enumerate(zip(masks, circles.tolist())):
        u0, u1 = max(math.floor(cu - r), 0), min(math.ceil(cu + r), mask.width - 1)
        v0, v1 = max(math.floor(cv - r), 0), min(math.ceil(cv + r), mask.height - 1)
        if r < 0 or u0 > u1 or v0 > v1:
            continue
        # a row of (u - cu)^2 plus a column of (v - cv)^2
        inside = ((np.arange(u0, u1 + 1) - cu) ** 2 + (np.arange(v0, v1 + 1)[:, None] - cv) ** 2
                  <= r ** 2 * (1 + ON_CIRCLE_TOL))
        total[i] = np.count_nonzero(inside)
        covered[i] = np.count_nonzero(inside & mask.window(u0, v0, u1 - u0 + 1, v1 - v0 + 1))
    return covered, total


def measure_fruit(masks: Sequence[BinaryMask], depth: DepthImage,
                  k: CameraIntrinsics) -> FruitMeasurement:
    """Measure a frame's masks, none of them empty (``EmptyMask``): metric
    height/width, each joining two extreme points deprojected at the mask's
    edge-median depth, plus occlusion metrics. A mask's rejection is its first
    failed check of ``NoValidDepth``, ``DegenerateCircle`` (too few edge pixels,
    then collinear ones) and ``ZeroArea``."""
    if not masks:
        return FruitMeasurement(*[np.zeros(0)] * 5, [])
    stack, n = MaskStack.of(masks), len(masks)
    edges = extract_edges(stack.canvas)
    crop = np.searchsorted(stack.top, edges[:, 1], side="right") - 1
    edges += stack.offset[crop]
    d, count, invalid = median_edge_depth(edges, crop, n, depth)
    cu, cv, r, degenerate = fit_circle(edges, crop, n)
    no_depth = invalid > MAX_INVALID_EDGE_FRACTION * count
    covered, total = fill_ratio(masks, np.column_stack(
        [cu, cv, np.where(no_depth | degenerate, -1.0, r)]))

    rejections: List[Optional[FruitGaugeError]] = [None] * n
    counts, invalids = count.tolist(), invalid.tolist()
    for failed, reject in (
            (no_depth, lambda i: NoValidDepth(f"{invalids[i]}/{counts[i]} edge pixels "
                                              "have no depth")),
            (count < 3, lambda i: DegenerateCircle(f"need at least 3 points, got {counts[i]}")),
            (degenerate, lambda i: DegenerateCircle("points are collinear")),
            (total == 0, lambda i: ZeroArea("fitted circle covers no image pixels"))):
        for i in np.flatnonzero(failed).tolist():
            rejections[i] = rejections[i] or reject(i)

    # (top, bottom, left, right) x masks x (u, v), in the frame, at each mask's depth
    ext = extreme_points(stack.canvas, stack.top, stack.width) + stack.offset
    xn, yn = pixel_to_ray(k, ext[..., 0], ext[..., 1])
    points = np.stack([xn * d, yn * d, np.broadcast_to(d, xn.shape)], axis=-1)
    return FruitMeasurement(1000.0 * distance(points[0], points[1]),
                            1000.0 * distance(points[2], points[3]), d,
                            np.column_stack([cu, cv, r]), covered / np.maximum(total, 1),
                            rejections)
