"""Binary instance-mask utilities.

Masks are stored as boolean (height, width) arrays. The RLE interchange
format is row-major with alternating run counts, the first count giving the
number of leading background pixels (possibly 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .errors import EmptyMask, LengthMismatch, NoValidDepth
from .geometry import DepthImage, Pixel

# Laplacian-style edge kernel: positive response on mask pixels with at
# least one background 8-neighbor (image border counts as background).
EDGE_KERNEL = np.array([[-1, -1, -1], [-1, 8, -1], [-1, -1, -1]], dtype=np.int32)

# Share of a mask's edge pixels allowed to lack a depth sample.
MAX_INVALID_EDGE_FRACTION = 0.5


@dataclass(frozen=True)
class BinaryMask:
    data: np.ndarray  # bool, shape (height, width)

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.ndim != 2:
            raise LengthMismatch(f"mask must be 2D, got shape {d.shape}")
        object.__setattr__(self, "data", d.astype(bool))

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def count(self) -> int:
        return int(self.data.sum())

    def is_empty(self) -> bool:
        return not self.data.any()

    def bbox(self) -> Tuple[int, int, int, int]:
        """Tight bounding box as (x, y, w, h)."""
        if self.is_empty():
            raise EmptyMask("empty mask has no bounding box")
        vs, us = np.nonzero(self.data)
        return (int(us.min()), int(vs.min()),
                int(us.max() - us.min() + 1), int(vs.max() - vs.min() + 1))


@dataclass(frozen=True)
class EdgeSet:
    """Edge pixels as an (n, 2) int array of (u, v), sorted by (v, u)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.int64).reshape(-1, 2)
        if len(p):
            order = np.lexsort((p[:, 0], p[:, 1]))
            p = p[order]
        object.__setattr__(self, "pixels", p)

    def __len__(self) -> int:
        return len(self.pixels)

    def as_set(self) -> set:
        return {(int(u), int(v)) for u, v in self.pixels}


class ExtremePoints(NamedTuple):
    top: Pixel
    bottom: Pixel
    left: Pixel
    right: Pixel


def decode_rle(counts: Sequence[int], size: Tuple[int, int]) -> BinaryMask:
    """Decode alternating run-length counts (background first) into a mask."""
    h, w = int(size[0]), int(size[1])
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 0):
        raise LengthMismatch("run counts must be non-negative")
    if counts.sum() != h * w:
        raise LengthMismatch(f"counts sum to {counts.sum()}, expected {h * w}")
    values = np.arange(len(counts)) % 2 == 1
    flat = np.repeat(values, counts)
    return BinaryMask(flat.reshape(h, w))


def encode_rle(mask: BinaryMask) -> dict:
    """Inverse of decode_rle; canonical form (only the first count may be 0)."""
    flat = mask.data.reshape(-1)
    if len(flat) == 0:
        return {"size": [mask.height, mask.width], "counts": []}
    change = np.nonzero(flat[1:] != flat[:-1])[0] + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [len(flat)]])
    counts = (ends - starts).tolist()
    if flat[0]:  # canonical form starts with a (possibly zero) background run
        counts = [0] + counts
    return {"size": [mask.height, mask.width], "counts": counts}


def extract_edges(mask: BinaryMask) -> EdgeSet:
    """Mask pixels whose 3x3 edge-kernel response is positive.

    Equivalent to: mask pixel with at least one zero 8-neighbor, counting
    anything outside the image as zero.
    """
    if mask.is_empty():
        return EdgeSet(np.empty((0, 2), dtype=np.int64))
    # Work on the bounding box only; everything outside is background.
    x, y, w, h = mask.bbox()
    win = mask.data[y:y + h, x:x + w]
    padded = np.pad(win, 1, mode="constant", constant_values=False)
    neighbors = np.zeros(win.shape, dtype=np.uint8)
    for dv in (-1, 0, 1):
        for du in (-1, 0, 1):
            if dv == 0 and du == 0:
                continue
            neighbors += padded[1 + dv:1 + dv + h, 1 + du:1 + du + w]
    edge = win & (neighbors < 8)
    vs, us = np.nonzero(edge)
    return EdgeSet(np.column_stack([us + x, vs + y]))


def extreme_points(mask: BinaryMask) -> ExtremePoints:
    """Topmost/bottommost/leftmost/rightmost mask pixels.

    Ties: top prefers the smaller u, bottom the larger u, left the smaller v,
    right the larger v, so the result is unique.
    """
    if mask.is_empty():
        raise EmptyMask("cannot locate extreme points of an empty mask")
    vs, us = np.nonzero(mask.data)  # sorted by (v, u) already
    top = Pixel(int(us[0]), int(vs[0]))
    bottom = Pixel(int(us[-1]), int(vs[-1]))
    by_u = np.lexsort((vs, us))
    left = Pixel(int(us[by_u[0]]), int(vs[by_u[0]]))
    right = Pixel(int(us[by_u[-1]]), int(vs[by_u[-1]]))
    return ExtremePoints(top=top, bottom=bottom, left=left, right=right)


def bbox_extreme_points(bbox: Tuple[int, int, int, int]) -> ExtremePoints:
    """Extreme points of a bounding box (x, y, w, h): edge midpoints."""
    x, y, w, h = bbox
    cu = x + (w - 1) / 2.0
    cv = y + (h - 1) / 2.0
    return ExtremePoints(
        top=Pixel(cu, y),
        bottom=Pixel(cu, y + h - 1),
        left=Pixel(x, cv),
        right=Pixel(x + w - 1, cv),
    )


def median_edge_depth(edges: EdgeSet, depth: DepthImage) -> float:
    """Lower median of the metric depths sampled at edge pixels.

    Zero samples carry no depth and are excluded; if they exceed
    ``MAX_INVALID_EDGE_FRACTION`` of the edge set the measurement is unusable.
    The lower median keeps the result an actually-observed value and
    tolerates up to half the samples being outliers.
    """
    if len(edges) == 0:
        raise NoValidDepth("edge set is empty")
    us, vs = edges.pixels[:, 0], edges.pixels[:, 1]
    samples = depth.data[vs, us]
    valid = samples[samples > 0]
    if len(samples) - len(valid) > MAX_INVALID_EDGE_FRACTION * len(samples):
        raise NoValidDepth(
            f"{len(samples) - len(valid)}/{len(samples)} edge pixels have no depth"
        )
    if len(valid) == 0:
        raise NoValidDepth("no edge pixel has a depth sample")
    ordered = np.sort(valid)
    return float(ordered[(len(ordered) - 1) // 2]) * depth.depth_scale
