"""Binary instance-mask utilities.

A mask stores only its tight bounding-box crop: ``data[r, c]`` is pixel
(x0 + c, y0 + r) of a ``height`` x ``width`` frame, and every pixel outside
the crop is background. An empty mask holds a 0x0 crop at (0, 0). A fruit
covers well under 1% of a frame, so every operation here reads the crop (or
a window clipped to it), never the whole frame.

A mask's edge is the mask minus its 3x3 erosion: the mask pixels with at
least one background 8-neighbor, anything outside the frame counting as
background. Edge pixels are an (n, 2) int64 array of (u, v) rows, listed in
row-major (v, u) order.

A frame's non-empty masks are measured together on one canvas, a
``MaskStack``. The canvas is a ``BinaryMask`` that holds every crop at column
1, with a blank row above each crop: crop i fills canvas rows ``top[i]`` to
``top[i + 1] - 2`` and columns 1 to ``width[i]``, and its canvas pixel (c, r)
is frame pixel (c, r) + ``offset[i]``. No two crops touch, so one erosion of
the canvas gives every crop's edge, each crop's pixels in its own row-major
order, and a canvas row alone names its crop.

The RLE interchange format (COCO-style) is row-major over the whole frame,
with alternating run counts, the first count giving the number of leading
background pixels (possibly 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptyMask, LengthMismatch, NoValidDepth
from .geometry import DepthImage, Pixel

# Share of a mask's edge pixels allowed to lack a depth sample.
MAX_INVALID_EDGE_FRACTION = 0.5


@dataclass(frozen=True)
class BinaryMask:
    """Instance mask of a (height, width) ``frame``, held as its tight bbox crop.

    ``data`` with offset (``x0``, ``y0``) may be any 2D window of the frame,
    or with ``frame`` None the whole frame; construction trims it to the
    tight crop of its nonzero pixels and copies it as bool.
    """

    data: np.ndarray
    x0: int = 0
    y0: int = 0
    frame: Optional[Tuple[int, int]] = None   # (height, width); None: ``data`` is the frame

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.ndim != 2:
            raise LengthMismatch(f"mask must be 2D, got shape {d.shape}")
        h, w = d.shape if self.frame is None else self.frame
        x0, y0 = self.x0, self.y0
        if not (0 <= x0 and 0 <= y0 and x0 + d.shape[1] <= w and y0 + d.shape[0] <= h):
            raise LengthMismatch(f"{d.shape} mask window at ({x0}, {y0}) "
                                 f"exceeds the {h}x{w} frame")
        rows = np.flatnonzero(d.any(axis=1))
        if len(rows) == 0:
            d, x0, y0 = np.zeros((0, 0), dtype=bool), 0, 0
        else:
            cols = np.flatnonzero(d.any(axis=0))
            d = d[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1].astype(bool)
            x0, y0 = x0 + int(cols[0]), y0 + int(rows[0])
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "x0", int(x0))
        object.__setattr__(self, "y0", int(y0))
        object.__setattr__(self, "frame", (int(h), int(w)))

    # The crop is always tight, so equal masks have equal frame, offset and crop.
    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMask):
            return NotImplemented
        return ((self.frame, self.x0, self.y0) == (other.frame, other.x0, other.y0)
                and np.array_equal(self.data, other.data))

    def __hash__(self) -> int:
        return hash((self.frame, self.x0, self.y0, self.data.shape, self.data.tobytes()))

    @property
    def width(self) -> int:
        return self.frame[1]

    @property
    def height(self) -> int:
        return self.frame[0]

    def is_empty(self) -> bool:
        return self.data.size == 0

    def bbox(self) -> Tuple[int, int, int, int]:
        """Tight bounding box as (x, y, w, h)."""
        if self.is_empty():
            raise EmptyMask("empty mask has no bounding box")
        return (self.x0, self.y0, self.data.shape[1], self.data.shape[0])

    def window(self, x: int, y: int, w: int, h: int) -> np.ndarray:
        """The mask over frame pixels x..x+w-1, y..y+h-1 as a (h, w) bool array."""
        out = np.zeros((h, w), dtype=bool)
        ch, cw = self.data.shape
        u0, u1 = max(x, self.x0), min(x + w, self.x0 + cw)
        v0, v1 = max(y, self.y0), min(y + h, self.y0 + ch)
        if u0 < u1 and v0 < v1:
            crop = self.data[v0 - self.y0:v1 - self.y0, u0 - self.x0:u1 - self.x0]
            out[v0 - y:v1 - y, u0 - x:u1 - x] = crop
        return out


class MaskStack(NamedTuple):
    """A frame's non-empty masks on one canvas (see the module docstring)."""

    canvas: BinaryMask
    top: np.ndarray     # (n + 1,) int64: top[i] is crop i's first canvas row
    width: np.ndarray   # (n,) int64
    offset: np.ndarray  # (n, 2) int64: frame pixel minus canvas pixel

    @classmethod
    def of(cls, masks: Sequence[BinaryMask]) -> "MaskStack":
        if any(m.is_empty() for m in masks):
            raise EmptyMask("cannot stack an empty mask")
        h, w, x0, y0 = np.array([(*m.data.shape, m.x0, m.y0) for m in masks],
                                dtype=np.int64).reshape(-1, 4).T
        top = np.cumsum(np.concatenate([[1], h + 1]))
        data = np.zeros((max(top[-1] - 2, 0), w.max(initial=0)), dtype=bool)
        for m, row in zip(masks, top.tolist()):  # canvas pixel (c, r) is data[r - 1, c - 1]
            data[row - 1:row - 1 + m.data.shape[0], :m.data.shape[1]] = m.data
        return cls(BinaryMask(data, 1, 1, (len(data) + 2, data.shape[1] + 2)), top, w,
                   np.column_stack([x0 - 1, y0 - top[:-1]]))


def decode_rle(counts: Sequence[int], size: Tuple[int, int]) -> BinaryMask:
    """Decode alternating run-length counts (background first) into a mask
    of ``size`` (height, width); both hold ints, not floats, strings or bools.

    Only the rows from the first to the last foreground run are expanded.
    """
    if not (isinstance(size, (list, tuple)) and len(size) == 2
            and all(type(v) is int and v >= 0 for v in size)):
        raise LengthMismatch(f"mask size must be two non-negative integers, got {size!r}")
    if (not isinstance(counts, (list, tuple)) or not set(map(type, counts)) <= {int}
            or min(counts, default=0) < 0):
        raise LengthMismatch("run counts must be non-negative integers")
    h, w = size
    bounds = list(accumulate(counts, initial=0))  # run i covers bounds[i]..bounds[i + 1] - 1
    if bounds[-1] != h * w:
        raise LengthMismatch(f"counts sum to {bounds[-1]}, expected {h * w}")
    runs = [i for i in range(1, len(counts), 2) if counts[i]]
    if not runs:
        return BinaryMask(np.zeros((0, 0), dtype=bool), frame=(h, w))
    first, last = bounds[runs[0]], bounds[runs[-1] + 1]
    lo, hi = first // w * w, -(-last // w) * w  # whole rows holding foreground
    window = [first - lo, *counts[runs[0]:runs[-1] + 1], hi - last]
    flat = np.repeat(np.arange(len(window)) % 2 == 1, window)
    return BinaryMask(flat.reshape(-1, w), 0, lo // w, (h, w))


def encode_rle(mask: BinaryMask) -> dict:
    """Inverse of decode_rle; canonical form (only the first count may be 0)."""
    h, w = mask.frame
    if mask.is_empty():
        return {"size": [h, w], "counts": [h * w] if h * w else []}
    # with one background column on each side, a row's foreground run starts
    # at each change from background, and ends one before each change back
    ch, cw = mask.data.shape
    padded = np.zeros((ch, cw + 2), dtype=bool)
    padded[:, 1:-1] = mask.data
    rows, cols = np.nonzero(padded[:, 1:] != padded[:, :-1])
    flat = (rows + mask.y0) * w + cols + mask.x0
    starts, ends = flat[0::2], flat[1::2]
    # a run that reaches the right border continues on the next row
    joined = starts[1:] == ends[:-1]
    starts = np.concatenate([starts[:1], starts[1:][~joined]])
    ends = np.concatenate([ends[:-1][~joined], ends[-1:]])
    background = starts - np.concatenate([[0], ends[:-1]])
    counts = np.column_stack([background, ends - starts]).ravel().tolist()
    tail = h * w - int(ends[-1])
    return {"size": [h, w], "counts": counts + [tail] if tail else counts}


def extract_edges(mask: BinaryMask) -> np.ndarray:
    """The mask minus its 3x3 erosion as an (n, 2) int64 array of (u, v), in
    row-major (v, u) order: the mask pixels with at least one background
    8-neighbor, counting anything outside the crop (and so the frame) as
    background.

    The erosion is the AND over each pixel's 3x3 neighborhood of the
    background-padded crop, taken as a 3-wide AND along rows, then columns.
    """
    win = mask.data
    h, w = win.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = win
    rows = padded[:, :-2] & padded[:, 1:-1] & padded[:, 2:]
    interior = rows[:-2] & rows[1:-1] & rows[2:]
    vs, us = np.nonzero(win & ~interior)
    pixels = np.empty((len(us), 2), dtype=np.int64)
    pixels[:, 0] = us + mask.x0
    pixels[:, 1] = vs + mask.y0
    return pixels


def extreme_points(mask: BinaryMask, top: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The top, bottom, left and right pixels of each crop of the ``MaskStack``
    canvas ``mask`` with that stack's ``top`` and ``width`` (at least one crop),
    as a (4, n, 2) int64 array of (u, v) canvas pixels. Ties: top prefers the
    smaller u, bottom the larger u, left the smaller v, right the larger v.
    Every crop is tight, so each of its four border lines holds a mask pixel."""
    d, rows = mask.data, np.arange(len(mask.data))
    first, last = top[:-1] - 1, top[1:] - 3    # data rows of each crop's first and last row
    lefts = np.flatnonzero(d[:, 0])
    # the data rows whose crop's last column holds a mask pixel there
    rights = np.flatnonzero(d[rows, width[np.searchsorted(first, rows, side="right") - 1] - 1])
    return np.array([
        np.argmax(d[first], axis=1), first,
        d.shape[1] - 1 - np.argmax(d[last, ::-1], axis=1), last,
        np.zeros_like(first), lefts[np.searchsorted(lefts, first)],
        width - 1, rights[np.searchsorted(rights, last, side="right") - 1],
    ]).reshape(4, 2, -1).transpose(0, 2, 1) + 1


def median_edge_depth(edges: np.ndarray, crop: np.ndarray, n: int, depth: DepthImage):
    """Per crop, the lower median of the metric depths sampled at its edge
    pixels, its edge-pixel count and how many of them have no sample, from the
    frame pixels ``edges`` of the crops ``crop`` (non-decreasing, below ``n``).
    Zero samples carry no depth and are excluded. The lower median is an
    observed value and tolerates up to half the samples being outliers. One
    sort of ``crop * 65536 + sample`` puts each crop's samples in a block."""
    samples = depth.data[edges[:, 1], edges[:, 0]].astype(np.int64)
    count = np.bincount(crop, minlength=n)
    invalid = np.bincount(crop[samples == 0], minlength=n)
    ordered = np.sort(crop * 65536 + samples)
    # each crop's block is its zeros, then its valid samples in order
    at = np.cumsum(count) - count + invalid + (count - invalid - 1) // 2
    return (ordered[at] % 65536).astype(float) * depth.depth_scale, count, invalid


def nearest_mask_depth(mask: BinaryMask, depth: DepthImage, px: Pixel) -> float:
    """Metric depth at the mask pixel nearest ``px`` that has a depth sample.

    Reads only the mask's crop of ``depth``, which must be the mask's frame.
    Exact distance ties go to the first such pixel in row-major order. When
    ``px`` is itself a mask pixel with a sample, at distance 0, it is read at
    once without a search.
    """
    (h, w), x, y = mask.data.shape, mask.x0, mask.y0
    samples = depth.data[y:y + h, x:x + w]
    u, v = px.u - x, px.v - y
    if 0 <= u < w and 0 <= v < h and u == int(u) and v == int(v):
        u, v = int(u), int(v)
        if mask.data[v, u] and samples[v, u]:
            return float(samples[v, u]) * depth.depth_scale
    vs, us = np.nonzero(mask.data & (samples > 0))
    if len(us) == 0:
        raise NoValidDepth("no mask pixel has a depth sample")
    i = int(np.argmin((us + x - px.u) ** 2 + (vs + y - px.v) ** 2))
    return float(samples[vs[i], us[i]]) * depth.depth_scale
