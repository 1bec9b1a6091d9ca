"""Ground-truth comparison: RMSE, accuracy, and per-camera/fused reports.

Accuracy is reported as 1 - RMSE/mean_truth (the reading consistent with the
published per-camera result tables); the raw ratio RMSE/mean_truth is kept
alongside as ``relative_error``.

Each report row matches its records to rows of a ``TruthTable``: by
``fruit_id`` when every record of the row carries one, else each to the
nearest truth center, ties to the lower truth row. Distances are those of
``np.linalg.norm``, taken for a block of records at a time (``row_blocks`` of
records by truth centers); the first record in row order whose second-nearest
center is at most twice as far as its nearest raises ``AmbiguousMatch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (AmbiguousMatch, EmptyInput, LengthMismatch, UnknownCamera,
                     UnmatchedMeasurement, ZeroMean)
from .geometry import Point3, row_blocks

if TYPE_CHECKING:
    from .fileio import RecordTable


def check_truth(height_mm: float, width_mm: float, center: Sequence[float] = ()) -> None:
    """Raises ``ValueError`` unless both sizes are finite and positive and
    every coordinate of ``center`` is finite."""
    if not (0 < height_mm < math.inf and 0 < width_mm < math.inf
            and all(map(math.isfinite, center))):
        raise ValueError("ground-truth sizes must be finite and positive, the center finite")


class GroundTruthRecord(NamedTuple):
    """A truth fruit, the row ``write_ground_truth_csv`` takes: a scene's
    ``SceneFruits`` iterate as these, and fuse_8k's generator builds them.
    ``check_truth`` checks it where truth crosses the file boundary."""

    fruit_id: str
    height_mm: float
    width_mm: float
    center_world: Optional[Point3] = None


@dataclass(eq=False)
class TruthTable:
    """Truth fruits as columns, row i holding fruit i; ``center_world_m`` is
    (n, 3), NaN in the row of a fruit without a center."""

    fruit_id: List[str]
    height_mm: np.ndarray
    width_mm: np.ndarray
    center_world_m: np.ndarray


def rmse(measured: Sequence[float], truth: Sequence[float]) -> float:
    """Root-mean-square error."""
    if len(measured) == 0:
        raise EmptyInput("rmse over empty input")
    if len(measured) != len(truth):
        raise LengthMismatch(f"{len(measured)} measurements vs {len(truth)} truths")
    m = np.asarray(measured, dtype=float)
    t = np.asarray(truth, dtype=float)
    return float(np.sqrt(np.mean((t - m) ** 2)))


def accuracy(rmse_mm: float, mean_truth_mm: float) -> float:
    """1 - RMSE / mean reference size."""
    if mean_truth_mm <= 0:
        raise ZeroMean(f"mean truth must be positive, got {mean_truth_mm}")
    return 1.0 - rmse_mm / mean_truth_mm


def relative_error(rmse_mm: float, mean_truth_mm: float) -> float:
    """RMSE / mean reference size (the complementary reading)."""
    if mean_truth_mm <= 0:
        raise ZeroMean(f"mean truth must be positive, got {mean_truth_mm}")
    return rmse_mm / mean_truth_mm


def match_measurements(measurements: RecordTable, rows: Sequence[int],
                       truth: TruthTable) -> np.ndarray:
    """The truth row that each of ``rows`` of the table matches, by
    ``fruit_id`` or by nearest center as the module docstring sets out."""
    ids = [measurements.fruit_id[i] for i in rows]
    if all(ids):
        by_id = {fruit_id: t for t, fruit_id in enumerate(truth.fruit_id)}
        try:
            return np.array([by_id[fruit_id] for fruit_id in ids], dtype=np.intp)
        except KeyError as e:
            row = rows[ids.index(e.args[0])]
            raise UnmatchedMeasurement(f"no ground truth for fruit_id {e.args[0]!r} "
                                       f"(camera {measurements.camera_id[row]})") from None

    with_centers = np.flatnonzero(~np.isnan(truth.center_world_m[:, 0]))
    if not len(with_centers):
        raise UnmatchedMeasurement("center matching needs truth world centers")
    cx, cy, cz = truth.center_world_m[with_centers].T
    points = measurements.center_world_m[rows]
    matched = np.empty(len(rows), dtype=np.intp)
    for block in row_blocks(len(rows), len(with_centers)):
        x, y, z = points[block].T[..., None]
        d = np.sqrt((cx - x) ** 2 + (cy - y) ** 2 + (cz - z) ** 2)
        nearest = d.argmin(axis=1)
        matched[block] = with_centers[nearest]
        if len(with_centers) == 1:
            continue
        at = np.arange(len(d))
        near = d[at, nearest]
        d[at, nearest] = np.inf
        second = d.argmin(axis=1)
        second[second == nearest] = 1   # every distance infinite: the nearest is 0
        far = d[at, second]
        ambiguous = np.flatnonzero(far <= 2.0 * near)
        if len(ambiguous):
            i = ambiguous[0]
            raise AmbiguousMatch(
                f"measurement at {Point3._make(points[block][i].tolist())} is {near[i]:.4f} m "
                f"from {truth.fruit_id[with_centers[nearest[i]]]} but {far[i]:.4f} m from "
                f"{truth.fruit_id[with_centers[second[i]]]}")
    return matched


@dataclass(frozen=True)
class DimensionStats:
    rmse_mm: float
    accuracy: float
    relative_error: float
    mean_truth_mm: float


@dataclass(frozen=True)
class CameraRow:
    camera_id: str               # a rig camera id, or "fused"
    n: int
    mean_fill_ratio: Optional[float]
    height: Optional[DimensionStats]
    width: Optional[DimensionStats]


@dataclass(frozen=True)
class EvalReport:
    rows: List[CameraRow]


def _dimension_stats(measured: Sequence[float], truths: Sequence[float]) -> DimensionStats:
    e = rmse(measured, truths)
    mean_truth = float(np.mean(truths))
    return DimensionStats(e, accuracy(e, mean_truth), relative_error(e, mean_truth),
                          mean_truth)


def _make_row(camera_id: str, records: RecordTable, rows: List[int],
              truth: TruthTable) -> CameraRow:
    if not rows:
        return CameraRow(camera_id, 0, None, None, None)
    matched = match_measurements(records, rows, truth)
    return CameraRow(camera_id, len(rows), float(np.mean(records.fill_ratio[rows])),
                     _dimension_stats(records.height_mm[rows], truth.height_mm[matched]),
                     _dimension_stats(records.width_mm[rows], truth.width_mm[matched]))


def evaluate_run(chosen: RecordTable, records: RecordTable, truth: TruthTable) -> EvalReport:
    """One row per camera of ``records``, in order of first appearance, plus
    one fused row from the selected measurements ``chosen``. A camera whose
    id is the fused row's, ``fused``, raises ``UnknownCamera``.

    Mean truth sizes are computed over the matched pairs of each row, so a
    camera that misses fruits is judged against what it saw; ``n`` makes the
    coverage explicit.
    """
    per_camera: Dict[str, List[int]] = {}
    for i, camera_id in enumerate(records.camera_id):
        per_camera.setdefault(camera_id, []).append(i)
    if "fused" in per_camera:
        raise UnknownCamera("camera id 'fused' is taken by the fused report row")
    rows = [_make_row(camera_id, records, idx, truth) for camera_id, idx in per_camera.items()]
    rows.append(_make_row("fused", chosen, list(range(len(chosen))), truth))
    return EvalReport(rows)


def format_report_text(report: EvalReport) -> str:
    """Plain-text tables, one per camera plus the fused selection."""
    lines = []
    for r in report.rows:
        title = "Fused (fill-ratio selection)" if r.camera_id == "fused" \
            else f"{r.camera_id.capitalize()} Camera"
        lines.append(f"{title:<30}{'RMSE (mm)':>12}{'Accuracy':>12}")
        for name, d in (("Height", r.height), ("Width", r.width)):
            if d is None:
                lines.append(f"{name:<30}{'n/a':>12}{'n/a':>12}")
            else:
                lines.append(f"{name:<30}{d.rmse_mm:>12.4f}{d.accuracy:>12.4f}")
        fill = "n/a" if r.mean_fill_ratio is None else f"{r.mean_fill_ratio:.6f}"
        lines.append(f"n = {r.n}, mean fill ratio = {fill}")
        lines.append("")
    return "\n".join(lines)
