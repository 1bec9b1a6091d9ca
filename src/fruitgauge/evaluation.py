"""Ground-truth comparison: RMSE, accuracy, and per-camera/fused reports.

Accuracy is reported as 1 - RMSE/mean_truth (the reading consistent with the
published per-camera result tables); the raw ratio RMSE/mean_truth is kept
alongside as ``relative_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    AmbiguousMatch,
    EmptyInput,
    LengthMismatch,
    UnmatchedMeasurement,
    ZeroMean,
)
from .geometry import Point3

if TYPE_CHECKING:
    from .fileio import Record


@dataclass(frozen=True)
class GroundTruthRecord:
    fruit_id: str
    height_mm: float
    width_mm: float
    center_world: Optional[Point3] = None

    def __post_init__(self):
        if not (0 < self.height_mm < math.inf and 0 < self.width_mm < math.inf
                and all(map(math.isfinite, self.center_world or ()))):
            raise ValueError("ground-truth sizes must be finite and positive, the center finite")


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


def match_measurements(
    measurements: Sequence[Record],
    truth: Sequence[GroundTruthRecord],
) -> List[Tuple[Record, GroundTruthRecord]]:
    """Pair each measurement with exactly one truth record.

    Measurements are read by attribute: ``camera_id``, ``fruit_id`` and
    ``center_world_m`` (a Point3).

    ``fruit_id`` matching is used when every measurement carries an id;
    otherwise each measurement is matched to the nearest truth center,
    rejected as ambiguous unless the second-nearest center is more than twice
    as far.
    """
    if all(m.fruit_id for m in measurements):
        by_id = {t.fruit_id: t for t in truth}
        pairs = []
        for m in measurements:
            if m.fruit_id not in by_id:
                raise UnmatchedMeasurement(
                    f"no ground truth for fruit_id {m.fruit_id!r} "
                    f"(camera {m.camera_id})"
                )
            pairs.append((m, by_id[m.fruit_id]))
        return pairs

    with_centers = [t for t in truth if t.center_world is not None]
    if not with_centers:
        raise UnmatchedMeasurement("center matching needs truth world centers")
    centers = np.array([t.center_world.to_array() for t in with_centers])
    pairs = []
    for m in measurements:
        d = np.linalg.norm(centers - m.center_world_m.to_array(), axis=1)
        order = np.argsort(d, kind="stable")
        nearest = float(d[order[0]])
        if len(d) > 1:
            second = float(d[order[1]])
            if second <= 2.0 * nearest:
                raise AmbiguousMatch(
                    f"measurement at {m.center_world_m} is {nearest:.4f} m from "
                    f"{with_centers[order[0]].fruit_id} but {second:.4f} m from "
                    f"{with_centers[order[1]].fruit_id}"
                )
        pairs.append((m, with_centers[order[0]]))
    return pairs


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


def _dimension_stats(measured: List[float], truths: List[float]) -> DimensionStats:
    e = rmse(measured, truths)
    mean_truth = float(np.mean(truths))
    return DimensionStats(
        rmse_mm=e,
        accuracy=accuracy(e, mean_truth),
        relative_error=relative_error(e, mean_truth),
        mean_truth_mm=mean_truth,
    )


def _make_row(camera_id: str,
              pairs: List[Tuple[Record, GroundTruthRecord]]) -> CameraRow:
    if not pairs:
        return CameraRow(camera_id, 0, None, None, None)
    return CameraRow(
        camera_id=camera_id,
        n=len(pairs),
        mean_fill_ratio=float(np.mean([m.fill_ratio for m, _ in pairs])),
        height=_dimension_stats([m.height_mm for m, _ in pairs],
                                [t.height_mm for _, t in pairs]),
        width=_dimension_stats([m.width_mm for m, _ in pairs],
                               [t.width_mm for _, t in pairs]),
    )


def evaluate_run(
    chosen: Sequence[Record],
    per_camera: Mapping[str, Sequence[Record]],
    truth: Sequence[GroundTruthRecord],
) -> EvalReport:
    """Per-camera rows plus one fused row from the selected measurements.

    Mean truth sizes are computed over the matched pairs of each row, so a
    camera that misses fruits is judged against what it saw; ``n`` makes the
    coverage explicit.
    """
    rows = [
        _make_row(camera_id, match_measurements(measurements, truth))
        for camera_id, measurements in per_camera.items()
    ]
    rows.append(_make_row("fused", match_measurements(chosen, truth)))
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
