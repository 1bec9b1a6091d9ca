"""Ground-truth comparison: RMSE, accuracy, and per-camera/fused reports.

Accuracy is reported as 1 - RMSE/mean_truth (the reading consistent with the
published per-camera result tables); the raw ratio RMSE/mean_truth is kept
alongside as ``relative_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .errors import (
    AmbiguousMatch,
    EmptyInput,
    LengthMismatch,
    UnknownCamera,
    UnmatchedMeasurement,
    ZeroMean,
)
from .geometry import Point3

if TYPE_CHECKING:
    from .fileio import RecordTable


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
    measurements: RecordTable,
    rows: Sequence[int],
    truth: Sequence[GroundTruthRecord],
) -> List[GroundTruthRecord]:
    """The one truth record that each of ``rows`` of the table matches.

    ``fruit_id`` matching is used when every one of the rows carries an id;
    otherwise each is matched to the nearest truth center, rejected as
    ambiguous unless the second-nearest center is more than twice as far.
    """
    ids = [measurements.fruit_id[i] for i in rows]
    if all(ids):
        by_id = {t.fruit_id: t for t in truth}
        try:
            return [by_id[fruit_id] for fruit_id in ids]
        except KeyError as e:
            row = rows[ids.index(e.args[0])]
            raise UnmatchedMeasurement(f"no ground truth for fruit_id {e.args[0]!r} "
                                       f"(camera {measurements.camera_id[row]})") from None

    with_centers = [t for t in truth if t.center_world is not None]
    if not with_centers:
        raise UnmatchedMeasurement("center matching needs truth world centers")
    centers = np.array([t.center_world.to_array() for t in with_centers])
    matched = []
    for i in rows:
        d = np.linalg.norm(centers - measurements.center_world_m[i], axis=1)
        order = np.argsort(d, kind="stable")
        nearest = float(d[order[0]])
        if len(d) > 1:
            second = float(d[order[1]])
            if second <= 2.0 * nearest:
                raise AmbiguousMatch(
                    f"measurement at {Point3._make(measurements.center_world_m[i].tolist())} "
                    f"is {nearest:.4f} m from {with_centers[order[0]].fruit_id} but "
                    f"{second:.4f} m from {with_centers[order[1]].fruit_id}"
                )
        matched.append(with_centers[order[0]])
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


def _dimension_stats(measured: Sequence[float], truths: List[float]) -> DimensionStats:
    e = rmse(measured, truths)
    mean_truth = float(np.mean(truths))
    return DimensionStats(
        rmse_mm=e,
        accuracy=accuracy(e, mean_truth),
        relative_error=relative_error(e, mean_truth),
        mean_truth_mm=mean_truth,
    )


def _make_row(camera_id: str, records: RecordTable, rows: List[int],
              truth: Sequence[GroundTruthRecord]) -> CameraRow:
    if not rows:
        return CameraRow(camera_id, 0, None, None, None)
    matched = match_measurements(records, rows, truth)
    return CameraRow(
        camera_id=camera_id,
        n=len(rows),
        mean_fill_ratio=float(np.mean(records.fill_ratio[rows])),
        height=_dimension_stats(records.height_mm[rows], [t.height_mm for t in matched]),
        width=_dimension_stats(records.width_mm[rows], [t.width_mm for t in matched]),
    )


def evaluate_run(
    chosen: RecordTable,
    records: RecordTable,
    truth: Sequence[GroundTruthRecord],
) -> EvalReport:
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
