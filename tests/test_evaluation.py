from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from fruitgauge.errors import (
    AmbiguousMatch,
    EmptyInput,
    LengthMismatch,
    UnmatchedMeasurement,
    ZeroMean,
)
from fruitgauge.evaluation import (
    GroundTruthRecord,
    accuracy,
    evaluate_run,
    format_report_text,
    match_measurements,
    relative_error,
    report_to_dict,
    rmse,
)
from fruitgauge.geometry import Point3

# (rmse_mm, mean_mm, published accuracy) for every table row:
# top, middle, bottom cameras and the fused fill-ratio selection
PUBLISHED_ROWS = [
    (3.8889, 39.4, 0.9013),
    (1.8499, 46.7, 0.9604),
    (3.3021, 39.4, 0.9162),
    (2.6819, 46.7, 0.9426),
    (9.9547, 39.4, 0.7473),
    (5.9701, 46.7, 0.8722),
    (3.4920, 39.4, 0.9114),
    (2.6000, 46.7, 0.9443),
]


class TestRmse:
    def test_exact_measurements_give_zero(self):
        assert rmse([39.4, 46.7, 40.0], [39.4, 46.7, 40.0]) == 0.0

    def test_hand_computed_two_errors(self):
        # errors {3, 4}: sqrt((9 + 16) / 2) = sqrt(12.5)
        assert rmse([10.0, 10.0], [13.0, 14.0]) == pytest.approx(3.5355339, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            rmse([], [])

    def test_scales_linearly(self, rng):
        truth = rng.uniform(30, 50, size=12)
        errors = rng.normal(0, 3, size=12)
        base = rmse(list(truth + errors), list(truth))
        for c in (0.5, 2.0, 7.0):
            assert rmse(list(truth + c * errors), list(truth)) \
                == pytest.approx(c * base, rel=1e-12)

    def test_joint_permutation_equivariance(self, rng):
        measured = list(rng.uniform(30, 50, size=10))
        truth = list(rng.uniform(30, 50, size=10))
        base = rmse(measured, truth)
        order = rng.permutation(10)
        assert rmse([measured[i] for i in order], [truth[i] for i in order]) \
            == pytest.approx(base, rel=1e-12)

    def test_optional_weights(self):
        assert rmse([0.0], [4.0], weights=[2.0]) == pytest.approx(2.0)


class TestAccuracy:
    @pytest.mark.parametrize("rmse_mm,mean__mm,published", PUBLISHED_ROWS)
    def test_published_table_rows(self, rmse_mm, mean__mm, published):
        assert accuracy(rmse_mm, mean__mm) == pytest.approx(published, abs=1e-4)

    def test_zero_rmse_is_perfect(self):
        assert accuracy(0.0, 39.4) == 1.0

    def test_zero_mean_rejected(self):
        with pytest.raises(ZeroMean):
            accuracy(1.0, 0.0)

    def test_relative_error_is_the_literal_ratio(self):
        assert relative_error(3.4920, 39.4) == pytest.approx(0.0886, abs=1e-4)
        assert relative_error(3.4920, 39.4) + accuracy(3.4920, 39.4) == pytest.approx(1.0)

    def test_accuracy_of_self_comparison(self, rng):
        x = list(rng.uniform(10, 60, size=9))
        for mean in (1.0, 39.4, 500.0):
            assert accuracy(rmse(x, x), mean) == 1.0


@dataclass(frozen=True)
class Meas:
    """The record attributes the evaluator reads."""

    camera_id: str
    height_mm: float
    width_mm: float
    fill_ratio: float
    fruit_id: Optional[str]
    center_world_m: Optional[Point3]


def meas(cam, h, w, fill=0.9, fruit_id=None, center=None):
    return Meas(cam, h, w, fill, fruit_id, center)


def truth_12(mean_h=39.4, mean_w=46.7):
    return [GroundTruthRecord(f"f{i:02d}", mean_h, mean_w) for i in range(12)]


class TestMatchMeasurements:
    def test_fruit_id_matching(self):
        truth = truth_12()
        pairs = match_measurements([meas("top", 40, 47, fruit_id="f03")], truth)
        assert pairs[0][1].fruit_id == "f03"

    def test_missing_fruit_id_in_truth(self):
        with pytest.raises(UnmatchedMeasurement):
            match_measurements([meas("top", 40, 47, fruit_id="nope")], truth_12())

    def test_center_matching_with_guard(self):
        truth = [
            GroundTruthRecord("a", 40, 47, Point3(0, 0, 0.6)),
            GroundTruthRecord("b", 40, 47, Point3(0.2, 0, 0.6)),
        ]
        pairs = match_measurements(
            [meas("top", 40, 47, center=Point3(0.01, 0, 0.6))], truth, "center")
        assert pairs[0][1].fruit_id == "a"

    def test_equidistant_is_ambiguous(self):
        truth = [
            GroundTruthRecord("a", 40, 47, Point3(-0.1, 0, 0.6)),
            GroundTruthRecord("b", 40, 47, Point3(0.1, 0, 0.6)),
        ]
        with pytest.raises(AmbiguousMatch):
            match_measurements([meas("top", 40, 47, center=Point3(0, 0, 0.6))],
                               truth, "center")

    def test_second_nearest_within_double_is_ambiguous(self):
        truth = [
            GroundTruthRecord("a", 40, 47, Point3(0, 0, 0.6)),
            GroundTruthRecord("b", 40, 47, Point3(0.015, 0, 0.6)),
        ]
        with pytest.raises(AmbiguousMatch):
            match_measurements([meas("top", 40, 47, center=Point3(0.006, 0, 0.6))],
                               truth, "center")

    def test_measurement_without_center(self):
        truth = [GroundTruthRecord("a", 40, 47, Point3(0, 0, 0.6))]
        with pytest.raises(UnmatchedMeasurement):
            match_measurements([meas("top", 40, 47)], truth, "center")


class TestEvaluateRun:
    def test_perfect_single_camera(self):
        truth = truth_12()
        per_cam = {"middle": [meas("middle", 39.4, 46.7, fruit_id=t.fruit_id)
                              for t in truth]}
        report = evaluate_run(per_cam["middle"], per_cam, truth)
        for row in report.rows:
            assert row.n == 12
            assert row.height.accuracy == 1.0
            assert row.width.accuracy == 1.0

    def test_reproduces_published_per_camera_accuracies(self):
        # constant per-fruit error whose RMSE equals each published value
        truth = truth_12()
        offsets = {"top": (3.8889, 1.8499), "middle": (3.3021, 2.6819),
                   "bottom": (9.9547, 5.9701)}
        per_cam = {
            cam: [meas(cam, 39.4 + dh, 46.7 + dw, fruit_id=t.fruit_id)
                  for t in truth]
            for cam, (dh, dw) in offsets.items()
        }
        chosen = [meas("top", 39.4 + 3.4920, 46.7 + 2.6, fruit_id=t.fruit_id)
                  for t in truth]
        report = evaluate_run(chosen, per_cam, truth)
        expected = {"top": (0.9013, 0.9604), "middle": (0.9162, 0.9426),
                    "bottom": (0.7473, 0.8722), "fused": (0.9114, 0.9443)}
        for row in report.rows:
            eh, ew = expected[row.camera_id]
            assert row.height.accuracy == pytest.approx(eh, abs=1e-4)
            assert row.width.accuracy == pytest.approx(ew, abs=1e-4)
            assert row.height.mean_truth_mm == pytest.approx(39.4)

    def test_rows_internally_consistent(self, rng):
        truth = truth_12()
        per_cam = {"top": [meas("top", 39.4 + rng.normal(0, 2), 46.7 + rng.normal(0, 2),
                                fruit_id=t.fruit_id) for t in truth]}
        report = evaluate_run(per_cam["top"], per_cam, truth)
        for row in report.rows:
            for dim in (row.height, row.width):
                assert dim.accuracy == pytest.approx(
                    1 - dim.rmse_mm / dim.mean_truth_mm, abs=1e-12)

    def test_text_report_contains_table_shape(self):
        truth = truth_12()
        per_cam = {"top": [meas("top", 39.4, 46.7, fruit_id=t.fruit_id) for t in truth]}
        report = evaluate_run(per_cam["top"], per_cam, truth)
        text = format_report_text(report)
        assert "Top Camera" in text and "RMSE (mm)" in text and "Height" in text
        payload = report_to_dict(report)
        assert [r["camera_id"] for r in payload["rows"]] == ["top", "fused"]

    def test_empty_camera_row(self):
        truth = truth_12()
        report = evaluate_run([], {"top": []}, truth)
        assert report.row("top").n == 0
        assert report.row("top").height is None
        assert "n/a" in format_report_text(report)
