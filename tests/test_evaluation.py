from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fruitgauge.errors import (
    AmbiguousMatch,
    EmptyInput,
    FruitGaugeError,
    LengthMismatch,
    UnmatchedMeasurement,
    ZeroMean,
)
from fruitgauge.evaluation import (
    CameraRow,
    EvalReport,
    GroundTruthRecord,
    _dimension_stats,
    accuracy,
    evaluate_run,
    format_report_text,
    match_measurements,
    relative_error,
    rmse,
)
from fruitgauge.fileio import (RecordTable, dump_json, read_fused_choices, read_records,
                               write_rig)
from fruitgauge.fusion import deduplicate
from fruitgauge.geometry import BLOCK_PIXELS, Point3
from fruitgauge.pipeline import cmd_fuse
from fruitgauge.simulate import paper_rig

from conftest import clusters, record_dicts, truth_table
from test_fileio import ref_read
from test_fusion import ORDER, ref_deduplicate

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


def table(records) -> RecordTable:
    """The record table of ``records``' attributes; the fields the evaluator
    does not read hold placeholder values, and a missing center is the origin."""
    n = len(records)
    return RecordTable(["000"] * n, [m.camera_id for m in records], list(range(n)),
                       ["fruit"] * n, [m.fruit_id for m in records],
                       np.array([m.height_mm for m in records], dtype=float),
                       np.array([m.width_mm for m in records], dtype=float), np.full(n, 0.6),
                       np.array([m.fill_ratio for m in records], dtype=float),
                       np.full((n, 3), 10.0), [[0, 0, 1, 1]] * n, np.full(n, 0.6),
                       np.full(n, 0.02), np.array([m.center_world_m or (0.0, 0.0, 0.0)
                                                   for m in records], dtype=float).reshape(n, 3))


def match(records, truth):
    """The truth record of each of ``records`` by ``match_measurements``."""
    rows = match_measurements(table(records), list(range(len(records))), truth_table(truth))
    return [truth[i] for i in rows]


def run(chosen, per_cam, truth):
    """``evaluate_run`` on the table of ``chosen`` and that of every camera's
    records, cameras in ``per_cam``'s order, against the table of ``truth``."""
    return evaluate_run(table(chosen), table([m for ms in per_cam.values() for m in ms]),
                        truth_table(truth))


def truth_12(mean_h=39.4, mean_w=46.7):
    return [GroundTruthRecord(f"f{i:02d}", mean_h, mean_w) for i in range(12)]


class TestMatchMeasurements:
    def test_fruit_id_matching(self):
        truth = truth_12()
        (matched,) = match([meas("top", 40, 47, fruit_id="f03")], truth)
        assert matched.fruit_id == "f03"

    def test_missing_fruit_id_in_truth(self):
        with pytest.raises(UnmatchedMeasurement, match=r"'nope' \(camera top\)"):
            match([meas("middle", 40, 47, fruit_id="f01"), meas("top", 40, 47, fruit_id="nope")],
                  truth_12())

    def test_rows_select_the_measurements(self):
        records = table([meas("top", 40, 47, fruit_id=f"f{i:02d}") for i in (4, 7, 2)])
        got = match_measurements(records, [2, 0], truth_table(truth_12()))
        assert got.tolist() == [2, 4]

    def test_center_matching_with_guard(self):
        truth = [
            GroundTruthRecord("a", 40, 47, Point3(0, 0, 0.6)),
            GroundTruthRecord("b", 40, 47, Point3(0.2, 0, 0.6)),
        ]
        (matched,) = match([meas("top", 40, 47, center=Point3(0.01, 0, 0.6))], truth)
        assert matched.fruit_id == "a"

    def test_equidistant_is_ambiguous(self):
        truth = [
            GroundTruthRecord("a", 40, 47, Point3(-0.1, 0, 0.6)),
            GroundTruthRecord("b", 40, 47, Point3(0.1, 0, 0.6)),
        ]
        with pytest.raises(AmbiguousMatch, match=r"^measurement at Point3\(x=0.0, y=0.0, "
                                                 r"z=0.6\) is 0.1000 m from a but 0.1000 m"):
            match([meas("top", 40, 47, center=Point3(0, 0, 0.6))], truth)

    def test_second_nearest_within_double_is_ambiguous(self):
        truth = [
            GroundTruthRecord("a", 40, 47, Point3(0, 0, 0.6)),
            GroundTruthRecord("b", 40, 47, Point3(0.015, 0, 0.6)),
        ]
        with pytest.raises(AmbiguousMatch):
            match([meas("top", 40, 47, center=Point3(0.006, 0, 0.6))], truth)


class TestEvaluateRun:
    def test_perfect_single_camera(self):
        truth = truth_12()
        per_cam = {"middle": [meas("middle", 39.4, 46.7, fruit_id=t.fruit_id)
                              for t in truth]}
        report = run(per_cam["middle"], per_cam, truth)
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
        report = run(chosen, per_cam, truth)
        expected = {"top": (0.9013, 0.9604), "middle": (0.9162, 0.9426),
                    "bottom": (0.7473, 0.8722), "fused": (0.9114, 0.9443)}
        assert [row.camera_id for row in report.rows] == list(expected)
        for row in report.rows:
            eh, ew = expected[row.camera_id]
            assert row.height.accuracy == pytest.approx(eh, abs=1e-4)
            assert row.width.accuracy == pytest.approx(ew, abs=1e-4)
            assert row.height.mean_truth_mm == pytest.approx(39.4)

    def test_cameras_in_order_of_first_record(self):
        truth = truth_12()
        records = [meas(cam, 40, 47, fruit_id=truth[i].fruit_id)
                   for i, cam in enumerate(["bottom", "top", "bottom", "middle", "top"])]
        report = evaluate_run(table(records[:1]), table(records), truth_table(truth))
        assert [(row.camera_id, row.n) for row in report.rows] == \
            [("bottom", 2), ("top", 2), ("middle", 1), ("fused", 1)]

    def test_rows_internally_consistent(self, rng):
        truth = truth_12()
        per_cam = {"top": [meas("top", 39.4 + rng.normal(0, 2), 46.7 + rng.normal(0, 2),
                                fruit_id=t.fruit_id) for t in truth]}
        report = run(per_cam["top"], per_cam, truth)
        for row in report.rows:
            for dim in (row.height, row.width):
                assert dim.accuracy == pytest.approx(
                    1 - dim.rmse_mm / dim.mean_truth_mm, abs=1e-12)

    def test_text_report_contains_table_shape(self):
        truth = truth_12()
        per_cam = {"top": [meas("top", 39.4, 46.7, fruit_id=t.fruit_id) for t in truth]}
        report = run(per_cam["top"], per_cam, truth)
        text = format_report_text(report)
        assert "Top Camera" in text and "RMSE (mm)" in text and "Height" in text
        payload = asdict(report)
        assert [r["camera_id"] for r in payload["rows"]] == ["top", "fused"]

    def test_empty_camera_row(self):
        truth = truth_12()
        report = run([], {"top": []}, truth)
        (fused,) = report.rows
        assert (fused.camera_id, fused.n, fused.height) == ("fused", 0, None)
        assert "n/a" in format_report_text(report)


def ref_match_measurements(measurements, truth):
    """``match_measurements`` as it was before records became columns: each
    measurement paired with its truth record, read by attribute."""
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


def ref_make_row(camera_id, pairs):
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


def ref_evaluate_run(chosen, per_camera, truth):
    rows = [ref_make_row(camera_id, ref_match_measurements(measurements, truth))
            for camera_id, measurements in per_camera.items()]
    rows.append(ref_make_row("fused", ref_match_measurements(chosen, truth)))
    return EvalReport(rows)


def outcome(fn, *args):
    try:
        return fn(*args)
    except FruitGaugeError as e:
        return type(e), str(e)


@st.composite
def views(draw, with_ids):
    """(record objects of ``records.json``, truth): views of a few truth fruits
    by the rig's cameras, each center near its fruit, a little or far off, so
    that clusters may merge fruits and center matching may be ambiguous."""
    truth = [GroundTruthRecord(f"fruit{i}", draw(st.floats(30, 50)), draw(st.floats(35, 55)),
                               Point3(draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3)),
                                      draw(st.floats(0.4, 0.9))))
             for i in range(draw(st.integers(1, 6)))]
    records = []
    for i in range(draw(st.integers(0, 16))):
        fruit = draw(st.sampled_from(truth))
        off = draw(st.sampled_from([0.002, 0.02, 0.2]))
        records.append({
            "frame_id": draw(st.sampled_from(["000", "001"])),
            "camera_id": draw(st.sampled_from(ORDER)), "detection_index": i,
            "class": "fully_ripened", "fruit_id": fruit.fruit_id if with_ids else None,
            "height_mm": fruit.height_mm + draw(st.floats(-5, 5)),
            "width_mm": fruit.width_mm + draw(st.floats(-5, 5)),
            "median_depth_m": draw(st.floats(0.3, 1.0)),
            "fill_ratio": draw(st.sampled_from([0.9, 0.95]) | st.floats(0, 1)),
            "circle": {"cu": draw(st.floats(0, 640)), "cv": draw(st.floats(0, 480)),
                       "r_px": draw(st.floats(5, 60))},
            "bbox": [draw(st.integers(0, 600)), draw(st.integers(0, 440)), 40, 40],
            "center_depth_m": draw(st.floats(0.3, 1.0)),
            "radius_m": draw(st.sampled_from([0.01, 0.02, 0.05])),
            "center_world_m": [c + draw(st.floats(-off, off)) for c in fruit.center_world],
        })
    return records, truth


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("tables")
    write_rig(work / "rig.json", paper_rig())
    return work


@pytest.mark.parametrize("with_ids", [True, False], ids=["fruit-ids", "centers"])
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_table_pipeline_matches_the_row_references(work, with_ids, data):
    """Read, deduplicate, fuse and evaluate as columns give the clusters,
    chosen views, ``fused.json`` objects and report rows (or error) of the
    row-by-row references."""
    rows, truth = data.draw(views(with_ids))
    dump_json({"records": rows, "warnings": []}, work / "records.json")
    records, ref = read_records(work / "records.json"), ref_read(work / "records.json", "records")
    assert record_dicts(records) == [r.to_dict() for r in ref] == rows

    want = ref_deduplicate(ref, ORDER)
    assert clusters(deduplicate(records, ORDER)) == want
    fruits = cmd_fuse(work / "records.json", work / "rig.json", work / "fused.json")
    assert clusters(fruits) == want
    dump_json({"fruits": [
        {"center_world_m": list(center), "radius_m": radius, "n_views": len(members),
         "chosen": ref[members[chosen]].to_dict(), "members": [ref[i].to_dict() for i in members]}
        for members, chosen, center, radius in want]}, work / "want_fused.json")
    assert (work / "fused.json").read_bytes() == (work / "want_fused.json").read_bytes()

    chosen, ref_chosen = (read_fused_choices(work / "fused.json"),
                          ref_read(work / "fused.json", "fruits"))
    assert record_dicts(chosen) == [r.to_dict() for r in ref_chosen]
    per_camera = {}
    for r in ref:
        per_camera.setdefault(r.camera_id, []).append(r)
    got = outcome(evaluate_run, chosen, records, truth_table(truth))
    event(got[0].__name__ if type(got) is tuple else "report")
    assert got == outcome(ref_evaluate_run, ref_chosen, per_camera, truth)


def grid_truth(rng, n=200, pitch=0.05):
    """``n`` truth fruits on a jittered grid of ``pitch`` metres, every tenth
    without a center, which center matching skips."""
    cells = [(ix, iy, iz) for iz in range(4) for iy in range(8) for ix in range(8)][:n]
    return [GroundTruthRecord(f"g{i:03d}", float(rng.uniform(35, 44)), float(rng.uniform(42, 52)),
                              None if i % 10 == 3 else Point3(
                                  *(float(c * pitch + rng.uniform(-0.005, 0.005)) for c in cell)))
            for i, cell in enumerate(cells)]


@pytest.mark.parametrize("damage", ["none", "ambiguous", "tie"])
def test_center_matching_in_blocks_matches_the_row_reference(rng, damage):
    """3,200 records matched by centers, over many blocks: the truth fruit of
    each, or the error naming the first ambiguous record, past the first
    block, as the per-row reference gives them. In an exact tie of two truth
    centers the error names the lower truth row first."""
    truth = grid_truth(rng)
    if damage == "tie":   # rows 7 and 20 exactly 0.125 m either side of (1, 2, 0.5)
        truth[7], truth[20] = (GroundTruthRecord(truth[i].fruit_id, 40, 47, Point3(x, 2.0, 0.5))
                               for i, x in ((7, 1.125), (20, 0.875)))
    centered = [t for t in truth if t.center_world is not None]
    assert BLOCK_PIXELS // len(centered) < 2999   # rows 2999 on are past the first block
    records = []
    for fruit in (centered[i] for i in rng.integers(len(centered), size=3200)):
        center = Point3(*(c + float(rng.uniform(-0.003, 0.003)) for c in fruit.center_world))
        records.append(meas("top", fruit.height_mm, fruit.width_mm, center=center))
    if damage == "ambiguous":   # 0.4 and 0.5 of the way from row 6's center to row 7's
        a, b = (truth[i].center_world.to_array() for i in (6, 7))
        for row, f in ((2999, 0.4), (3100, 0.5)):
            records[row] = meas("top", 40, 47, center=Point3._make((a + f * (b - a)).tolist()))
    elif damage == "tie":
        records[3010] = meas("top", 40, 47, center=Point3(1.0, 2.0, 0.5))

    got = outcome(match, records, truth)
    want = outcome(lambda *args: [t for _, t in ref_match_measurements(*args)], records, truth)
    assert got == want
    if damage != "none":
        row = {"ambiguous": 2999, "tie": 3010}[damage]
        assert got[0] is AmbiguousMatch
        assert got[1].startswith(f"measurement at {records[row].center_world_m} is ")
    if damage == "tie":
        assert got[1].endswith("0.1250 m from g007 but 0.1250 m from g020")
