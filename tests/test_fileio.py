import csv
import gc
import itertools
import json
import math
import operator
import re
import tracemalloc
from typing import NamedTuple, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fruitgauge.errors import (
    BundleIOError,
    DegenerateCircle,
    FruitGaugeError,
    InvalidDepth,
    InvalidPose,
    LengthMismatch,
)
from fruitgauge.evaluation import GroundTruthRecord
from fruitgauge.fileio import (
    _CIRCLE_TYPES,
    _RECORD_TYPES,
    _SIZE_FIELDS,
    Detection,
    DetectionFile,
    RecordTable,
    _object,
    _record_blocks,
    _value,
    _values,
    dump_json,
    load_json,
    parsing,
    read_depth,
    read_detections,
    read_fused_choices,
    read_ground_truth_csv,
    read_intrinsics,
    read_pgm16,
    read_records,
    read_rig,
    write_depth,
    write_detections,
    write_fused,
    write_ground_truth_csv,
    write_intrinsics,
    write_pgm16,
    write_records,
    write_rig,
)
from fruitgauge.geometry import (
    CameraIntrinsics,
    DepthImage,
    Point3,
    RigCamera,
    RigidTransform,
    translation_transform,
)
from fruitgauge.fusion import FruitTable
from fruitgauge.maskops import BinaryMask
from fruitgauge.pipeline import cmd_fuse
from fruitgauge.simulate import lab_scene, paper_rig

from conftest import FittedCircle, fused_document, record_dicts, truth_records


class TestParsing:
    def test_missing_key_names_source(self):
        with pytest.raises(BundleIOError, match=r"^doc\.json missing field 'x'$"):
            with parsing("doc.json"):
                {}["x"]

    @pytest.mark.parametrize("error", [TypeError("t"), ValueError("v"), IndexError("i"),
                                       AttributeError("a"), OverflowError("o"),
                                       RecursionError("r"), csv.Error("c"),
                                       LengthMismatch("l")])
    def test_malformed_value_names_source(self, error):
        with pytest.raises(BundleIOError, match=f"^malformed doc.json: {error}$"):
            with parsing("doc.json"):
                raise error

    def test_other_errors_pass_through(self):
        with pytest.raises(InvalidPose):
            with parsing("doc.json"):
                raise InvalidPose("not a rotation")

    def test_domain_error_keeps_its_type_and_names_the_innermost_source(self):
        with pytest.raises(InvalidDepth, match=r"^inner\.json: no depth$"):
            with parsing("outer.json"):
                with parsing("inner.json"):
                    raise InvalidDepth("no depth")

    @pytest.mark.parametrize("raw", [b"\xff\xfe{", b"[" * 100_000], ids=["utf16-cut", "deep"])
    def test_undecodable_json_names_file(self, tmp_path, raw):
        (tmp_path / "bad.json").write_bytes(raw)
        with pytest.raises(BundleIOError, match="bad.json"):
            load_json(tmp_path / "bad.json")


class TestPgm:
    def test_roundtrip_random(self, rng, tmp_path):
        data = rng.integers(0, 65536, size=(33, 47)).astype(np.uint16)
        write_pgm16(tmp_path / "d.pgm", data)
        assert np.array_equal(read_pgm16(tmp_path / "d.pgm"), data)

    def test_big_endian_on_disk(self, tmp_path):
        write_pgm16(tmp_path / "d.pgm", np.array([[0x1234]], dtype=np.uint16))
        raw = (tmp_path / "d.pgm").read_bytes()
        assert raw.endswith(b"\x12\x34")

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n65535\n" + b"\x01\x00\x02\x00")
        assert read_pgm16(p).tolist() == [[256, 512]]

    def test_corrupt_magic_names_file(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P6\n1 1\n65535\n\x00\x00")
        with pytest.raises(BundleIOError, match="bad.pgm"):
            read_pgm16(p)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n65535\n\x00\x00")
        with pytest.raises(BundleIOError, match="short.pgm"):
            read_pgm16(p)

    @pytest.mark.parametrize("header", [
        b"P5#a\n# b\n2# c\n#d\n1\n# e\n65535\n",
        b"P5\r\n2\r\n# a\r\n1 \r\n65535\r",
        b"P5 \t2\x0b1\x0c65535 ",
    ], ids=["comment-between-every-token", "crlf", "other-whitespace"])
    def test_header_separators(self, tmp_path, header):
        p = tmp_path / "c.pgm"
        p.write_bytes(header + b"\x01\x00\x02\x00")
        assert read_pgm16(p).tolist() == [[256, 512]]

    @pytest.mark.parametrize("width", [b"+2", b"-2", b"2" * 5000, b"2.0", b"0x2"])
    def test_bad_width_names_file(self, tmp_path, width):
        p = tmp_path / "w.pgm"
        p.write_bytes(b"P5\n" + width + b" 1\n65535\n\x01\x00\x02\x00")
        with pytest.raises(BundleIOError, match=r"PGM .*w\.pgm"):
            read_pgm16(p)

    def test_negative_size_rejected(self, tmp_path):
        p = tmp_path / "neg.pgm"
        p.write_bytes(b"P5\n-1 -1\n65535\n\x00\x00")
        with pytest.raises(BundleIOError, match="neg.pgm"):
            read_pgm16(p)

    def test_8bit_maxval_rejected(self, tmp_path):
        p = tmp_path / "eight.pgm"
        p.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(BundleIOError):
            read_pgm16(p)

    def test_depth_sidecar_roundtrip(self, rng, tmp_path):
        depth = DepthImage(rng.integers(0, 4000, size=(8, 9)).astype(np.uint16), 0.0005)
        write_depth(tmp_path / "depth" / "cam_000.pgm", depth)
        back = read_depth(tmp_path / "depth" / "cam_000.pgm")
        assert back.depth_scale == 0.0005
        assert np.array_equal(back.data, depth.data)


class TestIntrinsicsAndRig:
    def test_intrinsics_roundtrip(self, tmp_path):
        k = CameraIntrinsics(1280, 720, 910.5, 909.0, 640.2, 359.8,
                             distortion=[0.1, -0.2, 0.001, 0.0, 0.05])
        write_intrinsics(tmp_path / "k.json", k)
        back = read_intrinsics(tmp_path / "k.json")
        assert back.width == 1280 and back.fx == 910.5
        assert np.allclose(back.distortion, k.distortion)

    @pytest.mark.parametrize("field,value", [
        ("width", 640.7), ("width", "640"), ("height", True), ("height", 480.0),
        ("fx", "460"), ("fy", True), ("ppx", None), ("ppy", [1.0]),
        ("distortion", [0.1, 0.0, "0.0", 0.0, 0.0]), ("distortion", [0.1, 0.0, 0.0, 0.0]),
        ("distortion", "0.1"),
    ])
    def test_intrinsics_json_types(self, tmp_path, field, value):
        doc = {"width": 640, "height": 480, "fx": 460, "fy": 460.0, "ppx": 319.5,
               "ppy": 239.5, "distortion": None, field: value}
        (tmp_path / "k.json").write_text(json.dumps(doc))
        with pytest.raises(BundleIOError, match=rf"k\.json.*{field}"):
            read_intrinsics(tmp_path / "k.json")

    @pytest.mark.parametrize("value", [True, "0.001", None, [0.001]])
    def test_depth_scale_json_type(self, tmp_path, value):
        write_depth(tmp_path / "d.pgm", DepthImage(np.ones((2, 3), np.uint16)))
        (tmp_path / "d.json").write_text(json.dumps({"depth_scale": value}))
        with pytest.raises(BundleIOError, match=r"d\.json.*depth_scale"):
            read_depth(tmp_path / "d.pgm")

    def test_missing_key_reports_source(self, tmp_path):
        (tmp_path / "k.json").write_text('{"width": 4}')
        with pytest.raises(BundleIOError, match="k.json"):
            read_intrinsics(tmp_path / "k.json")

    def test_rig_roundtrip(self, tmp_path):
        k = CameraIntrinsics(64, 48, 60.0, 60.0, 32.0, 24.0)
        cams = [
            RigCamera("top", k, translation_transform(0, -0.45, 0.15)),
            RigCamera("middle", k, RigidTransform.identity()),
        ]
        write_rig(tmp_path / "rig.json", cams)
        back = read_rig(tmp_path / "rig.json")
        assert [c.camera_id for c in back] == ["top", "middle"]
        assert back[0].intrinsics.fx == 60.0
        assert np.allclose(back[0].cam_to_world.translation, [0, -0.45, 0.15])

    def test_rig_with_depth_alignment_entries(self, tmp_path):
        k = CameraIntrinsics(64, 48, 60.0, 60.0, 32.0, 24.0)
        dk = CameraIntrinsics(32, 24, 30.0, 30.0, 16.0, 12.0)
        cams = [RigCamera("middle", k, RigidTransform.identity(),
                          depth_intrinsics=dk,
                          depth_to_color=translation_transform(0.01, 0, 0))]
        write_rig(tmp_path / "rig.json", cams)
        back = read_rig(tmp_path / "rig.json")[0]
        assert back.depth_intrinsics.width == 32
        assert back.depth_to_color.translation[0] == 0.01

    def test_non_orthonormal_rotation_rejected(self, tmp_path):
        write_rig(tmp_path / "rig.json", [RigCamera("middle", None, RigidTransform.identity())])
        doc = json.loads((tmp_path / "rig.json").read_text())
        doc["cameras"][0]["cam_to_world"]["rotation"][0][0] = 3.0
        dump_json(doc, tmp_path / "rig.json")
        with pytest.raises(InvalidPose):
            read_rig(tmp_path / "rig.json")

    def test_non_orthonormal_depth_to_color_rejected(self, tmp_path):
        cams = [RigCamera("middle", None, RigidTransform.identity(),
                          depth_to_color=translation_transform(0.01, 0, 0))]
        write_rig(tmp_path / "rig.json", cams)
        doc = json.loads((tmp_path / "rig.json").read_text())
        doc["cameras"][0]["depth_to_color"]["rotation"][1][1] = 3.0
        dump_json(doc, tmp_path / "rig.json")
        with pytest.raises(InvalidPose):
            read_rig(tmp_path / "rig.json")

    def test_empty_rig_rejected(self, tmp_path):
        (tmp_path / "rig.json").write_text('{"cameras": []}')
        with pytest.raises(BundleIOError):
            read_rig(tmp_path / "rig.json")

    def test_repeated_camera_id_rejected(self, tmp_path):
        write_rig(tmp_path / "rig.json", [RigCamera("top", None, RigidTransform.identity()),
                                          RigCamera("top", None, translation_transform(0, 1, 0))])
        with pytest.raises(BundleIOError, match="'top'"):
            read_rig(tmp_path / "rig.json")


class TestDetections:
    def test_roundtrip_with_fruit_id(self, rng, tmp_path):
        mask = BinaryMask(rng.random((12, 10)) < 0.4)
        det = DetectionFile("000", "top", [
            Detection("fully_ripened", 1.0, (1, 2, 3, 4), mask, fruit_id="fruit07"),
            Detection("green", 0.75, (0, 0, 2, 2), BinaryMask(np.ones((12, 10), bool))),
        ])
        write_detections(tmp_path / "d.json", det)
        back = read_detections(tmp_path / "d.json")
        assert back.camera_id == "top" and back.frame_id == "000"
        assert back.detections[0].fruit_id == "fruit07"
        assert back.detections[1].fruit_id is None
        assert back.detections[1].class_name == "green"
        assert np.array_equal(back.detections[0].mask.data, mask.data)
        assert back.detections[0].mask.bbox() == mask.bbox()

    def test_hd_mask_is_held_as_its_bbox_crop(self, tmp_path):
        uu, vv = np.meshgrid(np.arange(1280), np.arange(720))
        disc = (uu - 900.3) ** 2 + (vv - 140.6) ** 2 <= 23.5 ** 2
        write_detections(tmp_path / "d.json", DetectionFile("000", "top", [
            Detection("fully_ripened", 1.0, (877, 118, 47, 47), BinaryMask(disc))]))
        mask = read_detections(tmp_path / "d.json").detections[0].mask
        x, y, w, h = mask.bbox()
        assert (mask.width, mask.height) == (1280, 720)
        assert mask.data.size == w * h == 47 * 47 and (x, y) == (877, 118)
        assert np.count_nonzero(mask.data) == int(disc.sum())

    def test_detections_compare_by_value(self):
        def detection(x0=0):
            return Detection("green", 0.75, (x0, 0, 3, 3),
                             BinaryMask(np.eye(3, dtype=bool), x0, 0, (4, 4)))

        assert detection() == detection()
        assert detection() != detection(x0=1)  # masks differ only in their offset

    def test_missing_key(self, tmp_path):
        (tmp_path / "d.json").write_text('{"frame_id": "0"}')
        with pytest.raises(BundleIOError, match="d.json"):
            read_detections(tmp_path / "d.json")

    @pytest.mark.parametrize("field,value", [
        ("score", "high"), ("bbox", ["a", 0, 2, 2]), ("score", "0.9"), ("score", True),
    ])
    def test_non_numeric_field_rejected(self, tmp_path, field, value):
        mask = BinaryMask(np.ones((4, 4), bool))
        write_detections(tmp_path / "d.json", DetectionFile("000", "top", [
            Detection("fully_ripened", 1.0, (0, 0, 4, 4), mask)]))
        doc = json.loads((tmp_path / "d.json").read_text())
        doc["detections"][0][field] = value
        dump_json(doc, tmp_path / "d.json")
        with pytest.raises(BundleIOError, match=f"d.json.*{field}"):
            read_detections(tmp_path / "d.json")

    @pytest.mark.parametrize("score", [0, 0.9])
    def test_integer_or_float_score_read_as_float(self, tmp_path, score):
        write_detections(tmp_path / "d.json", DetectionFile("000", "top", [
            Detection("fully_ripened", score, (0, 0, 4, 4), BinaryMask(np.ones((4, 4), bool)))]))
        (det,) = read_detections(tmp_path / "d.json").detections
        assert type(det.score) is float and det.score == score


RECORD = {
    "frame_id": "000", "camera_id": "top", "detection_index": 2,
    "class": "fully_ripened", "fruit_id": None,
    "height_mm": 39.5, "width_mm": 46.25, "median_depth_m": 0.61, "fill_ratio": 0.97,
    "circle": {"cu": 320.5, "cv": 240.0, "r_px": 30.0},
    "bbox": [290, 210, 61, 61], "center_depth_m": 0.6, "radius_m": 0.0215,
    "center_world_m": [0.01, -0.02, 0.62],
}
SIZE_FIELDS = ("height_mm", "width_mm", "median_depth_m", "fill_ratio", "center_depth_m")


class RefRecord(NamedTuple):
    """One record as a row: how ``fileio`` held a record before its columns
    became ``RecordTable``; the reference of the readers and of ``record_dicts``."""

    frame_id: str
    camera_id: str
    detection_index: int
    class_name: str
    fruit_id: Optional[str]
    height_mm: float
    width_mm: float
    median_depth_m: float
    fill_ratio: float
    circle: FittedCircle
    bbox: Tuple[int, int, int, int]
    center_depth_m: float
    radius_m: float
    center_world_m: Point3

    def to_dict(self) -> dict:
        (frame_id, camera_id, detection_index, class_name, fruit_id, height_mm, width_mm,
         median_depth_m, fill_ratio, circle, bbox, center_depth_m, radius_m, center_world_m) = self
        return {
            "frame_id": frame_id,
            "camera_id": camera_id,
            "detection_index": detection_index,
            "class": class_name,
            "fruit_id": fruit_id,
            "height_mm": height_mm,
            "width_mm": width_mm,
            "median_depth_m": median_depth_m,
            "fill_ratio": fill_ratio,
            "circle": {"cu": circle.cu, "cv": circle.cv, "r_px": circle.r_px},
            "bbox": list(bbox),
            "center_depth_m": center_depth_m,
            "radius_m": radius_m,
            "center_world_m": list(center_world_m),
        }


_ref_fields = operator.itemgetter(*_RECORD_TYPES)
_ref_circle_fields = operator.itemgetter(*_CIRCLE_TYPES)
_REF_TYPE_SETS = tuple(map(frozenset, _RECORD_TYPES.values()))
_REF_VALUE_TYPE_SETS = tuple(map(frozenset, (*_CIRCLE_TYPES.values(), *[(int,)] * 4,
                                             *[(int, float)] * 3)))


def ref_record(d: dict, center: list) -> RefRecord:
    """The record with ``d``'s fields and ``center`` as its ``center_world_m``,
    checked one record at a time. Raises ``KeyError`` or a malformed-value
    error; callers enter ``parsing``."""
    fields = _ref_fields(d)
    if not all(map(frozenset.__contains__, _REF_TYPE_SETS, map(type, fields))):
        for key, types in _RECORD_TYPES.items():
            _value(d, key, types)
    (frame_id, camera_id, detection_index, class_name, fruit_id, height_mm, width_mm,
     median_depth_m, fill_ratio, circle, bbox, center_depth_m, radius) = fields
    cu, cv, r_px = _ref_circle_fields(circle)
    if (type(center) is not list or len(bbox) != 4 or len(center) != 3
            or not all(map(frozenset.__contains__, _REF_VALUE_TYPE_SETS,
                           map(type, (cu, cv, r_px, *bbox, *center))))):
        for key, types in _CIRCLE_TYPES.items():
            _value(circle, key, types)
        _values(d, "bbox", (4,), (int,))
        _values({"center_world_m": center}, "center_world_m", (3,))
    x, y, z = map(float, center)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"center_world_m must be finite, got {center!r}")
    radius = float(radius)
    if not 0 < radius < math.inf:
        raise ValueError(f"radius_m must be finite and positive, got {radius!r}")
    sizes = (float(height_mm), float(width_mm), float(median_depth_m), float(fill_ratio),
             float(center_depth_m))
    height_mm, width_mm, median_depth_m, fill_ratio, center_depth_m = sizes
    # The sum is finite if every term is; one that overflows is checked term by term.
    if not math.isfinite(height_mm + width_mm + median_depth_m + fill_ratio + center_depth_m):
        wrong = [f"{key}={value!r}" for key, value in zip(_SIZE_FIELDS, sizes)
                 if not math.isfinite(value)]
        if wrong:
            raise ValueError(f"{', '.join(wrong)} must be finite")
    try:
        circle = FittedCircle(float(cu), float(cv), float(r_px))
    except DegenerateCircle as e:   # a malformed value of the record
        raise ValueError(str(e)) from None
    return RefRecord(frame_id, camera_id, detection_index, class_name, fruit_id,
                     height_mm, width_mm, median_depth_m, fill_ratio, circle, tuple(bbox),
                     center_depth_m, radius, Point3(x, y, z))


def ref_read(path, key: str) -> list:
    """``read_records`` (``key`` "records") or ``read_fused_choices`` ("fruits")
    one record at a time, as ``RefRecord`` rows."""
    doc = load_json(path)
    with parsing(path):
        entries = _value(_object(doc), key, (list,))
    rows = []
    for i, entry in enumerate(entries):
        with parsing(f"record {path}#{key}[{i}]"):
            if key == "records":
                rows.append(ref_record(_object(entry, "record"), entry["center_world_m"]))
            else:
                rows.append(ref_record(_object(_object(entry, "fruit")["chosen"], "chosen"),
                                       entry["center_world_m"]))
    return rows


def read_outcome(read, path):
    """The objects a reader's records are written as, or its error's type and text."""
    try:
        got = read(path)
    except FruitGaugeError as e:
        return type(e), str(e)
    return record_dicts(got) if isinstance(got, RecordTable) else [r.to_dict() for r in got]


def read_record(tmp_path, d):
    """The object written for the one record of a ``records.json`` in
    ``tmp_path`` that holds only ``d``."""
    dump_json({"records": [d], "warnings": []}, tmp_path / "r.json")
    (record,) = record_dicts(read_records(tmp_path / "r.json"))
    return record


class TestRecords:
    def test_dict_roundtrip_keeps_keys_order_and_types(self, tmp_path):
        back = read_record(tmp_path, RECORD)
        assert json.dumps(back) == json.dumps(RECORD)

    def test_read_records(self, tmp_path):
        # a key no record field holds, such as the edge_margin_px of older files, is ignored
        dump_json({"records": [{**RECORD, "edge_margin_px": 210}], "warnings": []},
                  tmp_path / "records.json")
        table = read_records(tmp_path / "records.json")
        assert len(table) == 1 and table.class_name == ["fully_ripened"]
        assert table.bbox == [[290, 210, 61, 61]]
        assert table.center_world_m.tolist() == [[0.01, -0.02, 0.62]]
        assert table.circle.tolist() == [[320.5, 240.0, 30.0]]
        assert record_dicts(table) == [RECORD]

    def test_table_columns(self, tmp_path):
        records = [{**RECORD, "detection_index": n, "radius_m": 0.01 + n / 1000}
                   for n in range(5)]
        dump_json({"records": records, "warnings": []}, tmp_path / "records.json")
        table = read_records(tmp_path / "records.json")
        assert len(table) == 5 and table.detection_index == list(range(5))
        for name in ("height_mm", "width_mm", "median_depth_m", "fill_ratio",
                     "center_depth_m", "radius_m"):
            column = getattr(table, name)
            assert column.dtype == np.float64 and column.shape == (5,)
            assert column.tolist() == [r[name] for r in records]
        assert table.circle.shape == table.center_world_m.shape == (5, 3)
        assert record_dicts(table) == records

    def test_empty_table(self, tmp_path):
        dump_json({"records": [], "warnings": []}, tmp_path / "records.json")
        for table in (read_records(tmp_path / "records.json"), RecordTable.concat([])):
            assert len(table) == 0 and record_dicts(table) == []
            assert table.circle.shape == table.center_world_m.shape == (0, 3)
            assert table.radius_m.shape == (0,)

    def test_concat_keeps_row_order(self, tmp_path):
        records = [{**RECORD, "detection_index": n, "fill_ratio": n / 10} for n in range(4)]
        tables = []
        for part in (records[:1], [], records[1:]):
            dump_json({"records": part, "warnings": []}, tmp_path / "records.json")
            tables.append(read_records(tmp_path / "records.json"))
        assert record_dicts(RecordTable.concat(tables)) == records

    @pytest.mark.parametrize("field,value,named", [
        ("circle", "x", "circle"), ("circle", {"cu": 1.0, "cv": 1.0}, "r_px"),
        ("height_mm", "39", "height_mm"), ("detection_index", 2.0, "detection_index"),
        ("bbox", [1, 2, 3], "bbox"), ("center_world_m", [0, 0, None], "center_world_m"),
        ("fruit_id", 7, "fruit_id"), ("fill_ratio", True, "fill_ratio"),
    ])
    def test_mistyped_field_rejected(self, tmp_path, field, value, named):
        with pytest.raises(BundleIOError, match=named):
            read_record(tmp_path, {**RECORD, field: value})

    @pytest.mark.parametrize("field,value", [
        ("radius_m", float("nan")), ("radius_m", float("inf")), ("radius_m", -float("inf")),
        ("radius_m", 0.0), ("radius_m", 0), ("radius_m", -0.02),
        ("center_world_m", [0.01, float("nan"), 0.62]),
        ("center_world_m", [float("inf"), -0.02, 0.62]),
        ("center_world_m", [0.01, -0.02, -float("inf")]),
        *[(field, value) for field in SIZE_FIELDS
          for value in (float("nan"), float("inf"), -float("inf"))],
        *[("circle", {**RECORD["circle"], key: value}) for key in ("cu", "cv", "r_px")
          for value in (float("nan"), float("inf"), -float("inf"))],
    ])
    def test_non_finite_geometry_rejected(self, tmp_path, field, value):
        with pytest.raises(BundleIOError, match=f"r.json.*{field}"):
            read_record(tmp_path, {**RECORD, field: value})

    @pytest.mark.parametrize("r_px", [0, 0.0, -1.5])
    def test_circle_radius_not_positive_rejected(self, tmp_path, r_px):
        with pytest.raises(BundleIOError, match=r"r.json#records\[0\]: invalid circle"):
            read_record(tmp_path, {**RECORD, "circle": {**RECORD["circle"], "r_px": r_px}})

    def test_finite_sizes_whose_sum_overflows_accepted(self, tmp_path):
        record = read_record(tmp_path, {**RECORD, "height_mm": 1e308, "width_mm": 1e308})
        assert (record["height_mm"], record["width_mm"]) == (1e308, 1e308)

    def test_int_in_a_float_field_is_read_and_written_as_a_float(self, tmp_path):
        record = read_record(tmp_path, {**RECORD, "height_mm": 40, "circle": {
            "cu": 320, "cv": 240, "r_px": 30}, "center_world_m": [0, 0, 1]})
        assert '"height_mm": 40.0,' in json.dumps(record)
        assert record["circle"] == {"cu": 320.0, "cv": 240.0, "r_px": 30.0}
        assert type(record["center_world_m"][2]) is float

    @pytest.mark.parametrize("big", [2**63, 2**70, -2**80, 10**400])
    def test_bbox_int_past_int64_round_trips(self, tmp_path, big):
        record = read_record(tmp_path, {**RECORD, "bbox": [big, 210, 61, big]})
        assert record["bbox"] == [big, 210, 61, big]
        assert json.dumps(record) == json.dumps({**RECORD, "bbox": [big, 210, 61, big]})

    @pytest.mark.parametrize("field", ["height_mm", "radius_m", "center_world_m"])
    def test_float_field_int_past_float_range_rejected(self, tmp_path, field):
        value = [0, 10**400, 1] if field == "center_world_m" else 10**400
        with pytest.raises(BundleIOError, match=r"r.json#records\[0\]: int too large"):
            read_record(tmp_path, {**RECORD, field: value})

    @pytest.mark.parametrize("damage", [
        {"center_world_m": [float("nan"), 10**400, 0.6]},
        {"height_mm": float("nan"), "width_mm": 10**400},
        {"height_mm": float("inf"), "fill_ratio": float("nan")},
        {"radius_m": 0.0, "height_mm": float("nan")},
        {"circle": {"cu": float("nan"), "cv": 1.0, "r_px": 0}, "fill_ratio": float("nan")},
        {"circle": {"cu": "1", "r_px": 1.0}},
        {"bbox": [1, 2, 3, 4.0], "center_world_m": [0, 0]},
        {"bbox": 5, "circle": [], "height_mm": None},
    ], ids=["center-nan-then-huge", "size-nan-then-huge", "two-sizes", "radius-then-size",
            "circle-then-size", "circle-mistyped-then-missing", "bbox-then-center",
            "three-types"])
    def test_record_with_several_faults_fails_as_the_row_reference(self, tmp_path, damage):
        records = [RECORD, {**RECORD, **damage}, {**RECORD, "radius_m": -1.0}]
        dump_json({"records": records, "warnings": []}, tmp_path / "records.json")
        got = read_outcome(read_records, tmp_path / "records.json")
        assert "#records[1]" in got[1]
        assert got == read_outcome(lambda path: ref_read(path, "records"),
                                   tmp_path / "records.json")

    @pytest.mark.parametrize("field", sorted(RECORD))
    def test_missing_field_rejected(self, tmp_path, field):
        d = dict(RECORD)
        del d[field]
        with pytest.raises(BundleIOError, match=field):
            read_record(tmp_path, d)

    @pytest.mark.parametrize("i", [0, 17, 49])
    @pytest.mark.parametrize("damage,message", [
        (lambda r: r.pop("width_mm"), "record {where} missing field 'width_mm'$"),
        (lambda r: r.update(bbox=[1, 2, 3]), "malformed record {where}: bbox"),
        (lambda r: r.update(radius_m=0.0), "malformed record {where}: radius_m"),
        (lambda r: r.update(fill_ratio=float("nan")), "malformed record {where}: fill_ratio=nan"),
    ], ids=["missing", "mistyped", "out-of-range", "non-finite"])
    def test_bad_record_in_a_file_is_named_by_position(self, tmp_path, i, damage, message):
        records = [{**RECORD, "detection_index": n} for n in range(50)]
        damage(records[i])
        path = tmp_path / "records.json"
        dump_json({"records": records, "warnings": []}, path)
        where = re.escape(f"{path}#records[{i}]")
        with pytest.raises(BundleIOError, match="^" + message.format(where=where)):
            read_records(path)

    @pytest.mark.parametrize("bad", [(5, 7999), (7999,)], ids=["fifth-and-last", "last"])
    def test_first_bad_record_of_8000_is_named(self, tmp_path, bad):
        records = [{**RECORD, "detection_index": n} for n in range(8000)]
        records[bad[0]]["height_mm"] = float("nan")
        for i in bad[1:]:
            records[i]["bbox"] = [1, 2, 3]
        path = tmp_path / "records.json"
        dump_json({"records": records, "warnings": []}, path)
        where = re.escape(f"{path}#records[{bad[0]}]")
        with pytest.raises(BundleIOError, match=f"^malformed record {where}: height_mm=nan"):
            read_records(path)

    @pytest.mark.parametrize("bad", [(5, 7999), (7999,)], ids=["fifth-and-last", "last"])
    def test_first_bad_fruit_of_8000_is_named(self, tmp_path, bad):
        fruits = [{"center_world_m": [0.0, 0.0, 0.5 + n / 10000], "radius_m": 0.0215,
                   "n_views": 1, "chosen": {**RECORD, "detection_index": n},
                   "members": [{**RECORD, "detection_index": n}]} for n in range(8000)]
        fruits[bad[0]]["chosen"]["class"] = 3
        for i in bad[1:]:
            fruits[i]["center_world_m"] = [0.0, float("inf"), 0.6]
        path = tmp_path / "fused.json"
        dump_json({"fruits": fruits}, path)
        where = re.escape(f"{path}#fruits[{bad[0]}]")
        with pytest.raises(BundleIOError, match=f"^malformed record {where}: class must be str"):
            read_fused_choices(path)

    @pytest.mark.parametrize("i", [0, 17, 49])
    @pytest.mark.parametrize("damage,message", [
        (lambda f: f["chosen"].pop("fill_ratio"), "record {where} missing field 'fill_ratio'$"),
        (lambda f: f.pop("center_world_m"), "record {where} missing field 'center_world_m'$"),
        (lambda f: f.update(center_world_m=[0.0, float("nan"), 0.6]),
         "malformed record {where}: center_world_m"),
    ], ids=["chosen-missing", "center-missing", "center-non-finite"])
    def test_bad_fruit_in_a_file_is_named_by_position(self, tmp_path, i, damage, message):
        fruits = [{"center_world_m": [0.0, 0.0, 0.5 + n / 100], "radius_m": 0.0215,
                   "n_views": 1, "chosen": {**RECORD, "detection_index": n},
                   "members": [{**RECORD, "detection_index": n}]} for n in range(50)]
        damage(fruits[i])
        path = tmp_path / "fused.json"
        dump_json({"fruits": fruits}, path)
        where = re.escape(f"{path}#fruits[{i}]")
        with pytest.raises(BundleIOError, match="^" + message.format(where=where)):
            read_fused_choices(path)

    def test_fused_choices_are_placed_at_the_fused_center(self, tmp_path):
        chosen = {k: v for k, v in RECORD.items() if k != "center_world_m"}
        dump_json({"fruits": [{"center_world_m": [0.1, 0.2, 0.7], "chosen": chosen}]},
                  tmp_path / "fused.json")
        assert record_dicts(read_fused_choices(tmp_path / "fused.json")) == \
            [read_record(tmp_path, {**RECORD, "center_world_m": [0.1, 0.2, 0.7]})]

    def test_file_without_records_list_rejected(self, tmp_path):
        dump_json([RECORD], tmp_path / "records.json")
        with pytest.raises(BundleIOError, match="records"):
            read_records(tmp_path / "records.json")


def table_of(rows: list) -> RecordTable:
    """The table whose rows are the ``records.json`` objects ``rows``."""
    def floats(key):
        return np.array([r[key] for r in rows], dtype=float)

    def triples(values):
        return np.array(values, dtype=float).reshape(-1, 3)

    return RecordTable(
        [r["frame_id"] for r in rows], [r["camera_id"] for r in rows],
        [r["detection_index"] for r in rows], [r["class"] for r in rows],
        [r["fruit_id"] for r in rows], floats("height_mm"), floats("width_mm"),
        floats("median_depth_m"), floats("fill_ratio"),
        triples([[r["circle"][k] for k in ("cu", "cv", "r_px")] for r in rows]),
        [r["bbox"] for r in rows], floats("center_depth_m"), floats("radius_m"),
        triples([r["center_world_m"] for r in rows]))


# Values whose JSON text is easy to get wrong: NaN and infinities (JSON
# extensions), a signed zero, subnormals, the float range's edge; quotes,
# backslashes, control and non-ASCII characters and the writer's separators.
EDGE_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1e308, -1.7976931348623157e308])
EDGE_STRINGS = st.text() | st.sampled_from(
    ['"', "\\", '\\"', "\x00\n\t\x1f\x7f", ", ", "}, {", "], [", "%s", "é", "果实", "\ud800"])
EDGE_INTS = st.integers() | st.sampled_from([2**63, -2**63 - 1, 2**70, -10**400])


@st.composite
def record_objects(draw):
    floats = lambda n: draw(st.lists(EDGE_FLOATS, min_size=n, max_size=n))
    height, width, median, fill, cu, cv, r_px, center_depth, radius = floats(9)
    return {"frame_id": draw(EDGE_STRINGS), "camera_id": draw(EDGE_STRINGS),
            "detection_index": draw(EDGE_INTS), "class": draw(EDGE_STRINGS),
            "fruit_id": draw(st.none() | EDGE_STRINGS), "height_mm": height, "width_mm": width,
            "median_depth_m": median, "fill_ratio": fill,
            "circle": {"cu": cu, "cv": cv, "r_px": r_px},
            "bbox": draw(st.lists(EDGE_INTS, min_size=4, max_size=4)),
            "center_depth_m": center_depth, "radius_m": radius, "center_world_m": floats(3)}


@st.composite
def fruits_of(draw, n: int) -> list:
    """Fruits over ``n`` rows: every row in one fruit, members in any order."""
    order = draw(st.permutations(range(n)))
    starts, chosen, floats = [0], [], []
    while starts[-1] < n:
        k = draw(st.integers(1, n - starts[-1]))
        starts.append(starts[-1] + k)
        floats.append(draw(st.lists(EDGE_FLOATS, min_size=4, max_size=4)))
        chosen.append(draw(st.integers(0, k - 1)))
    floats = np.array(floats, dtype=float).reshape(-1, 4)
    return FruitTable(np.array(order, dtype=np.intp), np.array(starts),
                      np.array(chosen, dtype=np.intp), floats[:, :3], floats[:, 3])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


GENERATED_FRUITS = 1000


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A ``records.json`` of 3,000 generated records, three views of each of
    1,000 fruits on a 5 cm lattice, its record objects and a rig: more than
    two blocks of rows."""
    work = tmp_path_factory.mktemp("generated")
    rng = np.random.default_rng(22)
    lattice = np.indices((10, 10, 10)).reshape(3, -1).T * 0.05 + [0.0, 0.0, 0.5]
    rows = []
    for camera_id in ("top", "middle", "bottom"):
        centers = (lattice + rng.normal(0.0, 0.002, lattice.shape)).tolist()
        sizes = rng.uniform(0.3, 50.0, (GENERATED_FRUITS, 8)).tolist()
        bboxes = rng.integers(0, 4000, (GENERATED_FRUITS, 4)).tolist()
        for i, (center, size, bbox) in enumerate(zip(centers, sizes, bboxes)):
            rows.append({"frame_id": "000", "camera_id": camera_id, "detection_index": i,
                         "class": "fully_ripened", "fruit_id": f"fruit{i:04d}",
                         "height_mm": size[0], "width_mm": size[1], "median_depth_m": size[2],
                         "fill_ratio": size[3] / 50.0,
                         "circle": {"cu": size[4], "cv": size[5], "r_px": size[6]},
                         "bbox": bbox, "center_depth_m": size[7],
                         "radius_m": 0.02 + size[0] / 1e4, "center_world_m": center})
    dump_json({"records": rows, "warnings": []}, work / "records.json")
    write_rig(work / "rig.json", paper_rig())
    return work, rows


def traced_peak(fn, *args) -> int:
    """The peak of the memory ``fn(*args)`` allocates, by ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRecordWriters:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(rows=st.lists(record_objects(), max_size=5))
    @example(rows=[])
    @example(rows=[RECORD])
    def test_record_texts_are_json_dumps_of_the_row_objects(self, work, rows):
        table = table_of(rows)
        texts = list(itertools.chain.from_iterable(_record_blocks(table)))
        assert texts == [json.dumps(row) for row in rows]
        warnings = [{"frame_id": "000", "camera_id": "top", "detection_index": 3,
                     "reason": "EmptyMask", "message": "cannot measure ', \" é'"}]
        write_records(work / "records.json", table, warnings)
        dump_json({"records": rows, "warnings": warnings}, work / "want.json")
        assert (work / "records.json").read_bytes() == (work / "want.json").read_bytes()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fused_is_dump_json_of_the_fused_document(self, work, data):
        rows = data.draw(st.lists(record_objects(), max_size=6))
        fruits = data.draw(fruits_of(len(rows)))
        write_fused(work / "fused.json", fruits, table_of(rows))
        dump_json(fused_document(fruits, rows), work / "want.json")
        assert (work / "fused.json").read_bytes() == (work / "want.json").read_bytes()

    def test_writers_on_3000_records_give_the_dump_json_bytes(self, generated, tmp_path):
        work, rows = generated
        table = read_records(work / "records.json")
        assert record_dicts(table) == rows
        write_records(tmp_path / "records.json", table, [])
        assert (tmp_path / "records.json").read_bytes() == (work / "records.json").read_bytes()
        fruits = cmd_fuse(work / "records.json", work / "rig.json", tmp_path / "fused.json")
        assert len(fruits.radius_m) == GENERATED_FRUITS
        dump_json(fused_document(fruits, rows), tmp_path / "want.json")
        assert (tmp_path / "fused.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_fuse_holds_little_more_memory_than_reading_its_records(self, generated, tmp_path):
        # fused.json streams out a fruit at a time. A writer that joined the
        # whole document's text took 1.9 times the read's peak here.
        work, _ = generated
        read = traced_peak(read_records, work / "records.json")
        fuse = traced_peak(cmd_fuse, work / "records.json", work / "rig.json",
                           tmp_path / "fused.json")
        assert fuse <= 1.25 * read, (fuse, read)

    def test_take_gathers_rows_in_order(self):
        rows = [{**RECORD, "detection_index": n, "height_mm": 30.0 + n} for n in range(4)]
        assert record_dicts(table_of(rows).take([2, 0, 2])) == [rows[2], rows[0], rows[2]]
        empty = table_of(rows).take([])
        assert len(empty) == 0 and empty.circle.shape == empty.center_world_m.shape == (0, 3)


class TestCollectorPause:
    """The readers decode with the cyclic garbage collector paused and give
    it back as they found it, also when a record is bad."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("read,document", [
        (read_records, {"records": [RECORD], "warnings": []}),
        (read_fused_choices, {"fruits": [{"center_world_m": [0.0, 0.0, 0.5], "chosen": RECORD}]}),
    ], ids=["records", "fused"])
    def test_state_restored_after_a_read(self, tmp_path, collector, read, document):
        dump_json(document, tmp_path / "doc.json")
        assert len(read(tmp_path / "doc.json")) == 1
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("read,document,named", [
        (read_records, {"records": [RECORD, {**RECORD, "radius_m": 0.0}], "warnings": []},
         r"#records\[1\]"),
        (read_fused_choices, {"fruits": [{"center_world_m": [0.0, 0.0, 0.5], "chosen": RECORD},
                                         {"center_world_m": [0.0, 0.0], "chosen": RECORD}]},
         r"#fruits\[1\]"),
    ], ids=["records", "fused"])
    def test_state_restored_after_a_bad_record(self, tmp_path, collector, read, document, named):
        dump_json(document, tmp_path / "doc.json")
        with pytest.raises(BundleIOError, match=named):
            read(tmp_path / "doc.json")
        assert gc.isenabled() is collector

GT_HEADER = "fruit_id,height_mm,width_mm,x_m,y_m,z_m\n"


class TestGroundTruthCsv:
    def test_roundtrip(self, tmp_path):
        records = [
            GroundTruthRecord("f00", 39.4, 46.7, Point3(0.1, -0.2, 0.6)),
            GroundTruthRecord("f01", 41.0, 48.0, None),
        ]
        write_ground_truth_csv(tmp_path / "gt.csv", records)
        back = read_ground_truth_csv(tmp_path / "gt.csv")
        assert truth_records(back) == records
        assert back.fruit_id == ["f00", "f01"] and back.center_world_m.shape == (2, 3)
        assert np.isnan(back.center_world_m[1]).all()

    def test_roundtrip_numpy_scalars(self, tmp_path):
        records = [GroundTruthRecord("f00", np.float64(40.0), np.float32(46.5),
                                     Point3(*np.array([0.1, -0.2, 0.6])))]
        write_ground_truth_csv(tmp_path / "gt.csv", records)
        assert "np." not in (tmp_path / "gt.csv").read_text()
        (back,) = truth_records(read_ground_truth_csv(tmp_path / "gt.csv"))
        assert (back.height_mm, back.width_mm) == (40.0, 46.5)
        assert back.center_world == Point3(0.1, -0.2, 0.6)

    def test_scene_fruits_written_as_their_truth_records(self, tmp_path):
        # a scene's fruits iterate as truth rows: 2000 x the y and x semi-axes
        # in mm, the center a Point3
        fruits = lab_scene(2).fruits
        write_ground_truth_csv(tmp_path / "fruits.csv", fruits)
        write_ground_truth_csv(tmp_path / "records.csv", [
            GroundTruthRecord(fruit_id, 2000.0 * float(semi[1]), 2000.0 * float(semi[0]),
                              Point3(*map(float, center)))
            for fruit_id, center, semi in zip(fruits.fruit_id, fruits.center_world_m,
                                              fruits.semi_axes)])
        assert (tmp_path / "fruits.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()

    @pytest.mark.parametrize("bad", [
        GroundTruthRecord("f01", math.nan, 46.7, Point3(0.1, -0.2, 0.6)),
        GroundTruthRecord("f01", 39.4, 0.0, None),
        GroundTruthRecord("f01", 39.4, 46.7, Point3(0.1, -math.inf, 0.6)),
    ], ids=["nan-height", "zero-width", "infinite-center"])
    def test_bad_row_refused_before_the_file_is_opened(self, tmp_path, bad):
        good = GroundTruthRecord("f00", 39.4, 46.7, Point3(0.1, -0.2, 0.6))
        path = tmp_path / "truth" / "gt.csv"
        with pytest.raises(ValueError, match="^ground-truth sizes must be finite and positive, "
                                             "the center finite$"):
            write_ground_truth_csv(path, [good, bad])
        assert not path.exists()

    def test_plain_floats_written_as_repr(self, tmp_path):
        write_ground_truth_csv(tmp_path / "gt.csv",
                               [GroundTruthRecord("f00", 39.4, 46.7, Point3(0.1, -0.2, 0.6))])
        assert (tmp_path / "gt.csv").read_text().splitlines()[1] == "f00,39.4,46.7,0.1,-0.2,0.6"

    def test_missing_file(self, tmp_path):
        with pytest.raises(BundleIOError):
            read_ground_truth_csv(tmp_path / "absent.csv")

    def test_overlong_field_names_file(self, tmp_path):
        (tmp_path / "gt.csv").write_text(
            "fruit_id,height_mm,width_mm,x_m,y_m,z_m\n" + "f" * 200_000 + ",40,47,,,\n")
        with pytest.raises(BundleIOError, match="gt.csv"):
            read_ground_truth_csv(tmp_path / "gt.csv")

    @pytest.mark.parametrize("text, message", [
        # a missing column fails the first row that reads it, naming the column
        ("fruit_id,width_mm,x_m,y_m,z_m\nf0,47,0.1,0.2,0.6\n",
         "ground-truth row 1 in {path} missing field 'height_mm'"),
        ("fruit_id,height_mm,width_mm,x_m,z_m\nf0,40,47,,\nf1,40,47,0.1,0.6\n",
         "ground-truth row 2 in {path} missing field 'y_m'"),
        # a short row's missing fields read as None
        (GT_HEADER + "f0,40,47,,,\nf1,40\n",
         "malformed ground-truth row 2 in {path}: "
         "float() argument must be a string or a real number, not 'NoneType'"),
        # a bad value names its row; blank lines are not rows
        (GT_HEADER + "f0,40,47,,,\n\nf1,not_a_number,47,,,\n",
         "malformed ground-truth row 2 in {path}: could not convert string to float: "
         "'not_a_number'"),
        (GT_HEADER + "f0,40,47,,,\nf1,40,47,0.1,0.2,nan\n",
         "malformed ground-truth row 2 in {path}: "
         "ground-truth sizes must be finite and positive, the center finite"),
        # an overlong field names the file
        (GT_HEADER + "f" * 200_000 + ",40,47,,,\n",
         "malformed ground truth {path}: field larger than field limit (131072)"),
        # a repeated fruit_id names its second row and its first
        (GT_HEADER + "f00,40,47,,,\nf01,40,47,,,\n\nf01,30,47,,,\n",
         "malformed ground-truth row 3 in {path}: fruit_id 'f01' repeats row 2"),
    ], ids=["missing-column", "missing-center-column", "short-row", "bad-value",
            "non-finite-center", "overlong-field", "repeated-fruit-id"])
    def test_error_texts(self, tmp_path, text, message):
        (tmp_path / "gt.csv").write_text(text)
        with pytest.raises(BundleIOError) as raised:
            read_ground_truth_csv(tmp_path / "gt.csv")
        assert str(raised.value) == message.format(path=tmp_path / "gt.csv")

    def test_bad_row_reports_location(self, tmp_path):
        # a size that is not a finite positive number, or a center that is not finite
        for bad_row in ("f1,not_a_number,47,,,", "f1,nan,47,,,", "f1,inf,47,,,",
                        "f1,-inf,47,,,", "f1,40,47,nan,0.1,0.6"):
            (tmp_path / "gt.csv").write_text(
                f"fruit_id,height_mm,width_mm,x_m,y_m,z_m\nf0,40,47,,,\n{bad_row}\n")
            with pytest.raises(BundleIOError, match="row 2"):
                read_ground_truth_csv(tmp_path / "gt.csv")
