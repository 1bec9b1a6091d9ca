import json
import re

import numpy as np
import pytest

from fruitgauge.errors import BundleIOError, DegenerateCircle, InvalidPose, LengthMismatch
from fruitgauge.evaluation import GroundTruthRecord
from fruitgauge.fileio import (
    Detection,
    DetectionFile,
    Record,
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
    write_ground_truth_csv,
    write_intrinsics,
    write_pgm16,
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
from fruitgauge.maskops import BinaryMask


class TestParsing:
    def test_missing_key_names_source(self):
        with pytest.raises(BundleIOError, match=r"^doc\.json missing field 'x'$"):
            with parsing("doc.json"):
                {}["x"]

    @pytest.mark.parametrize("error", [TypeError("t"), ValueError("v"), IndexError("i"),
                                       AttributeError("a"), OverflowError("o"),
                                       RecursionError("r"), DegenerateCircle("d"),
                                       LengthMismatch("l")])
    def test_malformed_value_names_source(self, error):
        with pytest.raises(BundleIOError, match=f"^malformed doc.json: {error}$"):
            with parsing("doc.json"):
                raise error

    def test_other_errors_pass_through(self):
        with pytest.raises(InvalidPose):
            with parsing("doc.json"):
                raise InvalidPose("not a rotation")

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


class TestRecords:
    def test_dict_roundtrip_keeps_keys_order_and_types(self):
        back = Record.from_dict(RECORD).to_dict()
        assert json.dumps(back) == json.dumps(RECORD)

    def test_read_records(self, tmp_path):
        # a key no record field holds, such as the edge_margin_px of older files, is ignored
        dump_json({"records": [{**RECORD, "edge_margin_px": 210}], "warnings": []},
                  tmp_path / "records.json")
        (record,) = read_records(tmp_path / "records.json")
        assert record.class_name == "fully_ripened" and record.bbox == (290, 210, 61, 61)
        assert record.center_world_m == Point3(0.01, -0.02, 0.62)
        assert record.to_dict() == RECORD

    @pytest.mark.parametrize("field,value,named", [
        ("circle", "x", "circle"), ("circle", {"cu": 1.0, "cv": 1.0}, "r_px"),
        ("height_mm", "39", "height_mm"), ("detection_index", 2.0, "detection_index"),
        ("bbox", [1, 2, 3], "bbox"), ("center_world_m", [0, 0, None], "center_world_m"),
        ("fruit_id", 7, "fruit_id"), ("fill_ratio", True, "fill_ratio"),
    ])
    def test_mistyped_field_rejected(self, field, value, named):
        with pytest.raises(BundleIOError, match=named):
            Record.from_dict({**RECORD, field: value}, "r.json")

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
    def test_non_finite_geometry_rejected(self, field, value):
        with pytest.raises(BundleIOError, match=f"r.json.*{field}"):
            Record.from_dict({**RECORD, field: value}, "r.json")

    def test_finite_sizes_whose_sum_overflows_accepted(self):
        record = Record.from_dict({**RECORD, "height_mm": 1e308, "width_mm": 1e308})
        assert (record.height_mm, record.width_mm) == (1e308, 1e308)

    @pytest.mark.parametrize("field", sorted(RECORD))
    def test_missing_field_rejected(self, field):
        d = dict(RECORD)
        del d[field]
        with pytest.raises(BundleIOError, match=field):
            Record.from_dict(d)

    def test_records_are_immutable_and_hash_by_value(self):
        a, b = Record.from_dict(RECORD), Record.from_dict(dict(RECORD))
        with pytest.raises(AttributeError):
            a.fill_ratio = 0.5
        assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Record.from_dict({**RECORD, "detection_index": 3})

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
        (record,) = read_fused_choices(tmp_path / "fused.json")
        assert record == Record.from_dict({**RECORD, "center_world_m": [0.1, 0.2, 0.7]})

    def test_file_without_records_list_rejected(self, tmp_path):
        dump_json([RECORD], tmp_path / "records.json")
        with pytest.raises(BundleIOError, match="records"):
            read_records(tmp_path / "records.json")


class TestGroundTruthCsv:
    def test_roundtrip(self, tmp_path):
        records = [
            GroundTruthRecord("f00", 39.4, 46.7, Point3(0.1, -0.2, 0.6)),
            GroundTruthRecord("f01", 41.0, 48.0, None),
        ]
        write_ground_truth_csv(tmp_path / "gt.csv", records)
        back = read_ground_truth_csv(tmp_path / "gt.csv")
        assert back[0].center_world == Point3(0.1, -0.2, 0.6)
        assert back[1].center_world is None
        assert back[1].height_mm == 41.0

    def test_roundtrip_numpy_scalars(self, tmp_path):
        records = [GroundTruthRecord("f00", np.float64(40.0), np.float32(46.5),
                                     Point3(*np.array([0.1, -0.2, 0.6])))]
        write_ground_truth_csv(tmp_path / "gt.csv", records)
        assert "np." not in (tmp_path / "gt.csv").read_text()
        (back,) = read_ground_truth_csv(tmp_path / "gt.csv")
        assert (back.height_mm, back.width_mm) == (40.0, 46.5)
        assert back.center_world == Point3(0.1, -0.2, 0.6)

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

    def test_bad_row_reports_location(self, tmp_path):
        # a size that is not a finite positive number, or a center that is not finite
        for bad_row in ("f1,not_a_number,47,,,", "f1,nan,47,,,", "f1,inf,47,,,",
                        "f1,-inf,47,,,", "f1,40,47,nan,0.1,0.6"):
            (tmp_path / "gt.csv").write_text(
                f"fruit_id,height_mm,width_mm,x_m,y_m,z_m\nf0,40,47,,,\n{bad_row}\n")
            with pytest.raises(BundleIOError, match="row 2"):
                read_ground_truth_csv(tmp_path / "gt.csv")
