"""End-to-end tests of the five ``fruitgauge`` commands through ``cli.main``."""

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from fruitgauge import fileio, fusion, pipeline
from fruitgauge.cli import main
from fruitgauge.fileio import (
    dump_json,
    read_depth,
    read_rig,
    transform_to_dict,
    write_depth,
)
from fruitgauge.geometry import (CameraIntrinsics, DepthImage, RigCamera, compose, invert,
                                 translation_transform)
from fruitgauge.maskops import BinaryMask, decode_rle, encode_rle
from fruitgauge.simulate import (RIG_TARGET, CameraCapture, CaptureBundle, lab_scene, paper_rig,
                                 render_scene)

from conftest import fused_document, record_dicts, rotation_about, scene_to_dict
from test_maskops import full

OUTPUTS = ("records.json", "fused.json", "report.json")


def run_chain(root, scene_path):
    """simulate -> measure -> fuse -> evaluate into ``root``; returns ``root``."""
    assert main(["simulate", "--scene", str(scene_path), "-o", str(root / "bundle")]) == 0
    measure_fuse_evaluate(root / "bundle", root / "out")
    return root


def measure_fuse_evaluate(bundle, out):
    assert main(["measure", "--bundle", str(bundle), "-o", str(out)]) == 0
    assert main(["fuse", "--records", str(out / "records.json"),
                 "--rig", str(bundle / "rig.json"), "-o", str(out / "fused.json")]) == 0
    assert main(["evaluate", "--fused", str(out / "fused.json"),
                 "--records", str(out / "records.json"),
                 "--truth", str(bundle / "ground_truth.csv"),
                 "-o", str(out / "report")]) == 0


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    dump_json(scene_to_dict(lab_scene(0)), path)
    return path


@pytest.fixture(scope="module")
def runs(tmp_path_factory, scene_path):
    return [run_chain(tmp_path_factory.mktemp(f"run{i}"), scene_path) for i in range(2)]


def load(path):
    return json.loads(path.read_text())


class TestCalibrate:
    def poses_doc(self, rig, observed):
        rng = np.random.default_rng(3)
        observations = []
        for cams in observed:
            board_to_world = rotation_about(rng.normal(size=3), rng.uniform(-0.4, 0.4),
                                            np.array(RIG_TARGET) + rng.uniform(-0.05, 0.05, 3))
            observations.append({"poses": {
                c.camera_id: transform_to_dict(compose(invert(c.cam_to_world), board_to_world))
                for c in rig if c.camera_id in cams
            }})
        return {"anchor": "middle", "observations": observations}

    def test_recovers_paper_rig(self, tmp_path):
        rig = paper_rig()
        dump_json(self.poses_doc(rig, [("top", "middle", "bottom")] * 3), tmp_path / "poses.json")
        assert main(["calibrate", "--poses", str(tmp_path / "poses.json"),
                     "-o", str(tmp_path / "rig.json")]) == 0
        solved = {c.camera_id: c.cam_to_world for c in read_rig(tmp_path / "rig.json")}
        for cam in rig:
            got, want = solved[cam.camera_id], cam.cam_to_world
            assert np.max(np.abs(got.rotation - want.rotation)) <= 1e-12
            assert np.max(np.abs(got.translation - want.translation)) <= 1e-12

    def test_camera_without_co_observation_exits_1(self, tmp_path):
        doc = self.poses_doc(paper_rig(), [("top", "middle"), ("bottom",)])
        dump_json(doc, tmp_path / "poses.json")
        assert main(["calibrate", "--poses", str(tmp_path / "poses.json"),
                     "-o", str(tmp_path / "rig.json")]) == 1

    def test_scaled_board_pose_exits_1_naming_the_file(self, tmp_path, capsys):
        doc = self.poses_doc(paper_rig(), [("top", "middle", "bottom")] * 2)
        pose = doc["observations"][1]["poses"]["top"]
        pose["rotation"] = [[2 * x for x in row] for row in pose["rotation"]]
        dump_json(doc, tmp_path / "poses.json")
        assert main(["calibrate", "--poses", str(tmp_path / "poses.json"),
                     "-o", str(tmp_path / "rig.json")]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'poses.json'}#obs1/top" in err and "orthonormal" in err
        assert not (tmp_path / "rig.json").exists()


class TestChain:
    def test_outputs_byte_identical_across_runs(self, runs):
        for name in OUTPUTS:
            a, b = (r / "out" / name for r in runs)
            assert a.read_bytes() == b.read_bytes(), name

    def test_every_detection_measured_and_fused(self, runs):
        records = load(runs[0] / "out" / "records.json")
        fruits = load(runs[0] / "out" / "fused.json")["fruits"]
        assert len(records["records"]) + len(records["warnings"]) == 36
        assert sum(f["n_views"] for f in fruits) == len(records["records"])
        assert sorted(f["chosen"]["fruit_id"] for f in fruits) \
            == [f"fruit{i:02d}" for i in range(12)]

    def test_outputs_are_dump_json_of_the_row_objects(self, runs, tmp_path):
        # the commands write records as text, not through dump_json
        bundle, out = runs[0] / "bundle", runs[0] / "out"
        records, warnings = pipeline.cmd_measure(bundle)
        rows = record_dicts(records)
        dump_json({"records": rows, "warnings": warnings}, tmp_path / "records.json")
        assert (tmp_path / "records.json").read_bytes() == (out / "records.json").read_bytes()
        fruits = pipeline.cmd_fuse(out / "records.json", bundle / "rig.json")
        dump_json(fused_document(fruits, rows), tmp_path / "fused.json")
        assert (tmp_path / "fused.json").read_bytes() == (out / "fused.json").read_bytes()

    def test_fused_center_is_mean_of_stored_member_centers(self, runs):
        for fruit in load(runs[0] / "out" / "fused.json")["fruits"]:
            members = np.array([m["center_world_m"] for m in fruit["members"]])
            assert fruit["center_world_m"] == pytest.approx(members.mean(axis=0), abs=1e-15)

    def test_report_without_fruit_ids_is_byte_identical(self, runs, tmp_path):
        # a real detector supplies no fruit ids, so evaluate matches by truth center
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        for path in (bundle / "detections").glob("*.json"):
            doc = load(path)
            for det in doc["detections"]:
                del det["fruit_id"]
            dump_json(doc, path)
        measure_fuse_evaluate(bundle, tmp_path / "out")
        assert all(r["fruit_id"] is None
                   for r in load(tmp_path / "out" / "records.json")["records"])
        assert ((tmp_path / "out" / "report.json").read_bytes()
                == (runs[0] / "out" / "report.json").read_bytes())

    def test_bundle_without_detections_gives_empty_outputs(self, runs, tmp_path):
        # zero records: every record column is empty, the center and circle ones (0, 3)
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        for path in (bundle / "detections").glob("*.json"):
            damage_copy(path, path, lambda doc: doc.update(detections=[]))
        measure_fuse_evaluate(bundle, tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "records.json").read_text() == '{"records": [], "warnings": []}\n'
        assert (out / "fused.json").read_text() == '{"fruits": []}\n'
        assert (out / "report.json").read_text() == (
            '{"rows": [{"camera_id": "fused", "n": 0, "mean_fill_ratio": null, '
            '"height": null, "width": null}]}\n')
        assert (out / "report.txt").read_text() == (
            "Fused (fill-ratio selection)     RMSE (mm)    Accuracy\n"
            "Height                                 n/a         n/a\n"
            "Width                                  n/a         n/a\n"
            "n = 0, mean fill ratio = n/a\n")

    def test_fuse_writes_a_float_field_int_as_float_and_keeps_big_bbox_ints(self, runs,
                                                                             tmp_path):
        doc = load(runs[0] / "out" / "records.json")
        doc["records"][0].update(height_mm=40, bbox=[2**70, *doc["records"][0]["bbox"][1:]])
        dump_json(doc, tmp_path / "records.json")
        assert main(["fuse", "--records", str(tmp_path / "records.json"),
                     "--rig", str(runs[0] / "bundle" / "rig.json"),
                     "-o", str(tmp_path / "fused.json")]) == 0
        # clusters are ordered by their first record, so record 0 leads the first fruit
        first = load(tmp_path / "fused.json")["fruits"][0]["members"][0]
        assert json.dumps(first) == json.dumps({**doc["records"][0], "height_mm": 40.0})
        assert main(["evaluate", "--fused", str(tmp_path / "fused.json"),
                     "--records", str(tmp_path / "records.json"),
                     "--truth", str(runs[0] / "bundle" / "ground_truth.csv"),
                     "-o", str(tmp_path / "report")]) == 0

    def test_fuse_never_localizes(self, runs, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fuse must use the stored localization")

        monkeypatch.setattr(fusion, "localize", refuse)
        monkeypatch.setattr(pipeline, "localize", refuse)
        out = runs[0] / "out"
        assert main(["fuse", "--records", str(out / "records.json"),
                     "--rig", str(runs[0] / "bundle" / "rig.json"),
                     "-o", str(tmp_path / "fused.json")]) == 0
        assert (tmp_path / "fused.json").read_bytes() == (out / "fused.json").read_bytes()

    def test_fuse_has_no_config_option(self, runs, tmp_path):
        # measure takes no --config either
        for inputs in (["measure", "--bundle", str(runs[0] / "bundle")],
                       ["fuse", "--records", str(runs[0] / "out" / "records.json"),
                        "--rig", str(runs[0] / "bundle" / "rig.json")]):
            with pytest.raises(SystemExit):
                main([*inputs, "--config", str(tmp_path / "c.json"),
                      "-o", str(tmp_path / "out")])

    def test_evaluate_has_no_matching_option(self, runs, tmp_path):
        out = runs[0] / "out"
        with pytest.raises(SystemExit):
            main(["evaluate", "--fused", str(out / "fused.json"),
                  "--records", str(out / "records.json"),
                  "--truth", str(runs[0] / "bundle" / "ground_truth.csv"),
                  "--matching", "center", "-o", str(tmp_path / "report")])


class TestMalformedRecords:
    """A damaged records.json, fused.json or truth CSV is an i/o error (exit 2)."""

    def damaged(self, runs, tmp_path, damage):
        doc = load(runs[0] / "out" / "records.json")
        damage(doc["records"][0])
        dump_json(doc, tmp_path / "records.json")
        return tmp_path / "records.json"

    def fuse(self, runs, records, tmp_path):
        return main(["fuse", "--records", str(records),
                     "--rig", str(runs[0] / "bundle" / "rig.json"),
                     "-o", str(tmp_path / "fused.json")])

    def test_fuse_record_without_circle(self, runs, tmp_path, capsys):
        records = self.damaged(runs, tmp_path, lambda r: r.pop("circle"))
        assert self.fuse(runs, records, tmp_path) == 2
        assert "circle" in capsys.readouterr().err

    def test_fuse_record_with_string_circle(self, runs, tmp_path):
        records = self.damaged(runs, tmp_path, lambda r: r.update(circle="x"))
        assert self.fuse(runs, records, tmp_path) == 2

    def test_fuse_record_with_nan_radius(self, runs, tmp_path, capsys):
        records = self.damaged(runs, tmp_path, lambda r: r.update(radius_m=float("nan")))
        assert self.fuse(runs, records, tmp_path) == 2
        err = capsys.readouterr().err
        assert str(records) in err and "radius_m" in err

    @pytest.mark.parametrize("field,damage", [
        *[pytest.param(field, lambda r, field=field: r.update({field: float("nan")}), id=field)
          for field in ("height_mm", "width_mm", "median_depth_m", "fill_ratio",
                        "center_depth_m")],
        pytest.param("r_px", lambda r: r["circle"].update(r_px=float("inf")), id="r_px"),
    ])
    def test_fuse_record_with_non_finite_size(self, runs, tmp_path, capsys, field, damage):
        records = self.damaged(runs, tmp_path, damage)
        assert self.fuse(runs, records, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{records}#records[0]" in err and field in err

    def test_evaluate_record_without_height(self, runs, tmp_path, capsys):
        records = self.damaged(runs, tmp_path, lambda r: r.pop("height_mm"))
        out = runs[0] / "out"
        assert main(["evaluate", "--fused", str(out / "fused.json"),
                     "--records", str(records),
                     "--truth", str(runs[0] / "bundle" / "ground_truth.csv"),
                     "-o", str(tmp_path / "report")]) == 2
        assert "height_mm" in capsys.readouterr().err

    def test_evaluate_fused_fruit_without_center(self, runs, tmp_path):
        doc = load(runs[0] / "out" / "fused.json")
        del doc["fruits"][0]["center_world_m"]
        dump_json(doc, tmp_path / "fused.json")
        out = runs[0] / "out"
        assert main(["evaluate", "--fused", str(tmp_path / "fused.json"),
                     "--records", str(out / "records.json"),
                     "--truth", str(runs[0] / "bundle" / "ground_truth.csv"),
                     "-o", str(tmp_path / "report")]) == 2

    def test_evaluate_truth_with_a_repeated_fruit_id(self, runs, tmp_path, capsys):
        # the last row of a truth file listed twice would otherwise score the id
        lines = (runs[0] / "bundle" / "ground_truth.csv").read_text().splitlines(keepends=True)
        (tmp_path / "gt.csv").write_text("".join([*lines, *lines[1:2]]))
        out = runs[0] / "out"
        assert main(["evaluate", "--fused", str(out / "fused.json"),
                     "--records", str(out / "records.json"), "--truth", str(tmp_path / "gt.csv"),
                     "-o", str(tmp_path / "report")]) == 2
        assert (f"ground-truth row {len(lines)} in {tmp_path / 'gt.csv'}: fruit_id "
                f"{lines[1].split(',')[0]!r} repeats row 1") in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestMeasureIngest:
    """A bad detection becomes a warning; the rest of the run completes."""

    def measure_damaged(self, runs, tmp_path, damage, blank_center=False):
        """Measure a bundle copy with ``damage`` applied to detection 4 of the
        middle camera; ``blank_center`` also zeroes the depth at its bbox center."""
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        det_path = bundle / "detections" / "middle_000.json"
        doc = load(det_path)
        damage(doc["detections"][4])
        dump_json(doc, det_path)
        if blank_center:
            x, y, w, h = doc["detections"][4]["bbox"]
            depth = read_depth(bundle / "depth" / "middle_000.pgm")
            data = depth.data.copy()
            # the bbox center rounded half up, where the front depth is read first
            data[y + h // 2, x + w // 2] = 0
            write_depth(bundle / "depth" / "middle_000.pgm", DepthImage(data, depth.depth_scale))
        code = main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")])
        return code, tmp_path / "out" / "records.json"

    def assert_one_warning(self, records_path, reason):
        doc = load(records_path)
        assert len(doc["records"]) + len(doc["warnings"]) == 36
        flagged = [w for w in doc["warnings"] if w["reason"] == reason]
        assert [(w["camera_id"], w["detection_index"]) for w in flagged] == [("middle", 4)]

    def test_mask_size_differs_from_image(self, runs, tmp_path):
        data = np.zeros((960, 1280), dtype=bool)
        data[100:140, 100:140] = True
        big = BinaryMask(data)
        code, records = self.measure_damaged(
            runs, tmp_path, lambda d: d.update(mask_rle=encode_rle(big)))
        assert code == 0
        self.assert_one_warning(records, "LengthMismatch")

    def test_bbox_outside_image(self, runs, tmp_path):
        code, records = self.measure_damaged(
            runs, tmp_path, lambda d: d.update(bbox=[5000, 5000, 10, 10]))
        assert code == 0
        self.assert_one_warning(records, "OutOfBounds")

    def test_bbox_center_beyond_float_range(self, runs, tmp_path):
        # the center is checked in exact integers; 10**400 has no float
        code, records = self.measure_damaged(
            runs, tmp_path, lambda d: d.update(bbox=[0, 0, 10**400, 10**400]))
        assert code == 0
        self.assert_one_warning(records, "OutOfBounds")

    def test_bbox_shifted_off_its_mask(self, runs, tmp_path):
        def shift(d):
            x, y, w, h = d["bbox"]
            d["bbox"] = [x + w // 2, y, w, h]
        code, records = self.measure_damaged(runs, tmp_path, shift)
        assert code == 0
        self.assert_one_warning(records, "OutOfBounds")

    def test_bbox_with_negative_x(self, runs, tmp_path):
        # a bbox from x = -5 that holds the whole mask is accepted, and the
        # nearest mask pixel with depth stands in for its blank center ...
        def widen(d):
            x, y, w, h = d["bbox"]
            d["bbox"] = [-5, y, x + w + 5, h]
        code, records = self.measure_damaged(runs, tmp_path / "a", widen, blank_center=True)
        assert code == 0 and load(records)["warnings"] == []
        # ... and one whose center is in the image but which ends before the mask does not
        code, records = self.measure_damaged(
            runs, tmp_path / "b", lambda d: d.update(bbox=[-5, d["bbox"][1], 20, d["bbox"][3]]))
        assert code == 0
        self.assert_one_warning(records, "OutOfBounds")

    def test_view_without_center_depth_lands_on_its_fruit(self, runs, tmp_path):
        code, records = self.measure_damaged(runs, tmp_path, lambda d: None, blank_center=True)
        assert code == 0
        record, = [r for r in load(records)["records"]
                   if (r["camera_id"], r["detection_index"]) == ("middle", 4)]
        fruit, = [f for f in lab_scene(0).fruits if f.fruit_id == record["fruit_id"]]
        # the front depth is that of the sampled mask pixel nearest the blanked
        # center, found here over the whole frame
        det = load(tmp_path / "bundle" / "detections" / "middle_000.json")["detections"][4]
        depth = read_depth(tmp_path / "bundle" / "depth" / "middle_000.pgm")
        x, y, w, h = det["bbox"]
        mask = decode_rle(det["mask_rle"]["counts"], det["mask_rle"]["size"])
        vs, us = np.nonzero(full(mask) & (depth.data > 0))
        i = np.argmin((us - (x + w // 2)) ** 2 + (vs - (y + h // 2)) ** 2)
        assert (us[i], vs[i]) != (x + w // 2, y + h // 2)
        assert record["center_depth_m"] == float(depth.data[vs[i], us[i]]) * depth.depth_scale
        assert record["center_depth_m"] > 0
        assert np.linalg.norm(np.subtract(record["center_world_m"], fruit.center_world)) < 0.004

    def test_front_depth_is_read_at_the_rounded_bbox_center(self, runs, tmp_path):
        # Each middle-camera view with an even bbox width has its center between
        # two pixels; the right-hand one, x + w // 2, is read.
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        detections = load(bundle / "detections" / "middle_000.json")["detections"]
        depth = read_depth(bundle / "depth" / "middle_000.pgm")
        data, marked = depth.data.copy(), {}
        for index, det in enumerate(detections):
            x, y, w, h = det["bbox"]
            mask = decode_rle(det["mask_rle"]["counts"], det["mask_rle"]["size"])
            u, v = x + w // 2, y + h // 2
            if w % 2 == 0 and full(mask)[v, u - 1:u + 1].all():
                data[v, u - 1] = 1000 + index
                data[v, u] = marked[index] = 2000 + index
        assert len(marked) >= 3
        write_depth(bundle / "depth" / "middle_000.pgm", DepthImage(data, depth.depth_scale))
        assert main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")]) == 0
        front = {r["detection_index"]: r["center_depth_m"]
                 for r in load(tmp_path / "out" / "records.json")["records"]
                 if r["camera_id"] == "middle"}
        assert {i: front[i] for i in marked} == {
            i: float(sample) * depth.depth_scale for i, sample in marked.items()}

    def test_rig_without_a_detected_camera_exits_1(self, runs, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        rig = load(bundle / "rig.json")
        rig["cameras"] = [c for c in rig["cameras"] if c["id"] != "bottom"]
        dump_json(rig, bundle / "rig.json")
        assert main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")]) == 1
        assert main(["fuse", "--records", str(runs[0] / "out" / "records.json"),
                     "--rig", str(bundle / "rig.json"), "-o", str(tmp_path / "f.json")]) == 1
        assert capsys.readouterr().err.count("['bottom']") == 2

    def test_two_detections_files_for_one_frame_exit_2(self, runs, tmp_path, capsys):
        # a frame's depth is found by the camera and frame ids inside its
        # detections file, so a copy under another name would measure it twice
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        original, copy = bundle / "detections" / "top_000.json", bundle / "detections" / "zz.json"
        shutil.copy(original, copy)
        assert main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")]) == 2
        err, = capsys.readouterr().err.splitlines()
        assert err == (f"fruitgauge: i/o error: detections {original} and {copy} are both "
                       "camera 'top' frame '000'")
        assert not (tmp_path / "out").exists()

    def test_camera_named_fused_exits_1_at_evaluate(self, tmp_path, capsys):
        # "fused" is the id of the report's fused row, which a camera row would duplicate
        scene = scene_to_dict(lab_scene(0))
        scene["rig"][0]["camera_id"] = "fused"
        dump_json(scene, tmp_path / "scene.json")
        bundle, out = tmp_path / "bundle", tmp_path / "out"
        assert main(["simulate", "--scene", str(tmp_path / "scene.json"), "-o", str(bundle)]) == 0
        assert main(["measure", "--bundle", str(bundle), "-o", str(out)]) == 0
        assert main(["fuse", "--records", str(out / "records.json"),
                     "--rig", str(bundle / "rig.json"), "-o", str(out / "fused.json")]) == 0
        assert main(["evaluate", "--fused", str(out / "fused.json"),
                     "--records", str(out / "records.json"),
                     "--truth", str(bundle / "ground_truth.csv"), "-o", str(out / "report")]) == 1
        assert "camera id 'fused'" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("rel,field,value,message", [
        ("depth/top_000.json", "depth_scale", float("inf"), "depth_scale must be positive"),
        ("intrinsics/top.json", "fx", 0, "focal lengths must be positive"),
    ], ids=["depth-scale-inf", "fx-zero"])
    def test_domain_error_names_its_file(self, runs, tmp_path, capsys, rel, field, value,
                                         message):
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        damage_copy(bundle / rel, bundle / rel, lambda d: d.update({field: value}))
        assert main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")]) == 1
        err, = capsys.readouterr().err.splitlines()
        assert str(bundle / rel) in err and message in err

    def test_non_orthonormal_rig_rotation_exits_1(self, runs, tmp_path):
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        rig = load(bundle / "rig.json")
        rig["cameras"][0]["cam_to_world"]["rotation"][0][0] = 3.0
        dump_json(rig, bundle / "rig.json")
        assert main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")]) == 1


@pytest.fixture(scope="module")
def aligned_bundle(tmp_path_factory):
    """A 640x360 bundle of ten fruits whose depth sensor sits 15 mm beside
    each color camera, so that ``measure`` aligns every frame."""
    k = CameraIntrinsics(640, 360, 460.0, 460.0, 319.5, 179.5)
    depth_to_color = translation_transform(-0.015, 0.0, 0.0)
    color_rig = paper_rig(k)
    spec = lab_scene(0, rig=color_rig, n_fruits=10, columns=5, pitch_x=0.07, pitch_y=0.075)
    depth_rig = [RigCamera(c.camera_id, k, compose(c.cam_to_world, depth_to_color))
                 for c in color_rig]
    color, depth = render_scene(spec), render_scene(dataclasses.replace(spec, rig=depth_rig))
    captures = [CameraCapture(RigCamera(c.camera_id, k, c.cam_to_world, k, depth_to_color),
                              d.depth, cc.masks)
                for c, cc, d in zip(color_rig, color.captures, depth.captures)]
    return pipeline.write_bundle(CaptureBundle(captures, color.truth),
                                 tmp_path_factory.mktemp("aligned") / "bundle")


class TestAlignedBundle:
    def test_bottom_frames_are_aligned(self, aligned_bundle):
        # the sensor's parallax behind the bottom camera's near leaves leaves
        # some mask edges without depth
        records, warnings = pipeline.cmd_measure(aligned_bundle)
        assert records.camera_id.count("bottom") == 5
        assert [w["reason"] for w in warnings if w["camera_id"] == "bottom"] == \
            ["NoValidDepth"] * 5

    @pytest.mark.parametrize("key", ["depth_to_color", "depth_intrinsics_file"])
    def test_half_given_depth_sensor_exits_2(self, aligned_bundle, tmp_path, capsys, key):
        # with one key gone the bottom frames would be read as registered
        bundle = tmp_path / "bundle"
        shutil.copytree(aligned_bundle, bundle)
        damage_copy(bundle / "rig.json", bundle / "rig.json",
                    lambda d: d["cameras"][2].pop(key) and None)
        assert main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")]) == 2
        # fuse reads the rig's camera order before any record
        assert main(["fuse", "--records", str(tmp_path / "records.json"),
                     "--rig", str(bundle / "rig.json"), "-o", str(tmp_path / "f.json")]) == 2
        want = (f"fruitgauge: i/o error: rig {bundle / 'rig.json'} camera 'bottom' gives only "
                "one of depth_intrinsics_file and depth_to_color")
        assert capsys.readouterr().err.splitlines() == [want, want]

    @pytest.mark.parametrize("resize", [lambda d: d[::2, ::2],
                                        lambda d: d.repeat(2, axis=0).repeat(2, axis=1)],
                             ids=["smaller", "larger"])
    def test_frame_of_another_size_than_its_depth_sensor(self, aligned_bundle, tmp_path, resize):
        bundle = tmp_path / "bundle"
        shutil.copytree(aligned_bundle, bundle)
        pgm = bundle / "depth" / "bottom_000.pgm"
        data = resize(read_depth(pgm).data)
        write_depth(pgm, DepthImage(data))
        records, warnings = pipeline.cmd_measure(bundle)
        want_records, want_warnings = pipeline.cmd_measure(aligned_bundle)
        message = f"depth {data.shape} differs from the 360x640 depth sensor image"
        assert [(w["detection_index"], w["reason"], w["message"]) for w in warnings
                if w["camera_id"] == "bottom"] == [(i, "LengthMismatch", message)
                                                   for i in range(10)]
        # the other cameras are measured as before
        assert record_dicts(records) == [r for r in record_dicts(want_records)
                                         if r["camera_id"] != "bottom"]
        assert [w for w in warnings if w["camera_id"] != "bottom"] == \
            [w for w in want_warnings if w["camera_id"] != "bottom"]
        assert main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")]) == 0


class TestManifest:
    def test_lists_every_file_measure_read_with_its_sha256(self, runs):
        bundle = runs[0] / "bundle"
        manifest = load(runs[0] / "out" / "manifest.json")
        assert set(manifest) == {"bundle", "inputs", "counts", "warnings", "timings_s"}
        assert manifest["bundle"] == {"path": str(bundle)}
        assert sorted(manifest["inputs"]) == sorted(
            str(p) for p in bundle.rglob("*") if p.is_file() and p.name != "ground_truth.csv")
        for path, digest in manifest["inputs"].items():
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()

    @pytest.mark.parametrize("rel", ["rig.json", "intrinsics/middle.json",
                                     "detections/middle_000.json", "depth/middle_000.pgm",
                                     "depth/middle_000.json", "ground_truth.csv"])
    def test_one_changed_byte_changes_only_that_files_hash(self, runs, tmp_path, rel):
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)

        def inputs(out):
            assert main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / out)]) == 0
            return load(tmp_path / out / "manifest.json")["inputs"]

        before = inputs("before")
        data = bytearray((bundle / rel).read_bytes())
        if rel.endswith(".json"):
            data[data.index(b" ")] = ord("\n")   # still the same JSON document
        else:
            data[-2] ^= 1   # a depth sample, or a digit of the last truth center
        (bundle / rel).write_bytes(bytes(data))
        after = inputs("after")
        changed = [path for path in before if before[path] != after[path]]
        assert list(after) == list(before)
        assert changed == ([] if rel == "ground_truth.csv" else [str(bundle / rel)])

    def test_each_command_reads_only_its_inputs_and_each_once(self, runs, tmp_path,
                                                                monkeypatch):
        """Measure reads every file it lists once, hashing each; fuse reads
        the rig file and the records, evaluate its three inputs, and neither hashes."""
        reads = []
        read_bytes = fileio._read_bytes

        def counted(path):
            reads.append((str(path), fileio._digests.get() is not None))
            return read_bytes(path)

        monkeypatch.setattr(fileio, "_read_bytes", counted)
        bundle, out = runs[0] / "bundle", tmp_path / "out"
        measure_fuse_evaluate(bundle, out)
        assert reads == [(path, True) for path in load(out / "manifest.json")["inputs"]] + [
            (str(bundle / "rig.json"), False), (str(out / "records.json"), False),
            (str(bundle / "ground_truth.csv"), False), (str(out / "records.json"), False),
            (str(out / "fused.json"), False)]

    def test_intrinsics_file_shared_by_every_camera_is_read_once(self, runs, tmp_path,
                                                                 monkeypatch):
        # every lab camera has the same intrinsics, so pointing all three rig
        # entries at top.json changes no record
        def share_top(doc):
            for cam in doc["cameras"]:
                cam["intrinsics_file"] = "intrinsics/top.json"

        def counted(path):
            reads.append(str(path))
            return read_bytes(path)

        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        damage_copy(bundle / "rig.json", bundle / "rig.json", share_top)
        reads = []
        read_bytes = fileio._read_bytes
        monkeypatch.setattr(fileio, "_read_bytes", counted)
        out = tmp_path / "out"
        assert main(["measure", "--bundle", str(bundle), "-o", str(out)]) == 0
        shared = str(bundle / "intrinsics" / "top.json")
        assert reads.count(shared) == 1
        inputs = load(out / "manifest.json")["inputs"]
        assert list(inputs) == reads
        assert sorted(inputs) == sorted(
            str(p) for p in bundle.rglob("*") if p.is_file() and p.name != "ground_truth.csv"
            and p.name not in ("middle.json", "bottom.json"))
        assert inputs[shared] == hashlib.sha256((bundle / "intrinsics" / "top.json")
                                                .read_bytes()).hexdigest()
        assert (out / "records.json").read_bytes() == \
            (runs[0] / "out" / "records.json").read_bytes()


class TestFuseRig:
    def test_fuse_reads_no_intrinsics_file(self, runs, tmp_path):
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        shutil.rmtree(bundle / "intrinsics")
        assert main(["fuse", "--records", str(runs[0] / "out" / "records.json"),
                     "--rig", str(bundle / "rig.json"), "-o", str(tmp_path / "fused.json")]) == 0
        assert (tmp_path / "fused.json").read_bytes() == \
            (runs[0] / "out" / "fused.json").read_bytes()

    @pytest.mark.parametrize("damage,named", [
        (lambda d: d["cameras"][1].update(id=d["cameras"][0]["id"]), "lists camera 'top' twice"),
        (lambda d: d["cameras"][0].update(id=7), "id must be str, got 7"),
        (lambda d: d.update(cameras=[]), "lists no cameras"),
        (lambda d: d["cameras"][0]["cam_to_world"].update(
            rotation=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), "rotation must be"),
    ], ids=["duplicate-id", "int-id", "no-cameras", "string-rotation"])
    def test_damaged_rig_fails_naming_it(self, runs, tmp_path, capsys, damage, named):
        rig = damage_copy(runs[0] / "bundle" / "rig.json", tmp_path / "rig.json", damage)
        code = main(["fuse", "--records", str(runs[0] / "out" / "records.json"),
                     "--rig", str(rig), "-o", str(tmp_path / "fused.json")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1 and str(rig) in err[0] and named in err[0], err


def damage_copy(source, target, damage):
    """Write ``damage(doc)`` (or ``doc`` edited in place) of a JSON file to ``target``."""
    doc = load(source)
    replaced = damage(doc)
    dump_json(doc if replaced is None else replaced, target)
    return target


def first_detection(update):
    return lambda doc: doc["detections"][0].update(update)


class TestDamagedDocuments:
    """A damaged document of any kind exits 2 with one i/o error line naming it."""

    def assert_io_error(self, code, capsys, path, named=""):
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1, err
        assert err[0].startswith("fruitgauge: i/o error:") and str(path) in err[0]
        # the path holds the test's name, so look for ``named`` in the rest
        assert named in err[0].replace(str(path), "")

    @pytest.mark.parametrize("rel,damage,named", [
        pytest.param("intrinsics/top.json", lambda d: d.update(fx="abc"), "abc", id="fx"),
        pytest.param("intrinsics/top.json", lambda d: d.update(distortion="abc"), "abc",
                     id="distortion"),
        pytest.param("rig.json", lambda d: d.update(cameras=[1]), "cameras[0] must be an object",
                     id="rig-camera-int"),
        pytest.param("rig.json", lambda d: [], "document must be an object", id="rig-list"),
        pytest.param("depth/top_000.json", lambda d: [], "document must be an object",
                     id="depth-sidecar-list"),
        pytest.param("intrinsics/top.json", lambda d: [d], "document must be an object",
                     id="intrinsics-list"),
        pytest.param("detections/top_000.json", lambda d: [d], "document must be an object",
                     id="detections-list"),
        pytest.param("detections/top_000.json", lambda d: d["detections"].insert(1, [2]),
                     "detections[1] must be an object", id="detection-list"),
        pytest.param("depth/top_000.json", lambda d: d.update(depth_scale=True), "depth_scale",
                     id="depth-scale-bool"),
        pytest.param("intrinsics/top.json", lambda d: d.update(width=640.7), "width",
                     id="width-float"),
        pytest.param("detections/top_000.json",
                     lambda d: d["detections"][0]["mask_rle"].update(size=[480]), "size",
                     id="rle-size-1"),
        pytest.param("detections/top_000.json", first_detection({"bbox": [1, 2, 3]}), "bbox",
                     id="bbox-3-ints"),
        pytest.param("detections/top_000.json", first_detection({"class": 5}), "class",
                     id="class-int"),
        pytest.param("detections/top_000.json", first_detection({"fruit_id": 5}), "fruit_id",
                     id="fruit-id-int"),
        pytest.param("detections/top_000.json", lambda d: d.update(frame_id=5), "frame_id",
                     id="frame-id-int"),
        pytest.param("rig.json", lambda d: d["cameras"][0]["cam_to_world"].update(
            rotation=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), "rotation",
                     id="rig-rotation-strings"),
        pytest.param("rig.json", lambda d: d["cameras"][1]["cam_to_world"]["translation"]
                     .__setitem__(0, True), "translation", id="rig-translation-bool"),
        *[pytest.param("rig.json", lambda d, v=value: d["cameras"][0].update(depth_to_color=v),
                       "depth_to_color" if value != {} else "rotation",
                       id=f"rig-depth-to-color-{name}")
          for name, value in (("false", False), ("0", 0), ("empty-string", ""), ("list", []),
                              ("empty-object", {}))],
        *[pytest.param("rig.json", lambda d, v=value: d["cameras"][0].update(intrinsics_file=v),
                       "intrinsics_file", id=f"rig-intrinsics-file-{name}")
          for name, value in (("false", False), ("0", 0))],
    ])
    def test_measure(self, runs, tmp_path, capsys, rel, damage, named):
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        damage_copy(bundle / rel, bundle / rel, damage)
        code = main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")])
        self.assert_io_error(code, capsys, bundle / rel, named)

    @pytest.mark.parametrize("width", [b"+640", b"-640", b"6" * 5000],
                             ids=["plus", "minus", "5000-digits"])
    def test_measure_pgm_width(self, runs, tmp_path, capsys, width):
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        pgm = bundle / "depth" / "top_000.pgm"
        pgm.write_bytes(pgm.read_bytes().replace(b"P5\n640 ", b"P5\n" + width + b" ", 1))
        code = main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")])
        self.assert_io_error(code, capsys, pgm, "PGM")

    @pytest.mark.parametrize("doc,named", [
        ([1], "document must be an object, got [1]"),
        ({"observations": [1]}, "observations[0] must be an object"), ({"anchor": 5}, "anchor"),
        ({"observations": {}}, "observations"),
        ({"observations": [{"poses": []}]}, "poses must be dict"),
        ({"observations": [{"poses": {"top": 1}}]}, "top must be dict"),
        ({"observations": [{"poses": {"top": {
            "rotation": "eye", "translation": [0, 0, 0]}}}]}, "rotation"),
        ({"observations": [{"poses": {"top": {
            "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "translation": [0, False, 0]}}}]},
         "translation"),
        ({"intrinsics_files": []}, "intrinsics_files"),
    ], ids=["list", "observation-int", "anchor-int", "observations-object", "poses-list",
            "pose-int", "rotation-string", "translation-bool", "intrinsics-files-list"])
    def test_calibrate(self, tmp_path, capsys, doc, named):
        dump_json(doc, tmp_path / "poses.json")
        code = main(["calibrate", "--poses", str(tmp_path / "poses.json"),
                     "-o", str(tmp_path / "rig.json")])
        self.assert_io_error(code, capsys, tmp_path / "poses.json", named)

    @pytest.mark.parametrize("damage,named", [
        (lambda d: d["fruits"][0].update(semi_axes="abc"), "abc"),
        (lambda d: d["noise"].update(sigma_at_1m="abc"), "abc"),
        (lambda d: d["fruits"][0].update(id=7), "id"),
        (lambda d: d.pop("fruits") and None, "missing field 'fruits'"),
        (lambda d: d.update(seed=7.9), "seed"),
        (lambda d: d.update(seed=True), "seed"),
        (lambda d: d.update(depth_scale="0.001"), "depth_scale"),
        (lambda d: d["noise"].update(sigma_at_1m=True), "sigma_at_1m"),
        (lambda d: d["noise"].update(model=2), "model"),
        (lambda d: d["fruits"][0].update(center_world=["0", "0", "0.6"]), "center_world"),
        (lambda d: d["fruits"][0].update(center_world="0 0 0.6"), "center_world"),
        (lambda d: d["fruits"][0].update(semi_axes=[0.02, 0.02, 0.02, 0.02]), "semi_axes"),
        (lambda d: d["rig"][0]["cam_to_world"].update(rotation="eye"), "rotation"),
        (lambda d: d["rig"][0]["cam_to_world"]["translation"].__setitem__(1, True),
         "translation"),
        (lambda d: d["occluders"][0]["corners"][2].__setitem__(0, "0.1"), "corners"),
        (lambda d: d.update(rig={}), "rig"),
        (lambda d: d.update(fruits={}), "fruits"),
        (lambda d: d.update(occluders=None), "occluders"),
        (lambda d: d.update(noise=[]), "noise"),
        (lambda d: [d], "document must be an object"),
        (lambda d: d["rig"].insert(1, "top"), "rig[1] must be an object"),
        (lambda d: d["fruits"].append(None), f"fruits[{len(lab_scene(0).fruits)}] must be"),
        (lambda d: d["occluders"].insert(0, 1.5), "occluders[0] must be an object"),
    ], ids=["semi-axes-string", "sigma-string", "fruit-id-int", "missing-key", "seed-float",
            "seed-bool", "depth-scale-string", "sigma-bool", "model-int",
            "center-world-strings", "center-world-string", "semi-axes-4", "rotation-string",
            "translation-bool", "corner-string", "rig-object", "fruits-object",
            "occluders-null", "noise-list", "scene-list", "camera-string", "fruit-null",
            "occluder-float"])
    def test_simulate(self, scene_path, tmp_path, capsys, damage, named):
        scene = damage_copy(scene_path, tmp_path / "scene.json", damage)
        code = main(["simulate", "--scene", str(scene), "-o", str(tmp_path / "bundle")])
        self.assert_io_error(code, capsys, scene, named)

    @pytest.mark.parametrize("name,damage,named", [
        ("records.json", lambda d: [d], "document must be an object"),
        ("records.json", lambda d: d["records"].insert(2, 1), "#records[2]: record must be an"),
        ("records.json", lambda d: d["records"].insert(0, []), "#records[0]: record must be an"),
        ("fused.json", lambda d: d["fruits"].insert(1, 1), "#fruits[1]: fruit must be an"),
        ("fused.json", lambda d: d["fruits"][0].update(chosen=[]), "#fruits[0]: chosen must be"),
    ], ids=["records-list", "record-int", "record-list", "fused-fruit-int", "chosen-list"])
    def test_fuse_and_evaluate(self, runs, tmp_path, capsys, name, damage, named):
        out = runs[0] / "out"
        damaged = damage_copy(out / name, tmp_path / name, damage)
        records = damaged if name == "records.json" else out / "records.json"
        code = main(["fuse", "--records", str(records),
                     "--rig", str(runs[0] / "bundle" / "rig.json"),
                     "-o", str(tmp_path / "fused-out.json")])
        if name == "records.json":
            self.assert_io_error(code, capsys, damaged, named)
        code = main(["evaluate", "--fused", str(out / "fused.json" if name == "records.json"
                                                else damaged), "--records", str(records),
                     "--truth", str(runs[0] / "bundle" / "ground_truth.csv"),
                     "-o", str(tmp_path / "report")])
        self.assert_io_error(code, capsys, damaged, named)

    @pytest.mark.parametrize("axis", [0, 1], ids=["width", "height"])
    def test_simulate_fruit_too_large_in_mm_exits_1(self, scene_path, tmp_path, capsys, axis):
        # the fruit is its truth row, and 2000 x 1e305 m has no float in mm
        scene = damage_copy(scene_path, tmp_path / "scene.json",
                            lambda d: d["fruits"][3]["semi_axes"].__setitem__(axis, 1e305))
        code = main(["simulate", "--scene", str(scene), "-o", str(tmp_path / "bundle")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"fruitgauge: scene {scene}: fruit 'fruit03': height and width in mm must be finite"]
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("semi", [[0.02, 1e100, 0.02], [1e100, 1e100, 1e100],
                                      [1e-200, 1e-200, 1e-200]], ids=["tall", "huge", "tiny"])
    def test_simulate_absurd_semi_axes_exit_1(self, scene_path, tmp_path, capsys, semi):
        # each overflowed in the render, with a RuntimeWarning, before the range rule
        scene = damage_copy(scene_path, tmp_path / "scene.json",
                            lambda d: d["fruits"][3].update(semi_axes=semi))
        code = main(["simulate", "--scene", str(scene), "-o", str(tmp_path / "bundle")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"fruitgauge: scene {scene}: fruit 'fruit03': semi-axes must lie in [1e-06, 1000] m "
            "and center coordinates in [-1000, 1000] m"]
        assert not (tmp_path / "bundle").exists()

    def test_simulate_scaled_rotation_exits_1_naming_the_file(self, scene_path, tmp_path,
                                                              capsys):
        def scale_top_rotation(doc):
            (top,) = [c for c in doc["rig"] if c["camera_id"] == "top"]
            top["cam_to_world"]["rotation"] = [[2 * x for x in row]
                                               for row in top["cam_to_world"]["rotation"]]

        scene = damage_copy(scene_path, tmp_path / "scene.json", scale_top_rotation)
        code = main(["simulate", "--scene", str(scene), "-o", str(tmp_path / "bundle")])
        err = capsys.readouterr().err
        assert code == 1 and f"{scene}:top" in err and "orthonormal" in err
        assert not (tmp_path / "bundle").exists()
