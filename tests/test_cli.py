"""End-to-end tests of the five ``fruitgauge`` commands through ``cli.main``."""

import json
import shutil

import numpy as np
import pytest

from fruitgauge import fusion, pipeline
from fruitgauge.cli import main
from fruitgauge.fileio import (
    dump_json,
    read_depth,
    read_rig,
    transform_to_dict,
    write_depth,
)
from fruitgauge.geometry import DepthImage, compose, invert
from fruitgauge.maskops import BinaryMask, encode_rle
from fruitgauge.simulate import RIG_TARGET, lab_scene, paper_rig

from conftest import rotation_about, scene_to_dict

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
    """A damaged records.json or fused.json is an i/o error (exit 2)."""

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
            # the pixel DepthImage.depth_m_at reads: halves round up
            data[int(np.floor(y + h / 2)), int(np.floor(x + w / 2))] = 0
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
        assert record["center_depth_m"] == 0
        assert np.linalg.norm(np.subtract(record["center_world_m"], fruit.center_world)) < 0.004

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

    def test_non_orthonormal_rig_rotation_exits_1(self, runs, tmp_path):
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        rig = load(bundle / "rig.json")
        rig["cameras"][0]["cam_to_world"]["rotation"][0][0] = 3.0
        dump_json(rig, bundle / "rig.json")
        assert main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")]) == 1


class TestManifest:
    def test_bundle_signature_hashes_file_contents(self, runs, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        shutil.copytree(runs[0] / "bundle", a)
        shutil.copytree(runs[1] / "bundle", b)
        signature = pipeline._bundle_signature
        assert signature(a) == signature(b)
        depth = b / "depth" / "middle_000.pgm"
        data = bytearray(depth.read_bytes())
        data[-1] ^= 1  # one depth byte flipped, same size
        depth.write_bytes(bytes(data))
        assert signature(a) != signature(b)
        depth.write_bytes((a / "depth" / "middle_000.pgm").read_bytes())
        assert signature(a) == signature(b)
        depth.rename(b / "depth" / "middle_001.pgm")  # same bytes under another name
        assert signature(a) != signature(b)

    def test_measure_manifest_records_the_signature(self, runs):
        manifest = load(runs[0] / "out" / "manifest.json")
        assert set(manifest) == {"bundle", "counts", "warnings", "timings_s"}
        assert manifest["bundle"]["signature"] == pipeline._bundle_signature(runs[0] / "bundle")


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
        assert named in err[0]

    @pytest.mark.parametrize("rel,damage,named", [
        pytest.param("intrinsics/top.json", lambda d: d.update(fx="abc"), "abc", id="fx"),
        pytest.param("intrinsics/top.json", lambda d: d.update(distortion="abc"), "abc",
                     id="distortion"),
        pytest.param("rig.json", lambda d: d.update(cameras=[1]), "", id="rig-camera-int"),
        pytest.param("rig.json", lambda d: [], "", id="rig-list"),
        pytest.param("depth/top_000.json", lambda d: [], "", id="depth-sidecar-list"),
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
    ])
    def test_measure(self, runs, tmp_path, capsys, rel, damage, named):
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        damage_copy(bundle / rel, bundle / rel, damage)
        code = main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")])
        self.assert_io_error(code, capsys, bundle / rel, named)

    @pytest.mark.parametrize("doc", [[], {"observations": [1]}, {"anchor": 5}],
                             ids=["list", "observation-int", "anchor-int"])
    def test_calibrate(self, tmp_path, capsys, doc):
        dump_json(doc, tmp_path / "poses.json")
        code = main(["calibrate", "--poses", str(tmp_path / "poses.json"),
                     "-o", str(tmp_path / "rig.json")])
        self.assert_io_error(code, capsys, tmp_path / "poses.json")

    @pytest.mark.parametrize("damage,named", [
        (lambda d: d["fruits"][0].update(semi_axes="abc"), "abc"),
        (lambda d: d["noise"].update(sigma_at_1m="abc"), "abc"),
        (lambda d: d["fruits"][0].update(id=7), "id"),
        (lambda d: d.pop("fruits") and None, "missing field 'fruits'"),
    ], ids=["semi-axes-string", "sigma-string", "fruit-id-int", "missing-key"])
    def test_simulate(self, scene_path, tmp_path, capsys, damage, named):
        scene = damage_copy(scene_path, tmp_path / "scene.json", damage)
        code = main(["simulate", "--scene", str(scene), "-o", str(tmp_path / "bundle")])
        self.assert_io_error(code, capsys, scene, named)
