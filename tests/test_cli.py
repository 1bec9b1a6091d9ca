"""End-to-end tests of the five ``fruitgauge`` commands through ``cli.main``."""

import json
import shutil

import numpy as np
import pytest

from fruitgauge import fusion, pipeline
from fruitgauge.cli import main
from fruitgauge.fileio import dump_json, read_rig, transform_to_dict
from fruitgauge.geometry import compose, invert, rotation_about
from fruitgauge.maskops import BinaryMask, encode_rle
from fruitgauge.simulate import RIG_TARGET, lab_scene, paper_rig, scene_to_dict

OUTPUTS = ("records.json", "fused.json", "report.json")


def run_chain(root, scene_path):
    """simulate -> measure -> fuse -> evaluate into ``root``; returns ``root``."""
    bundle, out = root / "bundle", root / "out"
    assert main(["simulate", "--scene", str(scene_path), "-o", str(bundle)]) == 0
    assert main(["measure", "--bundle", str(bundle), "-o", str(out)]) == 0
    assert main(["fuse", "--records", str(out / "records.json"),
                 "--rig", str(bundle / "rig.json"), "-o", str(out / "fused.json")]) == 0
    assert main(["evaluate", "--fused", str(out / "fused.json"),
                 "--records", str(out / "records.json"),
                 "--truth", str(bundle / "ground_truth.csv"),
                 "-o", str(out / "report")]) == 0
    return root


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
        solved = {c.camera_id: c.cam_to_world.matrix for c in read_rig(tmp_path / "rig.json")}
        for cam in rig:
            assert np.max(np.abs(solved[cam.camera_id] - cam.cam_to_world.matrix)) <= 1e-12

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
        with pytest.raises(SystemExit):
            main(["fuse", "--records", str(runs[0] / "out" / "records.json"),
                  "--rig", str(runs[0] / "bundle" / "rig.json"),
                  "--config", str(tmp_path / "c.json"), "-o", str(tmp_path / "f.json")])


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

    def measure_damaged(self, runs, tmp_path, damage):
        bundle = tmp_path / "bundle"
        shutil.copytree(runs[0] / "bundle", bundle)
        det_path = bundle / "detections" / "middle_000.json"
        doc = load(det_path)
        damage(doc["detections"][4])
        dump_json(doc, det_path)
        code = main(["measure", "--bundle", str(bundle), "-o", str(tmp_path / "out")])
        return code, tmp_path / "out" / "records.json"

    def assert_one_warning(self, records_path, reason):
        doc = load(records_path)
        assert len(doc["records"]) + len(doc["warnings"]) == 36
        flagged = [w for w in doc["warnings"] if w["reason"] == reason]
        assert [(w["camera_id"], w["detection_index"]) for w in flagged] == [("middle", 4)]

    def test_mask_size_differs_from_image(self, runs, tmp_path):
        big = BinaryMask(np.zeros((960, 1280), dtype=bool))
        big.data[100:140, 100:140] = True
        code, records = self.measure_damaged(
            runs, tmp_path, lambda d: d.update(mask_rle=encode_rle(big)))
        assert code == 0
        self.assert_one_warning(records, "LengthMismatch")

    def test_bbox_outside_image(self, runs, tmp_path):
        code, records = self.measure_damaged(
            runs, tmp_path, lambda d: d.update(bbox=[5000, 5000, 10, 10]))
        assert code == 0
        self.assert_one_warning(records, "OutOfBounds")

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


class TestMeasureConfig:
    @pytest.mark.parametrize("config", [{"per_point_depth": "no"}, {"refine_circle": True},
                                        {"extreme_point_source": "hull"}])
    def test_bad_config_exits_1(self, runs, tmp_path, config):
        dump_json(config, tmp_path / "config.json")
        assert main(["measure", "--bundle", str(runs[0] / "bundle"),
                     "--config", str(tmp_path / "config.json"), "-o", str(tmp_path / "out")]) == 1

    def test_config_not_an_object_exits_2(self, runs, tmp_path):
        dump_json([{"per_point_depth": True}], tmp_path / "config.json")
        assert main(["measure", "--bundle", str(runs[0] / "bundle"),
                     "--config", str(tmp_path / "config.json"), "-o", str(tmp_path / "out")]) == 2

    def test_bbox_extremes_config_changes_records(self, runs, tmp_path):
        dump_json({"extreme_point_source": "bbox"}, tmp_path / "config.json")
        assert main(["measure", "--bundle", str(runs[0] / "bundle"),
                     "--config", str(tmp_path / "config.json"), "-o", str(tmp_path / "out")]) == 0
        manifest = load(tmp_path / "out" / "manifest.json")
        assert manifest["config"] == {"extreme_point_source": "bbox", "per_point_depth": False}
        assert (tmp_path / "out" / "records.json").read_bytes() \
            != (runs[0] / "out" / "records.json").read_bytes()
