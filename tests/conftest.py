import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from fruitgauge.errors import DegenerateCircle, InvalidDepth, InvalidPose, OutOfBounds
from fruitgauge.evaluation import GroundTruthRecord, TruthTable
from fruitgauge.fileio import intrinsics_to_dict, transform_to_dict
from fruitgauge.geometry import CameraIntrinsics, Pixel, Point3, RigidTransform, pixel_to_ray
from fruitgauge.simulate import SceneSpec


def pytest_configure(config):
    # Hypothesis caches constants and unicode tables under its home directory
    # even with database=None; keep them in a temporary one, not the work tree.
    config.hypothesis_home = Path(tempfile.mkdtemp(prefix="fruitgauge-hypothesis-"))
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


@dataclass(frozen=True)
class FittedCircle:
    """A circle in pixels, checked as a record's ``circle`` is: the
    reference's value for a fitted circle, which the package holds as a row
    of cu, cv, r_px."""

    cu: float       # center column, pixels
    cv: float       # center row, pixels
    r_px: float

    def __post_init__(self):
        if not (math.isfinite(self.cu) and math.isfinite(self.cv) and 0 < self.r_px < math.inf):
            raise DegenerateCircle(
                f"invalid circle (cu={self.cu}, cv={self.cv}, r_px={self.r_px})"
            )


def truth_table(records) -> TruthTable:
    """The ``TruthTable`` of ``GroundTruthRecord``s, in order, a NaN row for a missing center."""
    return TruthTable([t.fruit_id for t in records],
                      np.array([t.height_mm for t in records], dtype=float),
                      np.array([t.width_mm for t in records], dtype=float),
                      np.array([t.center_world or (math.nan,) * 3 for t in records],
                               dtype=float).reshape(-1, 3))


def truth_records(table: TruthTable) -> list:
    """Each row of a ``TruthTable`` as a ``GroundTruthRecord``, None for a NaN center."""
    return [GroundTruthRecord(fruit_id, height, width,
                              None if math.isnan(center[0]) else Point3._make(center))
            for fruit_id, height, width, center in zip(
                table.fruit_id, table.height_mm.tolist(), table.width_mm.tolist(),
                table.center_world_m.tolist())]


def rotation_about(axis, angle_rad: float, translation=(0.0, 0.0, 0.0)) -> RigidTransform:
    """Rotation by ``angle_rad`` around ``axis`` (Rodrigues), plus translation."""
    a = np.asarray(axis, dtype=float)
    n = np.linalg.norm(a)
    if n == 0:
        raise InvalidPose("rotation axis must be nonzero")
    a = a / n
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    r = np.eye(3) + np.sin(angle_rad) * k + (1 - np.cos(angle_rad)) * (k @ k)
    return RigidTransform(r, np.asarray(translation, dtype=float))


def deproject(k: CameraIntrinsics, px: Pixel, depth_m: float) -> Point3:
    """Pixel + metric depth -> camera-frame 3D point, one at a time: the
    reference for the package's array deprojection in ``align_depth_to_color``
    and ``fusion.localize``, with the rejections the sizing reference expects."""
    if depth_m <= 0:
        raise InvalidDepth(f"depth must be positive, got {depth_m}")
    if not (0 <= px.u <= k.width - 1 and 0 <= px.v <= k.height - 1):
        raise OutOfBounds(f"pixel ({px.u},{px.v}) outside {k.width}x{k.height}")
    xn, yn = pixel_to_ray(k, px.u, px.v)
    return Point3(float(xn) * depth_m, float(yn) * depth_m, depth_m)


def record_dicts(table) -> list:
    """Each row of a ``fileio.RecordTable`` as its ``records.json`` object,
    keys in written order: the reference of the record writers."""
    circles = [{"cu": cu, "cv": cv, "r_px": r_px} for cu, cv, r_px in table.circle.tolist()]
    return [{"frame_id": frame_id, "camera_id": camera_id, "detection_index": index,
             "class": class_name, "fruit_id": fruit_id, "height_mm": height_mm,
             "width_mm": width_mm, "median_depth_m": median_depth_m,
             "fill_ratio": fill_ratio, "circle": circle, "bbox": bbox,
             "center_depth_m": center_depth_m, "radius_m": radius_m, "center_world_m": center}
            for (frame_id, camera_id, index, class_name, fruit_id, height_mm, width_mm,
                 median_depth_m, fill_ratio, circle, bbox, center_depth_m, radius_m, center)
            in zip(table.frame_id, table.camera_id, table.detection_index, table.class_name,
                   table.fruit_id, table.height_mm.tolist(), table.width_mm.tolist(),
                   table.median_depth_m.tolist(), table.fill_ratio.tolist(), circles,
                   table.bbox, table.center_depth_m.tolist(), table.radius_m.tolist(),
                   table.center_world_m.tolist())]


class Fruit(NamedTuple):
    """One fruit of a ``fusion.FruitTable``, as its own object."""

    members: list                       # table rows, in table order
    chosen: int                         # index into ``members``
    center_world: Point3
    radius_m: float


def clusters(fruits) -> list:
    """Each fruit of a ``fusion.FruitTable`` as a ``Fruit``, in table order."""
    starts = fruits.starts.tolist()
    return [Fruit(fruits.members[a:b].tolist(), chosen, Point3._make(center), radius)
            for a, b, chosen, center, radius in zip(
                starts, starts[1:], fruits.chosen.tolist(), fruits.center_world_m.tolist(),
                fruits.radius_m.tolist())]


def fused_document(fruits, rows: list) -> dict:
    """The ``fused.json`` document of the ``fusion.FruitTable`` ``fruits`` over
    the record objects ``rows``: the reference of ``fileio.write_fused``."""
    return {"fruits": [{"center_world_m": list(f.center_world), "radius_m": f.radius_m,
                        "n_views": len(f.members), "chosen": rows[f.members[f.chosen]],
                        "members": [rows[i] for i in f.members]} for f in clusters(fruits)]}


def scene_to_dict(spec: SceneSpec) -> dict:
    """The scene document (``simulate --scene``) that ``fileio.scene_from_dict`` reads."""
    return {
        "seed": spec.seed,
        "depth_scale": spec.depth_scale,
        "noise": {"sigma_at_1m": spec.sigma_at_1m, "model": "z2"},
        "rig": [
            {
                "camera_id": cam.camera_id,
                "intrinsics": intrinsics_to_dict(cam.intrinsics),
                "cam_to_world": transform_to_dict(cam.cam_to_world),
            }
            for cam in spec.rig
        ],
        "fruits": [
            {
                "id": f.fruit_id,
                "center_world": [f.center_world.x, f.center_world.y, f.center_world.z],
                "semi_axes": [float(s) for s in f.semi_axes],
            }
            for f in spec.fruits
        ],
        "occluders": [
            {"corners": [[float(x) for x in corner] for corner in corners]}
            for corners in spec.occluders.corners
        ],
    }


def random_rigid(rng: np.random.Generator, t_scale: float = 1.0) -> RigidTransform:
    """Uniformly random axis-angle rotation plus a random translation."""
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.normal(size=3)
    angle = rng.uniform(-np.pi, np.pi)
    t = rng.uniform(-t_scale, t_scale, size=3)
    return rotation_about(axis, angle, t)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
