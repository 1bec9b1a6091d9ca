import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from fruitgauge.errors import InvalidPose
from fruitgauge.fileio import intrinsics_to_dict, transform_to_dict
from fruitgauge.geometry import RigidTransform
from fruitgauge.simulate import SceneSpec


def pytest_configure(config):
    # Hypothesis caches constants and unicode tables under its home directory
    # even with database=None; keep them in a temporary one, not the work tree.
    config.hypothesis_home = Path(tempfile.mkdtemp(prefix="fruitgauge-hypothesis-"))
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


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


def scene_to_dict(spec: SceneSpec) -> dict:
    """The scene document (``simulate --scene``) that ``fileio.scene_from_dict`` reads."""
    return {
        "seed": spec.seed,
        "depth_scale": spec.depth_scale,
        "noise": {"sigma_at_1m": spec.noise.sigma_at_1m, "model": spec.noise.model},
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
            {"corners": [[float(x) for x in corner] for corner in occ.corners]}
            for occ in spec.occluders
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
