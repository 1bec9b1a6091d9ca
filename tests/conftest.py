import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from fruitgauge.geometry import RigidTransform, rotation_about


def pytest_configure(config):
    # Hypothesis caches constants and unicode tables under its home directory
    # even with database=None; keep them in a temporary one, not the work tree.
    config.hypothesis_home = Path(tempfile.mkdtemp(prefix="fruitgauge-hypothesis-"))
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


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
