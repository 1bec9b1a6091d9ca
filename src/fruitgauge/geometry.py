"""Rigid transforms, pinhole camera model, and depth-image geometry.

Conventions used throughout the package:

* Camera frame: x right, y down, z forward (optical axis). Units: meters.
* Pixel frame: origin at the top-left corner, u = column, v = row. A pixel's
  ray passes through its integer coordinate (u, v).
* A ``RigidTransform`` named ``a_to_b`` maps coordinates of frame ``a`` into
  frame ``b``; ``compose(a, b)`` applies ``b`` first, then ``a``.
* ``pixel_to_ray``/``ray_to_pixel`` are the package's one camera model and
  ``depth_units`` its one metric-to-sample rounding; being plain arithmetic,
  they take Python floats as well as numpy arrays of any shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import BehindCamera, InvalidDepth, InvalidPose, OutOfBounds

ORTHONORMAL_TOL = 1e-6     # accepted on ingest
DRIFT_REPAIR_TOL = 1e-9    # re-orthonormalize composition results beyond this


class Point3(NamedTuple):
    x: float
    y: float
    z: float

    def to_array(self) -> np.ndarray:
        return np.array(self, dtype=float)

    @staticmethod
    def from_array(a) -> "Point3":
        x, y, z = (float(v) for v in a)
        return Point3(x, y, z)


class Pixel(NamedTuple):
    u: float
    v: float


def distance(a: Point3, b: Point3) -> float:
    """Euclidean distance in meters."""
    return float(np.linalg.norm(a.to_array() - b.to_array()))


def _project_to_so3(r: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (polar decomposition)."""
    u, _, vt = np.linalg.svd(r)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


# eq=False: == and hash() go by identity; generated ones would compare arrays.
@dataclass(frozen=True, eq=False)
class RigidTransform:
    """3D rigid motion stored as a 3x3 rotation and a 3-vector translation.

    Equivalent to the 4x4 homogeneous matrix with bottom row (0, 0, 0, 1).
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if r.shape != (3, 3):
            raise InvalidPose(f"rotation must be 3x3, got {r.shape}")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise InvalidPose("pose contains non-finite values")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def validate(self) -> "RigidTransform":
        """Raise InvalidPose unless the rotation is orthonormal with det +1
        within ``ORTHONORMAL_TOL``."""
        r = self.rotation
        if not (np.max(np.abs(r.T @ r - np.eye(3))) <= ORTHONORMAL_TOL
                and abs(float(np.linalg.det(r)) - 1.0) <= ORTHONORMAL_TOL):
            raise InvalidPose("rotation is not orthonormal within tolerance")
        return self


def translation_transform(x: float, y: float, z: float) -> RigidTransform:
    return RigidTransform(np.eye(3), np.array([x, y, z], dtype=float))


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform applying ``b`` first, then ``a``."""
    r = a.rotation @ b.rotation
    if np.max(np.abs(r.T @ r - np.eye(3))) > DRIFT_REPAIR_TOL:
        r = _project_to_so3(r)
    t = a.rotation @ b.translation + a.translation
    return RigidTransform(r, t)


def invert(t: RigidTransform) -> RigidTransform:
    rt = t.rotation.T
    return RigidTransform(rt, -rt @ t.translation)


def apply(t: RigidTransform, p: Point3) -> Point3:
    return Point3.from_array(t.rotation @ p.to_array() + t.translation)


def apply_points(t: RigidTransform, pts: np.ndarray) -> np.ndarray:
    """Apply the transform to an (n, 3) array of points."""
    return pts @ t.rotation.T + t.translation


def solve_camera_chain(board_in_a: RigidTransform, board_in_b: RigidTransform) -> RigidTransform:
    """Transform T with T @ board_in_a == board_in_b.

    Both arguments are poses of the same board observed simultaneously by
    cameras a and b; the result maps camera-a coordinates into camera-b
    coordinates.
    """
    board_in_a.validate()
    board_in_b.validate()
    return compose(board_in_b, invert(board_in_a))


def mean_rotation(rotations: Sequence[np.ndarray]) -> np.ndarray:
    """Chordal mean: average the matrices, project back onto SO(3)."""
    return _project_to_so3(np.mean(np.stack(rotations), axis=0))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model with optional 5-coefficient Brown-Conrady distortion.

    Distortion coefficients are ordered (k1, k2, p1, p2, k3) and held as a
    tuple of floats, so intrinsics compare and hash by value.
    """

    width: int
    height: int
    fx: float
    fy: float
    ppx: float
    ppy: float
    distortion: Optional[Tuple[float, float, float, float, float]] = None

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise InvalidPose("focal lengths must be positive and finite")
        if not (0 <= self.ppx < self.width and 0 <= self.ppy < self.height):
            raise InvalidPose("principal point must lie inside the image")
        if self.distortion is not None:
            d = tuple(np.asarray(self.distortion, dtype=float).reshape(-1).tolist())
            if len(d) != 5:
                raise InvalidPose("distortion must have 5 coefficients")
            object.__setattr__(self, "distortion", d)

    @property
    def has_distortion(self) -> bool:
        return self.distortion is not None and any(self.distortion)


# eq=False: == and hash() go by identity; generated ones would compare arrays.
@dataclass(frozen=True, eq=False)
class DepthImage:
    """16-bit depth buffer; a zero sample means "no depth"."""

    data: np.ndarray          # uint16, shape (height, width)
    depth_scale: float = 0.001  # meters per unit

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.ndim != 2:
            raise InvalidDepth(f"depth data must be 2D, got shape {d.shape}")
        if d.dtype != np.uint16:
            if np.any(d < 0) or np.any(d > 65535):
                raise InvalidDepth("depth samples out of uint16 range")
            d = d.astype(np.uint16)
        object.__setattr__(self, "data", d)
        if not self.depth_scale > 0:
            raise InvalidDepth("depth_scale must be positive")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def depth_m_at(self, px: Pixel) -> float:
        """Metric depth at the nearest pixel (halves round up); 0.0 where there is no sample."""
        u, v = math.floor(px.u + 0.5), math.floor(px.v + 0.5)
        if not (0 <= u < self.width and 0 <= v < self.height):
            raise OutOfBounds(f"pixel ({u},{v}) outside {self.width}x{self.height}")
        return float(self.data[v, u]) * self.depth_scale


@dataclass
class RigCamera:
    """One camera of a calibrated rig.

    ``cam_to_world`` maps camera-frame points into the world frame. When the
    bundle stores unaligned depth, ``depth_intrinsics``/``depth_to_color``
    describe the depth sensor so frames can be aligned on ingest.
    """

    camera_id: str
    intrinsics: Optional[CameraIntrinsics]
    cam_to_world: RigidTransform
    depth_intrinsics: Optional[CameraIntrinsics] = None
    depth_to_color: Optional[RigidTransform] = None


def _distort_normalized(xn, yn, d):
    k1, k2, p1, p2, k3 = d
    r2 = xn * xn + yn * yn
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    xd = xn * radial + 2 * p1 * xn * yn + p2 * (r2 + 2 * xn * xn)
    yd = yn * radial + p1 * (r2 + 2 * yn * yn) + 2 * p2 * xn * yn
    return xd, yd


# Fixed-point steps of the inverse distortion. Sensor-typical coefficients
# converge to under 1e-9 px within them (most pixels in 5 to 8 steps).
UNDISTORT_ITERATIONS = 10


def _undistort_normalized(xd, yd, d):
    # A fixed number of steps with no convergence test: the test is a numpy
    # reduction, which costs a scalar call more than the steps it saves. The
    # coefficients are Python floats, so scalar arithmetic stays in floats.
    k1, k2, p1, p2, k3 = d
    xn, yn = xd, yd
    for _ in range(UNDISTORT_ITERATIONS):
        r2 = xn * xn + yn * yn
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dx = 2 * p1 * xn * yn + p2 * (r2 + 2 * xn * xn)
        dy = p1 * (r2 + 2 * yn * yn) + 2 * p2 * xn * yn
        xn = (xd - dx) / radial
        yn = (yd - dy) / radial
    return xn, yn


def pixel_to_ray(k: CameraIntrinsics, u, v):
    """Pixel (u, v) -> normalized ray (x/z, y/z) in the camera frame, undistorted."""
    xn = (u - k.ppx) / k.fx
    yn = (v - k.ppy) / k.fy
    if k.has_distortion:
        return _undistort_normalized(xn, yn, k.distortion)
    return xn, yn


def ray_to_pixel(k: CameraIntrinsics, xn, yn):
    """Normalized ray (x/z, y/z) in the camera frame -> pixel (u, v), distorted."""
    if k.has_distortion:
        xn, yn = _distort_normalized(xn, yn, k.distortion)
    return k.fx * xn + k.ppx, k.fy * yn + k.ppy


def depth_units(z_m, depth_scale: float):
    """Metric depth -> uint16 depth samples: round half up, clip to 0..65535."""
    return np.clip(np.floor(z_m / depth_scale + 0.5), 0, 65535).astype(np.uint16)


def deproject(k: CameraIntrinsics, px: Pixel, depth_m: float) -> Point3:
    """Pixel + metric depth -> camera-frame 3D point."""
    if depth_m <= 0:
        raise InvalidDepth(f"depth must be positive, got {depth_m}")
    if not (0 <= px.u <= k.width - 1 and 0 <= px.v <= k.height - 1):
        raise OutOfBounds(f"pixel ({px.u},{px.v}) outside {k.width}x{k.height}")
    xn, yn = pixel_to_ray(k, px.u, px.v)
    return Point3(float(xn) * depth_m, float(yn) * depth_m, depth_m)


def project(k: CameraIntrinsics, p: Point3) -> Pixel:
    """Camera-frame 3D point -> pixel (not necessarily inside the image)."""
    if p.z <= 0:
        raise BehindCamera(f"cannot project point with z={p.z}")
    return Pixel(*ray_to_pixel(k, p.x / p.z, p.y / p.z))


def align_depth_to_color(
    depth: DepthImage,
    depth_k: CameraIntrinsics,
    color_k: CameraIntrinsics,
    depth_to_color: RigidTransform,
) -> DepthImage:
    """Re-render a depth image into the color camera's pixel grid.

    Every valid sample is deprojected, moved into the color frame and
    re-projected; collisions keep the nearest sample and uncovered output
    pixels stay 0.
    """
    # One flat array per coordinate: numpy runs much slower over the short
    # rows of an (n, 3) array. Large arrays are freed as soon as they are used.
    valid = np.flatnonzero(depth.data != 0)
    z = depth.data.ravel()[valid].astype(float) * depth.depth_scale
    vv, uu = np.divmod(valid, depth.width)
    del valid
    xn, yn = pixel_to_ray(depth_k, uu, vv)
    del uu, vv
    x, y = xn * z, yn * z
    del xn, yn
    px, py, pz = (x * r0 + y * r1 + z * r2 + t for (r0, r1, r2), t in
                  zip(depth_to_color.rotation.tolist(), depth_to_color.translation.tolist()))
    del x, y, z

    front = pz > 0
    if not front.all():
        px, py, pz = px[front], py[front], pz[front]
    del front
    u, v = ray_to_pixel(color_k, px / pz, py / pz)
    del px, py
    uo = np.floor(u + 0.5).astype(np.int64)
    del u
    vo = np.floor(v + 0.5).astype(np.int64)
    del v
    height, width = color_k.height, color_k.width
    inside = (uo >= 0) & (uo < width) & (vo >= 0) & (vo < height)
    flat = (vo * width + uo)[inside]
    del uo, vo
    samples = depth_units(pz[inside], depth.depth_scale)
    del pz, inside

    # z-buffer: keep the nearest nonzero sample per output pixel
    order = np.argsort(samples, kind="stable")[::-1]  # write nearest last
    samples = samples[order]
    flat = flat[order]
    del order
    keep = samples > 0
    out = np.zeros(height * width, dtype=np.uint16)
    out[flat[keep]] = samples[keep]
    return DepthImage(out.reshape(height, width), depth.depth_scale)
