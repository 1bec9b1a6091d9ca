"""Synthetic capture oracle: ray-cast scenes with known fruit geometry.

Fruits are axis-aligned ellipsoids (spheres when the semi-axes agree) in the
world frame; occluding "leaves" are planar quads. Each camera pixel casts a
ray through its center; the nearest hit wins, which makes per-fruit masks a
partition, exactly like instance segmentation behaves under occlusion. Depth
is the camera-frame z of the hit, quantized by the depth scale.

Rays are cast only inside each object's window: the pixel bbox, plus 2 px,
of a fruit's exact silhouette (from the ellipsoid's dual conic) or of a
leaf's corners. The renderer models no lens distortion, so a pixel's
normalized ray is separable (x depends on the column only, y on the row
only), and a window's rays are broadcast from one row of xs and one column
of ys as x, y and z component arrays. Depth noise draws one normal per pixel
of the whole frame, so each pixel's draw does not depend on which pixels were
hit, but it is applied to hit pixels only.

World convention: the frame is anchored to the middle camera of the rig
(x right, y down, z forward), so a fruit's height spans the world y axis and
its width the x axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidSpec
from .evaluation import GroundTruthRecord
from .geometry import (
    CameraIntrinsics,
    DepthImage,
    Point3,
    RigCamera,
    RigidTransform,
    apply,
    apply_points,
    depth_units,
    invert,
    pixel_to_ray,
    ray_to_pixel,
)
from .maskops import BinaryMask

_EPS_T = 1e-9
DEFAULT_FRAME_ID = "000"


# eq=False: == and hash() go by identity; generated ones would compare arrays.
@dataclass(frozen=True, eq=False)
class FruitSpec:
    fruit_id: str
    center_world: Point3
    semi_axes: np.ndarray  # (ax, ay, az) meters; y is the vertical axis

    def __post_init__(self):
        s = np.asarray(self.semi_axes, dtype=float).reshape(-1)
        if s.shape != (3,) or not (np.all((s > 0) & np.isfinite(s))
                                   and np.all(np.isfinite(self.center_world))):
            raise InvalidSpec(f"fruit {self.fruit_id!r}: needs a finite center and "
                              "3 positive finite semi-axes")
        object.__setattr__(self, "semi_axes", s)

    @property
    def height_mm(self) -> float:
        return 2000.0 * float(self.semi_axes[1])

    @property
    def width_mm(self) -> float:
        return 2000.0 * float(self.semi_axes[0])


# eq=False: == and hash() go by identity; generated ones would compare arrays.
@dataclass(frozen=True, eq=False)
class QuadOccluder:
    corners: np.ndarray  # (4, 3) world meters, rendered as two triangles

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=float)
        if c.shape != (4, 3) or not np.all(np.isfinite(c)):
            raise InvalidSpec("occluder needs 4 finite 3D corners")
        object.__setattr__(self, "corners", c)


@dataclass(frozen=True)
class NoiseSpec:
    sigma_at_1m: float = 0.0   # meters of std-dev at 1 m; sigma(z) grows as z^2
    model: str = "z2"

    def __post_init__(self):
        if not self.sigma_at_1m >= 0:
            raise InvalidSpec("noise sigma must be >= 0")
        if self.model != "z2":
            raise InvalidSpec(f"unknown noise model {self.model!r}")


@dataclass(frozen=True)
class SceneSpec:
    fruits: List[FruitSpec]
    occluders: List[QuadOccluder]
    rig: List[RigCamera]
    noise: NoiseSpec = NoiseSpec()
    seed: int = 0
    depth_scale: float = 0.001

    def __post_init__(self):
        if not self.rig:
            raise InvalidSpec("scene needs at least one camera")
        for cam in self.rig:
            if cam.intrinsics is None:
                raise InvalidSpec(f"camera {cam.camera_id!r} has no intrinsics")
            if cam.intrinsics.has_distortion:
                raise InvalidSpec("the renderer models an ideal pinhole (no distortion)")
        if not self.depth_scale > 0:
            raise InvalidSpec("depth_scale must be positive")
        if self.seed < 0:
            raise InvalidSpec("seed must be >= 0")

    def ground_truth(self) -> List[GroundTruthRecord]:
        return [
            GroundTruthRecord(f.fruit_id, f.height_mm, f.width_mm, f.center_world)
            for f in self.fruits
        ]


@dataclass
class CameraCapture:
    camera: RigCamera
    depth: DepthImage
    masks: Dict[str, BinaryMask]  # fruit_id -> mask, visible fruits only


@dataclass
class CaptureBundle:
    captures: List[CameraCapture]
    truth: List[GroundTruthRecord]
    frame_id: str = DEFAULT_FRAME_ID


Vec3 = Sequence[float]


def _sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    """Dot product of two 3-sequences, each of floats or of arrays."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _ellipsoid_ts(origin: Vec3, dirs: Sequence[np.ndarray], center: Vec3,
                  semi: Vec3) -> np.ndarray:
    """Smallest ray parameter above ``_EPS_T`` per ray, inf when the ray misses.

    ``dirs`` are the x, y and z components of the ray directions, arrays of
    one shape; ``origin``, ``center`` and ``semi`` are three floats each.
    """
    o = [(oi - ci) / si for oi, ci, si in zip(origin, center, semi)]
    d = [di / si for di, si in zip(dirs, semi)]
    a = _dot(d, d)
    b = 2.0 * _dot(d, o)
    c = _dot(o, o) - 1.0
    disc = b * b - 4.0 * a * c
    hit = disc >= 0
    t = np.full(disc.shape, np.inf)
    sq = np.sqrt(disc[hit])
    b, a2 = b[hit], 2.0 * a[hit]
    t1 = (-b - sq) / a2
    t2 = (-b + sq) / a2
    t[hit] = np.where(t1 > _EPS_T, t1, np.where(t2 > _EPS_T, t2, np.inf))
    return t


def _triangle_ts(origin: Vec3, dirs: Sequence[np.ndarray],
                 v0: Vec3, v1: Vec3, v2: Vec3) -> np.ndarray:
    """Moeller-Trumbore, vectorized over rays given as x, y, z component arrays.

    Each term that is linear in the ray direction d is a dot product with
    one constant vector: the determinant (d x e2) . e1 = d . (e2 x e1) and
    the first barycentric (d x e2) . s = d . (e2 x s).
    """
    e1, e2, s = _sub(v1, v0), _sub(v2, v0), _sub(origin, v0)
    q = _cross(s, e1)
    a = _dot(dirs, _cross(e2, e1))
    ok = np.abs(a) > 1e-14
    inv = np.where(ok, 1.0 / np.where(ok, a, 1.0), 0.0)
    u = inv * _dot(dirs, _cross(e2, s))
    v = inv * _dot(dirs, q)
    t = inv * _dot(e2, q)
    tol = 1e-12
    hit = ok & (u >= -tol) & (v >= -tol) & (u + v <= 1.0 + tol) & (t > _EPS_T)
    return np.where(hit, t, np.inf)


def _quad_ts(origin: Vec3, dirs: Sequence[np.ndarray], corners: Sequence[Vec3]) -> np.ndarray:
    t1 = _triangle_ts(origin, dirs, corners[0], corners[1], corners[2])
    t2 = _triangle_ts(origin, dirs, corners[0], corners[2], corners[3])
    return np.minimum(t1, t2)


Window = Tuple[int, int, int, int]   # (u0, u1, v0, v1), inclusive pixel bounds
WINDOW_MARGIN_PX = 2


def _clip_window(k: CameraIntrinsics, u_lo: float, u_hi: float, v_lo: float,
                 v_hi: float) -> Optional[Window]:
    """Pixel bounds covering [u_lo, u_hi] x [v_lo, v_hi] plus ``WINDOW_MARGIN_PX``,
    clipped to the image; None when nothing is left."""
    u0 = max(math.floor(u_lo) - WINDOW_MARGIN_PX, 0)
    u1 = min(math.ceil(u_hi) + WINDOW_MARGIN_PX, k.width - 1)
    v0 = max(math.floor(v_lo) - WINDOW_MARGIN_PX, 0)
    v1 = min(math.ceil(v_hi) + WINDOW_MARGIN_PX, k.height - 1)
    if u0 > u1 or v0 > v1:
        return None
    return (u0, u1, v0, v1)


def _whole_image(k: CameraIntrinsics) -> Window:
    return (0, k.width - 1, 0, k.height - 1)


def _camera_points(world_to_cam: RigidTransform, points: Sequence[Vec3]) -> List[Vec3]:
    rows, t = world_to_cam.rotation.tolist(), world_to_cam.translation.tolist()
    return [(_dot(rows[0], p) + t[0], _dot(rows[1], p) + t[1], _dot(rows[2], p) + t[2])
            for p in points]


def _quad_window(corners_world: np.ndarray, world_to_cam: RigidTransform,
                 k: CameraIntrinsics) -> Optional[Window]:
    """Pixel bbox of a quad's corners (it is convex): None when fully outside
    the image, the whole image when any corner is at or behind the camera plane."""
    pts = _camera_points(world_to_cam, corners_world.tolist())
    if any(z <= 1e-6 for _, _, z in pts):
        return _whole_image(k)
    us, vs = zip(*(ray_to_pixel(k, x / z, y / z) for x, y, z in pts))
    return _clip_window(k, min(us), max(us), min(vs), max(vs))


def _fruit_window(fruit: FruitSpec, world_to_cam: RigidTransform,
                  k: CameraIntrinsics) -> Optional[Window]:
    """Pixel bbox of a fruit's exact silhouette: None when it lies outside
    the image or wholly behind the camera, the whole image when it reaches
    the camera plane.

    With the fruit's center c and shape matrix R diag(s^2) R^T in the camera
    frame, a plane l . X = 0 through the camera center meets the ellipsoid
    iff l^T n l <= 0, n = c c^T - R diag(s^2) R^T: n is the dual conic of the
    silhouette in normalized coordinates (Hartley & Zisserman 2004, ch. 8).
    The planes x = x0 z with l = (1, 0, -x0) give the outline's x extent as
    the roots of n00 - 2 x0 n02 + x0^2 n22, and likewise for y. n22 > 0 says
    the ellipsoid does not reach the plane z = 0, so the sign of the center's
    z then says on which side of it the fruit lies.
    """
    (c,) = _camera_points(world_to_cam, [fruit.center_world])
    r = world_to_cam.rotation.tolist()
    s2 = [s * s for s in fruit.semi_axes.tolist()]

    def n(i: int, j: int) -> float:
        return c[i] * c[j] - (r[i][0] * r[j][0] * s2[0] + r[i][1] * r[j][1] * s2[1]
                              + r[i][2] * r[j][2] * s2[2])

    n22 = n(2, 2)
    if n22 <= 0:
        return _whole_image(k)
    if c[2] <= 0:
        return None

    def extent(i: int) -> Tuple[float, float]:
        n_ii, n_i2 = n(i, i), n(i, 2)
        half = math.sqrt(max(n_i2 * n_i2 - n_ii * n22, 0.0))
        return (n_i2 - half) / n22, (n_i2 + half) / n22

    (x_lo, x_hi), (y_lo, y_hi) = extent(0), extent(1)
    u_lo, v_lo = ray_to_pixel(k, x_lo, y_lo)
    u_hi, v_hi = ray_to_pixel(k, x_hi, y_hi)
    return _clip_window(k, u_lo, u_hi, v_lo, v_hi)


def _render_camera(cam: RigCamera, spec: SceneSpec) -> Tuple[DepthImage, Dict[str, BinaryMask]]:
    k = cam.intrinsics
    world_to_cam = invert(cam.cam_to_world)
    origin = cam.cam_to_world.translation.tolist()
    rows = cam.cam_to_world.rotation.tolist()
    # SceneSpec refuses distortion, so a pixel's normalized ray is separable:
    # its x depends on the column only and its y on the row only. A window's
    # world ray directions (x, y, 1) @ rot.T are then broadcast from a row of
    # xs and a column of ys.
    xs, ys = pixel_to_ray(k, np.arange(k.width), np.arange(k.height)[:, None])

    # ray parameter t equals camera-frame z because dirs have z component 1
    best_t = np.full((k.height, k.width), np.inf)
    winner = np.full((k.height, k.width), -1, dtype=np.int32)

    objects: List[object] = [*spec.fruits, *spec.occluders]
    windows = [_fruit_window(obj, world_to_cam, k) if isinstance(obj, FruitSpec)
               else _quad_window(obj.corners, world_to_cam, k) for obj in objects]
    for idx, (obj, window) in enumerate(zip(objects, windows)):
        if window is None:
            continue
        u0, u1, v0, v1 = window
        x, y = xs[u0:u1 + 1], ys[v0:v1 + 1]
        dirs = [x * r0 + (y * r1 + r2) for r0, r1, r2 in rows]
        if isinstance(obj, FruitSpec):
            t = _ellipsoid_ts(origin, dirs, obj.center_world, obj.semi_axes.tolist())
        else:
            t = _quad_ts(origin, dirs, obj.corners.tolist())
        region_t = best_t[v0:v1 + 1, u0:u1 + 1]
        better = t < region_t
        np.copyto(region_t, t, where=better)
        np.copyto(winner[v0:v1 + 1, u0:u1 + 1], idx, where=better)

    hit = np.isfinite(best_t)
    samples = np.zeros(best_t.shape, dtype=np.uint16)
    samples[hit] = depth_units(best_t[hit], spec.depth_scale)

    # a fruit can only win pixels inside its own window
    masks: Dict[str, BinaryMask] = {}
    for idx, (fruit, window) in enumerate(zip(spec.fruits, windows)):
        if window is None:
            continue
        u0, u1, v0, v1 = window
        m = BinaryMask(winner[v0:v1 + 1, u0:u1 + 1] == idx, u0, v0, winner.shape)
        if not m.is_empty():
            masks[fruit.fruit_id] = m
    return DepthImage(samples, spec.depth_scale), masks


def add_depth_noise(depth: DepthImage, sigma_at_1m: float, seed: int) -> DepthImage:
    """Zero-mean Gaussian noise with sigma(z) = sigma_at_1m * z^2, re-quantized.

    Invalid (zero) samples stay zero; identical inputs and seed give an
    identical result regardless of how many samples are valid.
    """
    if sigma_at_1m < 0:
        raise InvalidSpec("noise sigma must be >= 0")
    if sigma_at_1m == 0:
        return DepthImage(depth.data.copy(), depth.depth_scale)
    rng = np.random.default_rng(seed)
    # one draw per pixel of the frame, so each pixel's draw does not depend on
    # which samples are valid; only valid samples are perturbed
    noise = rng.standard_normal(depth.data.shape)
    valid = depth.data != 0
    z = depth.data[valid].astype(float) * depth.depth_scale
    q = np.zeros_like(depth.data)
    q[valid] = depth_units(z + noise[valid] * sigma_at_1m * z * z, depth.depth_scale)
    return DepthImage(q, depth.depth_scale)


def _camera_noise_seed(scene_seed: int, camera_index: int) -> int:
    return int(np.random.SeedSequence([scene_seed, camera_index]).generate_state(1)[0])


def render_scene(spec: SceneSpec) -> CaptureBundle:
    """Deterministic render of all cameras: depth, per-fruit masks, truth."""
    captures = []
    for ci, cam in enumerate(spec.rig):
        depth, masks = _render_camera(cam, spec)
        if spec.noise.sigma_at_1m > 0:
            depth = add_depth_noise(depth, spec.noise.sigma_at_1m,
                                    _camera_noise_seed(spec.seed, ci))
        captures.append(CameraCapture(cam, depth, masks))
    return CaptureBundle(captures, spec.ground_truth())


# -- rig and scene construction ----------------------------------------------

DEFAULT_INTRINSICS = CameraIntrinsics(
    width=640, height=480, fx=460.0, fy=460.0, ppx=319.5, ppy=239.5
)

RIG_TARGET = Point3(0.0, 0.0, 0.60)   # all optical axes meet here
CAMERA_HEIGHTS_M = (0.15, 0.60, 1.05)  # bottom, middle, top above the floor


def _aim_camera(position: Point3, target: Point3) -> RigidTransform:
    """cam_to_world with the optical axis through target, no roll."""
    z = target.to_array() - position.to_array()
    z = z / np.linalg.norm(z)
    if abs(z[0]) > 1 - 1e-9:
        raise InvalidSpec("aim direction may not be the world x axis")
    x = np.array([1.0, 0.0, 0.0])
    y = np.cross(z, x)
    y = y / np.linalg.norm(y)
    x = np.cross(y, z)
    return RigidTransform(np.column_stack([x, y, z]), position.to_array())


def paper_rig(intrinsics: Optional[CameraIntrinsics] = None) -> List[RigCamera]:
    """Three-camera vertical rig: heights 0.15/0.60/1.05 m, axes 45 deg apart.

    The world frame is the middle camera's frame (it looks level at the
    target 0.60 m ahead at its own height). Top and bottom cameras sit
    0.45 m above/below the target height and 0.45 m back from it along z,
    so their axes pass through the target pitched 45 degrees down/up.
    """
    k = intrinsics or DEFAULT_INTRINSICS
    mid_h = CAMERA_HEIGHTS_M[1]
    positions = {
        "top": Point3(0.0, -(CAMERA_HEIGHTS_M[2] - mid_h), RIG_TARGET.z - 0.45),
        "middle": Point3(0.0, 0.0, 0.0),
        "bottom": Point3(0.0, (mid_h - CAMERA_HEIGHTS_M[0]), RIG_TARGET.z - 0.45),
    }
    return [
        RigCamera(cam_id, k, _aim_camera(positions[cam_id], RIG_TARGET))
        for cam_id in ("top", "middle", "bottom")
    ]


def _chord_coordinate(fraction: float) -> float:
    """q such that the unit-disc area with coordinate >= q equals fraction."""
    if not 0 < fraction < 1:
        raise InvalidSpec(f"cut fraction must be in (0,1), got {fraction}")
    lo, hi = -1.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        area = (math.acos(mid) - mid * math.sqrt(1 - mid * mid)) / math.pi
        if area > fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


Z_JITTER_M = 0.003                # lab_scene fruits' depth jitter about the rig target
HEIGHT_RANGE_MM = (35.0, 44.0)    # and their size ranges
WIDTH_RANGE_MM = (42.0, 52.0)
OCCLUDED_FRACTION = (0.22, 0.38)  # the share of a fruit its leaf hides from one camera
LEAF_DEPTH_M = 0.12               # a leaf's distance in front of its camera
LEAF_MARGIN = 1.1                 # a leaf's reach past the fruit's silhouette, in its radii


def _window_quad(cam: RigCamera, u_range: Tuple[float, float],
                 v_range: Tuple[float, float]) -> QuadOccluder:
    """Quad perpendicular to the camera axis at ``LEAF_DEPTH_M``, covering a pixel window."""
    us = np.array([u_range[0], u_range[1], u_range[1], u_range[0]])
    vs = np.array([v_range[0], v_range[0], v_range[1], v_range[1]])
    xn, yn = pixel_to_ray(cam.intrinsics, us, vs)
    corners_cam = np.column_stack([xn, yn, np.ones(4)]) * LEAF_DEPTH_M
    return QuadOccluder(apply_points(cam.cam_to_world, corners_cam))


def _leaves_for_fruit(fruit: FruitSpec, cam: RigCamera, cut: str,
                      fraction: float) -> List[QuadOccluder]:
    """Planar leaves close to ``cam`` that hide ``fraction`` of the fruit.

    The blocked regions are built in image space (rectangles whose edges cut
    the fruit's silhouette at the requested area fraction) and placed
    ``LEAF_DEPTH_M`` in front of the camera, so they cannot intersect any
    other camera's rays to the fruits. ``left``/``right`` hide one side,
    ``band`` hides two horizontal strips of fraction/2 each.
    """
    k = cam.intrinsics
    c_cam = apply(invert(cam.cam_to_world), fruit.center_world).to_array()
    if c_cam[2] <= 0:
        raise InvalidSpec("occluded fruit is behind the occluded camera")
    u0, v0 = ray_to_pixel(k, c_cam[0] / c_cam[2], c_cam[1] / c_cam[2])
    ax, ay, az = fruit.semi_axes
    view_world = cam.cam_to_world.rotation @ (c_cam / np.linalg.norm(c_cam))
    sin_elev = abs(float(view_world[1]))
    cos_elev = math.sqrt(max(1.0 - sin_elev * sin_elev, 0.0))
    s_vert = math.sqrt((ay * cos_elev) ** 2 + (az * sin_elev) ** 2)
    rho_u = k.fx * ax / c_cam[2]
    rho_v = k.fy * s_vert / c_cam[2]

    full_u = (u0 - LEAF_MARGIN * rho_u, u0 + LEAF_MARGIN * rho_u)
    full_v = (v0 - LEAF_MARGIN * rho_v, v0 + LEAF_MARGIN * rho_v)
    if cut == "left":
        q = _chord_coordinate(fraction)
        windows = [((full_u[0], u0 - q * rho_u), full_v)]
    elif cut == "right":
        q = _chord_coordinate(fraction)
        windows = [((u0 + q * rho_u, full_u[1]), full_v)]
    elif cut == "band":
        q = _chord_coordinate(fraction / 2.0)
        windows = [
            (full_u, (full_v[0], v0 - q * rho_v)),
            (full_u, (v0 + q * rho_v, full_v[1])),
        ]
    else:
        raise InvalidSpec(f"unknown cut {cut!r}")
    return [_window_quad(cam, ur, vr) for ur, vr in windows]


def lab_scene(
    seed: int = 0,
    *,
    rig: Optional[List[RigCamera]] = None,
    n_fruits: int = 12,
    columns: int = 6,
    pitch_x: float = 0.09,
    pitch_y: float = 0.11,
    fruit_shape: str = "ellipsoid",
    occlusion: bool = True,
    occluded_camera: str = "bottom",
    noise_sigma_at_1m: float = 0.002,
) -> SceneSpec:
    """Desk-scale truss bench: a fruit grid at the rig's aim point.

    Fruits sit on a rows-by-columns grid centered on the rig target, spaced
    widely enough that no fruit hides another from any camera and that
    dedup cannot falsely merge neighbors. With ``occlusion`` on, each fruit
    gets one leaf hiding part of it from ``occluded_camera`` only (cut side
    cycling left/right/bottom, the hidden fraction drawn per fruit).
    """
    rig = rig if rig is not None else paper_rig()
    if fruit_shape not in ("ellipsoid", "sphere"):
        raise InvalidSpec(f"unknown fruit shape {fruit_shape!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CE2E]))
    rows = math.ceil(n_fruits / columns)
    fruits = []
    for i in range(n_fruits):
        r, c = divmod(i, columns)
        x = (c - (columns - 1) / 2.0) * pitch_x
        y = (r - (rows - 1) / 2.0) * pitch_y
        z = RIG_TARGET.z + rng.uniform(-Z_JITTER_M, Z_JITTER_M)
        if fruit_shape == "sphere":
            d = rng.uniform(*WIDTH_RANGE_MM) / 1000.0
            semi = np.array([d / 2, d / 2, d / 2])
        else:
            h = rng.uniform(*HEIGHT_RANGE_MM) / 1000.0
            w = rng.uniform(*WIDTH_RANGE_MM) / 1000.0
            semi = np.array([w / 2, h / 2, w / 2])
        fruits.append(FruitSpec(f"fruit{i:02d}", Point3(x, y, z), semi))

    occluders = []
    if occlusion:
        cams = {c.camera_id: c for c in rig}
        if occluded_camera not in cams:
            raise InvalidSpec(f"rig has no camera {occluded_camera!r}")
        cuts = ("left", "band", "right", "band")
        lo, hi = OCCLUDED_FRACTION
        for i, fruit in enumerate(fruits):
            kind = cuts[i % len(cuts)]
            # band cuts split across two strips, so draw them from the deep
            # end of the range to keep their height effect comparable
            fraction = rng.uniform(max(lo, hi - 0.3 * (hi - lo)), hi) \
                if kind == "band" else rng.uniform(lo, hi)
            occluders.extend(
                _leaves_for_fruit(fruit, cams[occluded_camera], kind, fraction)
            )

    return SceneSpec(
        fruits=fruits,
        occluders=occluders,
        rig=rig,
        noise=NoiseSpec(sigma_at_1m=noise_sigma_at_1m),
        seed=seed,
    )

