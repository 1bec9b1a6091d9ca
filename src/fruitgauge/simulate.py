"""Synthetic capture oracle: ray-cast scenes with known fruit geometry.

Fruits are axis-aligned ellipsoids (spheres when the semi-axes agree) in the
world frame; occluding "leaves" are planar quads. Each camera pixel casts a
ray through its center; the nearest hit wins, which makes per-fruit masks a
partition, exactly like instance segmentation behaves under occlusion. Depth
is the camera-frame z of the hit, quantized by the depth scale.

Rays are cast only inside each object's window: the pixel bbox, plus 2 px,
of a fruit's exact silhouette (from the ellipsoid's dual conic) or of a
leaf's corners. The renderer models no lens distortion, so the ray through
pixel (x, y) has the world direction R (x, y, 1), with x depending on the
column only and y on the row only. Every term of a hit test is then a
linear or quadratic form in (x, y, 1): a window's tests are broadcasts of
its row of xs and column of ys, and no per-pixel direction is built. The
hit samples are quantized, noised and written into the frame one block of
rows at a time (``geometry.BLOCK_PIXELS``), top to bottom. Depth noise
draws one normal per nonzero depth sample from the camera's one generator:
the k-th nonzero sample in row-major order takes the k-th normal.

A scene holds its fruits and leaves as columns, ``SceneFruits`` and
``SceneLeaves``, checked once when it is built; the renderer reads them.
``lab_scene`` builds the paper's lab, a fruit grid whose leaves hide part of
each fruit from the bottom camera, as those columns in array passes.

World convention: the frame is anchored to the middle camera of the rig
(x right, y down, z forward), so a fruit's height spans the world y axis and
its width the x axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidSpec
from .geometry import (
    CameraIntrinsics,
    DepthImage,
    Point3,
    RigCamera,
    RigidTransform,
    apply_points,
    depth_units,
    invert,
    pixel_to_ray,
    ray_to_pixel,
    row_blocks,
)
from .maskops import BinaryMask

_EPS_T = 1e-9
DEFAULT_FRAME_ID = "000"
# fruit semi-axes and center coordinates (m) that keep window and hit-test terms finite
SEMI_AXIS_RANGE_M = (1e-6, 1e3)
CENTER_REACH_M = 1e3


# eq=False: == and hash() go by identity; generated ones would compare arrays.
@dataclass(frozen=True, eq=False)
class FruitSpec:
    """A fruit, a row of ``SceneFruits``, which checks it."""

    fruit_id: str
    center_world: Point3
    semi_axes: np.ndarray  # (ax, ay, az) meters; y is the vertical axis

    @property
    def height_mm(self) -> float:
        return 2000.0 * float(self.semi_axes[1])

    @property
    def width_mm(self) -> float:
        return 2000.0 * float(self.semi_axes[0])


# eq=False: == and hash() go by identity; generated ones would compare arrays.
@dataclass(frozen=True, eq=False)
class QuadOccluder:
    """A planar convex quad; its corners go round its outline in order."""

    corners: np.ndarray  # (4, 3) world meters


@dataclass(frozen=True, eq=False)
class SceneFruits:
    """A scene's fruits as columns, row i holding fruit i, checked once when
    built; the first bad fruit is named by its id and the first rule it
    breaks. Iterating gives ``FruitSpec`` rows."""

    fruit_id: List[str]
    center_world_m: np.ndarray  # (n, 3)
    semi_axes: np.ndarray       # (n, 3) meters

    def __post_init__(self):
        n = len(self.fruit_id)
        for name in ("center_world_m", "semi_axes"):
            a = np.asarray(getattr(self, name), float)
            if a.shape != (n, 3) and a.size + n:   # an empty list is no rows
                raise InvalidSpec(f"fruit columns: {n} ids but {name} of shape {a.shape}")
            object.__setattr__(self, name, a.reshape(n, 3))
        c, s = self.center_world_m, self.semi_axes
        (lo, hi), reach = SEMI_AXIS_RANGE_M, CENTER_REACH_M
        with np.errstate(over="ignore"):   # 2000 x a semi-axis past 9e304 m
            fails = ~np.column_stack([((s > 0) & (s < math.inf)).all(1) & np.isfinite(c).all(1),
                                      (2000.0 * s[:, :2] < math.inf).all(1),
                                      ((lo <= s) & (s <= hi) & (np.abs(c) <= reach)).all(1)])
        if fails.any():
            i, rule = divmod(int(fails.argmax()), 3)
            raise InvalidSpec(f"fruit {self.fruit_id[i]!r}: " + (
                "needs a finite center and 3 positive finite semi-axes",
                "height and width in mm must be finite",
                f"semi-axes must lie in [{lo:g}, {hi:g}] m and center coordinates in "
                f"[-{reach:g}, {reach:g}] m")[rule])

    def __len__(self) -> int:
        return len(self.fruit_id)

    def __iter__(self) -> Iterator[FruitSpec]:
        return map(FruitSpec, self.fruit_id, map(Point3._make, self.center_world_m.tolist()),
                   self.semi_axes)


@dataclass(frozen=True, eq=False)
class SceneLeaves:
    """A scene's leaves as one (m, 4, 3) array of corners, checked once when
    built; the first bad leaf is named by its index and the rule it breaks."""

    corners: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=float)
        if c.shape[1:] != (4, 3) and c.size:   # an empty list is no leaves
            raise InvalidSpec(f"leaf corners must be of shape (m, 4, 3), not {c.shape}")
        object.__setattr__(self, "corners", c := c.reshape(-1, 4, 3))
        finite = np.isfinite(c).all(axis=(1, 2))
        fails = ~np.column_stack([finite, finite & _planar_convex(c)])
        if fails.any():
            i, rule = divmod(int(fails.argmax()), 2)
            raise InvalidSpec(f"occluder {i} " + ("needs 4 finite 3D corners", "corners must bound "
                                                  "a planar convex quad of nonzero area")[rule])


@dataclass(frozen=True)
class SceneSpec:
    """Sequences of ``FruitSpec`` and ``QuadOccluder`` become columns, checked,
    once: ``dataclasses.replace`` of another field checks them no more."""

    fruits: SceneFruits
    occluders: SceneLeaves
    rig: List[RigCamera]
    sigma_at_1m: float = 0.0   # depth noise, meters of std-dev at 1 m; sigma(z) grows as z^2
    seed: int = 0
    depth_scale: float = 0.001

    def __post_init__(self):
        # a row of another shape becomes NaN, which the column checks reject
        if not isinstance(fruits := self.fruits, SceneFruits):
            object.__setattr__(self, "fruits", SceneFruits(
                [f.fruit_id for f in fruits], [tuple(f.center_world) for f in fruits],
                [s if (s := np.ravel(f.semi_axes)).shape == (3,) else [math.nan] * 3
                 for f in fruits]))
        if not isinstance(leaves := self.occluders, SceneLeaves):
            object.__setattr__(self, "occluders", SceneLeaves(
                [c if np.shape(c := o.corners) == (4, 3) else np.full((4, 3), math.nan)
                 for o in leaves]))
        if not 0 <= self.sigma_at_1m < math.inf:
            raise InvalidSpec("noise sigma must be finite and >= 0")
        if not self.rig:
            raise InvalidSpec("scene needs at least one camera")
        for cam in self.rig:
            if cam.intrinsics is None:
                raise InvalidSpec(f"camera {cam.camera_id!r} has no intrinsics")
            if cam.intrinsics.has_distortion:
                raise InvalidSpec("the renderer models an ideal pinhole (no distortion)")
        if not 0 < self.depth_scale < math.inf:
            raise InvalidSpec("depth_scale must be positive and finite")
        if self.seed < 0:
            raise InvalidSpec("seed must be >= 0")
        for kind, ids in (("fruit", self.fruits.fruit_id),
                          ("camera", [c.camera_id for c in self.rig])):
            if len(set(ids)) < len(ids):
                repeated = next(i for n, i in enumerate(ids) if i in ids[:n])
                raise InvalidSpec(f"repeated {kind} id {repeated!r}")


@dataclass
class CameraCapture:
    camera: RigCamera
    depth: DepthImage
    masks: Dict[str, BinaryMask]  # fruit_id -> mask, visible fruits only


@dataclass
class CaptureBundle:
    captures: List[CameraCapture]
    truth: Sequence[FruitSpec]   # write_ground_truth_csv's rows; render_scene's: SceneFruits


Vec3 = Sequence[float]


def _sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a: Vec3, b: Vec3) -> float:
    """Dot product of two 3-sequences of floats."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _planar_convex(corners: np.ndarray) -> np.ndarray:
    """Whether each quad of an (m, 4, 3) array of corners, in order, bounds a
    planar convex polygon of nonzero area.

    A quad is convex exactly when its diagonals d1 = c2 - c0 and
    d2 = c3 - c1 cross inside both: c0 + l d1 = c1 + m d2 with 0 < l, m < 1.
    With e = c1 - c0 and S = d1 x d2, twice the vector area, l |S|^2 =
    (e x d2) . S and m |S|^2 = (e x d1) . S; S = 0 fails both. The quad is
    planar when the twist e . S, six times the volume of the tetrahedron of
    the corners, is zero to 1e-9 of |e| |S|. Each term is a component array
    over the quads, in the order of operations of the scalar formulas, so a
    term that overflows decides as it does in Python floats.
    """
    c = corners.transpose(1, 2, 0)   # corner, axis, quad
    with np.errstate(over="ignore", invalid="ignore"):
        d1, d2, e = _sub(c[2], c[0]), _sub(c[3], c[1]), _sub(c[1], c[0])
        s = _cross(d1, d2)
        ss, twist = _dot(s, s), _dot(e, s)
        l_ss, m_ss = _dot(_cross(e, d2), s), _dot(_cross(e, d1), s)
        return ((0 < l_ss) & (l_ss < ss) & (0 < m_ss) & (m_ss < ss)
                & (twist * twist <= 1e-18 * _dot(e, e) * ss))


def _image_form(axes: Sequence[Vec3], w: Vec3) -> Vec3:
    """(k0, k1, k2) with w . d = k0 x + k1 y + k2 for d = x a0 + y a1 + a2.

    With ``axes`` the camera's axes a0, a1, a2 in the world frame, d is the
    world direction of the ray through normalized image point (x, y)."""
    return (_dot(axes[0], w), _dot(axes[1], w), _dot(axes[2], w))


def _ellipsoid_ts(origin: Vec3, axes: Sequence[Vec3], x: np.ndarray, y: np.ndarray,
                  center: Vec3, semi: Vec3) -> Tuple[np.ndarray, np.ndarray]:
    """The ray parameter per pixel of a window, and where it is a hit: above ``_EPS_T``.

    ``x`` is the window's row of normalized xs and ``y`` its column of ys.
    Scaled by 1/s about the center c, the ray o + t d becomes w + t P v with
    w = (o - c)/s, P = diag(1/s) R and v = (x, y, 1), and hits the unit
    sphere where a t^2 + 2 hb t + c0 = 0: a = v^T G v with G = P^T P,
    hb = h . v with h = P^T w, and c0 = |w|^2 - 1. So a is a row term plus a
    column term plus one outer product, and hb one broadcast add. The roots
    are t = (-hb -/+ sqrt q)/a with q = hb^2 - a c0, and a miss is the NaN
    of sqrt q < 0.
    """
    p = [[ai / si for ai, si in zip(axis, semi)] for axis in axes]  # columns of P
    w = [(oi - ci) / si for oi, ci, si in zip(origin, center, semi)]
    g00, g11, g22 = _dot(p[0], p[0]), _dot(p[1], p[1]), _dot(p[2], p[2])
    g01, g02, g12 = _dot(p[0], p[1]), _dot(p[0], p[2]), _dot(p[1], p[2])
    h0, h1, h2 = _image_form(p, w)
    c0 = _dot(w, w) - 1.0
    neg_a = np.multiply(-2.0 * g01 * y, x)
    neg_a -= (g00 * x + 2.0 * g02) * x + g22
    neg_a -= (g11 * y + 2.0 * g12) * y
    hb = (h0 * x + h2) + h1 * y
    t = hb * hb
    t += c0 * neg_a
    with np.errstate(invalid="ignore"):
        np.sqrt(t, out=t)
        # the near root from outside the fruit, the far one from inside
        if c0 > 0:
            t += hb
        else:
            np.subtract(hb, t, out=t)
        t /= neg_a
    return t, t > _EPS_T


def _quad_ts(origin: Vec3, axes: Sequence[Vec3], x: np.ndarray, y: np.ndarray,
             corners: Sequence[Vec3]) -> Tuple[np.ndarray, np.ndarray]:
    """The ray parameter of a planar convex quad's plane per pixel of a window,
    and where it is a hit; ``x`` and ``y`` as for ``_ellipsoid_ts``.

    With S = (c2 - c0) x (c3 - c1) the ray meets the quad's plane at
    t = S . (c0 - o) / (S . d). It passes inside the quad when d lies on the
    inner side of each plane through o and an edge: m_i . d has the sign of
    S . (c0 - o) for m_i = (c_i - o) x (c_i+1 - o). The m_i . d sum to S . d,
    so, as Moeller and Trumbore's test does, the edges are inclusive to
    1e-12 of |S . d|; for t > 0 that is folded into m_i as 1e-12 S. Each
    term is a linear form in the window's x row and y column.
    """
    rel = [_sub(c, origin) for c in corners]
    s = _cross(_sub(corners[2], corners[0]), _sub(corners[3], corners[1]))
    num = _dot(s, rel[0])
    side = 1.0 if num > 0 else -1.0
    k0, k1, k2 = _image_form(axes, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / ((k0 * x + k2) + k1 * y)
    hit = t > _EPS_T
    for i in range(4):
        m = _cross(rel[i], rel[i - 3])
        k0, k1, k2 = _image_form(axes, [side * (mj + 1e-12 * sj) for mj, sj in zip(m, s)])
        hit &= (k0 * x + k2) >= -(k1 * y)
    return t, hit


Window = Tuple[int, int, int, int]   # (u0, u1, v0, v1), inclusive pixel bounds
WINDOW_MARGIN_PX = 2


def _windows(fruits: SceneFruits, leaves: SceneLeaves, world_to_cam: RigidTransform,
             k: CameraIntrinsics) -> List[Optional[Window]]:
    """The window of every fruit, then of every leaf: the pixel bbox, plus
    ``WINDOW_MARGIN_PX`` and clipped to the image, of a fruit's exact
    silhouette or of a leaf's corners (it is convex). None when the object
    lies outside the image or wholly behind the camera; the whole image when
    it reaches the camera plane, or a leaf's corner comes within 1e-6 m of it.
    Each kind takes one array pass, whose terms keep the scalar formulas'
    order of operations.

    With a fruit's center c and shape matrix R diag(s^2) R^T in the camera
    frame, a plane l . X = 0 through the camera center meets the ellipsoid
    iff l^T n l <= 0, n = c c^T - R diag(s^2) R^T: n is the dual conic of the
    silhouette in normalized coordinates (Hartley & Zisserman 2004, ch. 8).
    The planes x = x0 z with l = (1, 0, -x0) give the outline's x extent as
    the roots of n00 - 2 x0 n02 + x0^2 n22, and likewise for y. n22 > 0 says
    the ellipsoid does not reach the plane z = 0, so the sign of the center's
    z then says on which side of it the fruit lies.
    """
    r, shift = world_to_cam.rotation.tolist(), world_to_cam.translation.tolist()

    def camera_frame(p: np.ndarray) -> List[np.ndarray]:
        return [ri[0] * p[..., 0] + ri[1] * p[..., 1] + ri[2] * p[..., 2] + ti
                for ri, ti in zip(r, shift)]

    c = camera_frame(fruits.center_world_m)
    s2 = fruits.semi_axes ** 2

    def n(i: int, j: int) -> np.ndarray:
        return c[i] * c[j] - (r[i][0] * r[j][0] * s2[:, 0] + r[i][1] * r[j][1] * s2[:, 1]
                              + r[i][2] * r[j][2] * s2[:, 2])

    n22 = n(2, 2)
    qx, qy, qz = camera_frame(leaves.corners)
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = []
        for i in (0, 1):
            n_ii, n_i2 = n(i, i), n(i, 2)
            half = np.sqrt(np.maximum(n_i2 * n_i2 - n_ii * n22, 0.0))
            ends.append(((n_i2 - half) / n22, (n_i2 + half) / n22))
        (u_lo, v_lo), (u_hi, v_hi) = [ray_to_pixel(k, x, y) for x, y in zip(*ends)]
        qu, qv = ray_to_pixel(k, qx / qz, qy / qz)
    u0 = np.floor(np.concatenate([u_lo, qu.min(axis=1)])) - WINDOW_MARGIN_PX
    u1 = np.ceil(np.concatenate([u_hi, qu.max(axis=1)])) + WINDOW_MARGIN_PX
    v0 = np.floor(np.concatenate([v_lo, qv.min(axis=1)])) - WINDOW_MARGIN_PX
    v1 = np.ceil(np.concatenate([v_hi, qv.max(axis=1)])) + WINDOW_MARGIN_PX
    np.maximum(u0, 0, out=u0)
    np.minimum(u1, k.width - 1, out=u1)
    np.maximum(v0, 0, out=v0)
    np.minimum(v1, k.height - 1, out=v1)
    reaches = np.concatenate([n22 <= 0, (qz <= 1e-6).any(axis=1)])
    shown = np.concatenate([c[2] > 0, np.ones(len(leaves.corners), bool)]) & (u0 <= u1) & (v0 <= v1)
    whole = (0, k.width - 1, 0, k.height - 1)
    boxes = zip(u0.tolist(), u1.tolist(), v0.tolist(), v1.tolist())
    return [whole if reach else tuple(map(int, box)) if show else None
            for reach, show, box in zip(reaches.tolist(), shown.tolist(), boxes)]


def _render_camera(cam: RigCamera, spec: SceneSpec, shapes: Sequence[list],
                   noise: Optional[np.random.Generator]
                   ) -> Tuple[np.ndarray, Dict[str, BinaryMask]]:
    """Ray-cast one camera: its depth samples, noised from ``noise`` unless
    that is None, and the masks of the fruits that win a pixel. ``shapes``
    holds each fruit's (center, semi-axes), then each leaf's corners, as lists."""
    k = cam.intrinsics
    world_to_cam = invert(cam.cam_to_world)
    origin = cam.cam_to_world.translation.tolist()
    axes = cam.cam_to_world.rotation.T.tolist()
    # SceneSpec refuses distortion, so a pixel's normalized ray is separable:
    # its x depends on the column only and its y on the row only.
    xs, ys = pixel_to_ray(k, np.arange(k.width), np.arange(k.height)[:, None])
    windows = _windows(spec.fruits, spec.occluders, world_to_cam, k)
    shown = [(idx, window) for idx, window in enumerate(windows) if window is not None]

    # ray parameter t equals camera-frame z because the rays (x, y, 1) have z 1;
    # the winning object's index, or -1, takes the narrowest signed type
    best_t = np.full((k.height, k.width), np.inf)
    winner = np.full((k.height, k.width), -1, dtype=np.min_scalar_type(-len(shapes) - 1))
    n_fruits = len(spec.fruits)
    for idx, (u0, u1, v0, v1) in shown:
        x, y = xs[u0:u1 + 1], ys[v0:v1 + 1]
        if idx < n_fruits:
            t, better = _ellipsoid_ts(origin, axes, x, y, *shapes[idx])
        else:
            t, better = _quad_ts(origin, axes, x, y, shapes[idx])
        region_t = best_t[v0:v1 + 1, u0:u1 + 1]
        better &= t < region_t
        np.copyto(region_t, t, where=better)
        np.copyto(winner[v0:v1 + 1, u0:u1 + 1], idx, where=better)

    # row-major blocks, so the k-th nonzero sample still takes the k-th normal
    data = np.zeros((k.height, k.width), dtype=np.uint16)
    for rows in row_blocks(k.height, k.width):
        hit = winner[rows] >= 0
        units = depth_units(best_t[rows][hit], spec.depth_scale)
        if noise is not None:
            units = _noisy_units(units, spec.depth_scale, spec.sigma_at_1m, noise)
        data[rows][hit] = units

    # a fruit can only win pixels inside its own window
    masks: Dict[str, BinaryMask] = {}
    for idx, (u0, u1, v0, v1) in shown:
        if idx >= n_fruits:
            break
        m = BinaryMask(winner[v0:v1 + 1, u0:u1 + 1] == idx, u0, v0, winner.shape)
        if not m.is_empty():
            masks[spec.fruits.fruit_id[idx]] = m
    return data, masks


def _noisy_units(units: np.ndarray, depth_scale: float, sigma_at_1m: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Depth units plus zero-mean Gaussian noise of sigma(z) = sigma_at_1m * z^2,
    re-quantized. Zero units stay zero and take no draw: the k-th nonzero
    unit takes the next normal of ``rng``."""
    valid = None if units.all() else np.flatnonzero(units)
    z = (units if valid is None else units[valid]) * depth_scale
    noise = rng.standard_normal(z.size)
    noise *= sigma_at_1m
    noise *= z
    noise *= z
    noise += z
    if valid is None:
        return depth_units(noise, depth_scale)
    out = np.zeros_like(units)
    out[valid] = depth_units(noise, depth_scale)
    return out


def _camera_noise_seed(scene_seed: int, camera_index: int) -> int:
    return int(np.random.SeedSequence([scene_seed, camera_index]).generate_state(1)[0])


def render_scene(spec: SceneSpec) -> CaptureBundle:
    """Deterministic render of all cameras: depth, per-fruit masks; the fruits are the truth."""
    fruits = spec.fruits
    shapes = [*zip(fruits.center_world_m.tolist(), fruits.semi_axes.tolist()),
              *spec.occluders.corners.tolist()]
    captures = []
    for ci, cam in enumerate(spec.rig):
        noise = (np.random.default_rng(_camera_noise_seed(spec.seed, ci))
                 if spec.sigma_at_1m > 0 else None)
        data, masks = _render_camera(cam, spec, shapes, noise)
        captures.append(CameraCapture(cam, DepthImage(data, spec.depth_scale), masks))
    return CaptureBundle(captures, spec.fruits)


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
    # np.cross's products and differences, without its per-call set-up
    y = np.array(_cross(z, (1.0, 0.0, 0.0)))
    y = y / np.linalg.norm(y)
    x = np.array(_cross(y, z))
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


Z_JITTER_M = 0.003                # lab_scene fruits' depth jitter about the rig target
HEIGHT_RANGE_MM = (35.0, 44.0)    # and their size ranges
WIDTH_RANGE_MM = (42.0, 52.0)
OCCLUDED_FRACTION = (0.22, 0.38)  # the share of a fruit its leaf hides from one camera
LEAF_DEPTH_M = 0.12               # a leaf's distance in front of its camera
LEAF_MARGIN = 1.1                 # a leaf's reach past the fruit's silhouette, in its radii


def _chord_coordinates(fractions: np.ndarray) -> np.ndarray:
    """Each q such that the unit-disc area with coordinate >= q is its fraction.

    That area is A(q) = (acos q - q sqrt(1 - q^2)) / pi, with
    A'(q) = -2 sqrt(1 - q^2) / pi. Each q takes 8 Newton steps from
    q = 1 - 2 f, kept inside (-1, 1) for fractions too near 0 or 1 for A's
    rounding. Over [1e-6, 1 - 1e-6] the result is within 1e-13 of a 60-step
    bisection's, and within 6e-16 over [1e-3, 0.9].
    """
    f = np.asarray(fractions, dtype=float)
    bad = ~((0 < f) & (f < 1))
    if bad.any():
        raise InvalidSpec(f"cut fraction must be in (0,1), got {float(f[bad][0])}")
    top = np.nextafter(1.0, 0.0)
    q = np.minimum(1.0 - 2.0 * f, top)
    for _ in range(8):
        root = np.sqrt(1.0 - q * q)
        np.clip(q + (np.arccos(q) - q * root - math.pi * f) / (2.0 * root), -top, top, out=q)
    return q


def lab_scene(
    seed: int = 0,
    *,
    rig: Optional[List[RigCamera]] = None,
    n_fruits: int = 12,
    columns: int = 6,
    pitch_x: float = 0.09,
    pitch_y: float = 0.11,
) -> SceneSpec:
    """Desk-scale truss bench: a fruit grid at the rig's aim point.

    Fruits sit on a rows-by-columns grid centered on the rig target, spaced
    widely enough that no fruit hides another from any camera and that
    dedup cannot falsely merge neighbors. Each fruit gets leaves hiding part
    of it from the bottom camera only. The cut cycles left/band/right/band
    over the fruits: a side cut is one leaf over that side, a band two leaves
    over the top and bottom that each hide half the fraction. The fraction is
    drawn per fruit, a band's from the deep end of the range. The leaves are
    drawn after every fruit, so ``dataclasses.replace(spec, occluders=[])``
    is the same scene without them.

    The leaves are rectangles in the bottom camera's image whose edges cut
    the fruit's projected outline at the fraction, placed ``LEAF_DEPTH_M``
    in front of that camera so that no other camera's rays to a fruit meet
    them. The scene is built as columns in array passes: one uniform draw of
    every fruit's (z jitter, height, width) in fruit order, one of every leaf
    fraction, one Newton solve for every cut, and one pass that projects every
    leaf's corners. The scene checks the columns once; no object is built.
    """
    rig = rig if rig is not None else paper_rig()
    bottom = next((c for c in rig if c.camera_id == "bottom"), None)
    if bottom is None:
        raise InvalidSpec("rig has no camera 'bottom'")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CE2E]))
    rows = math.ceil(n_fruits / columns)
    ids = [f"fruit{i:02d}" for i in range(n_fruits)]
    n = len(ids)
    bounds = np.array([(-Z_JITTER_M, Z_JITTER_M), HEIGHT_RANGE_MM, WIDTH_RANGE_MM]).T
    draws = rng.uniform(*bounds, (n, 3))
    r, c = np.divmod(np.arange(n), columns)
    centers = np.column_stack([(c - (columns - 1) / 2.0) * pitch_x,
                               (r - (rows - 1) / 2.0) * pitch_y, RIG_TARGET.z + draws[:, 0]])
    semi = draws[:, [2, 1, 2]] / 2000.0   # (width, height, width) / 2, in meters
    fruits = SceneFruits(ids, centers, semi)

    cuts = np.arange(n) % 4   # left, band, right, band
    band = cuts % 2 == 1
    lo, hi = OCCLUDED_FRACTION
    # band cuts split across two strips, so draw them from the deep
    # end of the range to keep their height effect comparable
    fraction = rng.uniform(np.where(band, max(lo, hi - 0.3 * (hi - lo)), lo), hi)
    q = _chord_coordinates(np.where(band, fraction / 2.0, fraction))

    k, cam_to_world = bottom.intrinsics, bottom.cam_to_world
    c_cam = apply_points(invert(cam_to_world), centers)
    depth = c_cam[:, 2]
    if (depth <= 0).any():
        raise InvalidSpec("occluded fruit is behind the occluded camera")
    u0, v0 = ray_to_pixel(k, c_cam[:, 0] / depth, c_cam[:, 1] / depth)
    # the outline's vertical semi-axis: the fruit's y and z semi-axes seen
    # along the elevation of the view ray
    unit = c_cam / np.sqrt(np.vecdot(c_cam, c_cam))[:, None]
    sin_elev = np.abs(unit @ cam_to_world.rotation[1])
    cos_elev = np.sqrt(np.maximum(1.0 - sin_elev * sin_elev, 0.0))
    ax, ay, az = semi.T
    rho_u = k.fx * ax / depth
    rho_v = k.fy * np.sqrt((ay * cos_elev) ** 2 + (az * sin_elev) ** 2) / depth
    u_lo, u_hi = u0 - LEAF_MARGIN * rho_u, u0 + LEAF_MARGIN * rho_u
    v_lo, v_hi = v0 - LEAF_MARGIN * rho_v, v0 + LEAF_MARGIN * rho_v
    # each fruit's first and second leaf as (u_lo, u_hi, v_lo, v_hi); only
    # a band has a second
    first = np.select([cuts == 0, cuts == 2],
                      [(u_lo, u0 - q * rho_u, v_lo, v_hi), (u0 + q * rho_u, u_hi, v_lo, v_hi)],
                      (u_lo, u_hi, v_lo, v0 - q * rho_v))
    second = (u_lo, u_hi, v0 + q * rho_v, v_hi)
    has = np.column_stack([np.ones(n, bool), band])
    w_u0, w_u1, w_v0, w_v1 = np.stack([first, second], axis=-1)[:, has]
    xn, yn = pixel_to_ray(k, np.stack([w_u0, w_u1, w_u1, w_u0], axis=-1),
                          np.stack([w_v0, w_v0, w_v1, w_v1], axis=-1))
    corners_cam = np.stack([xn, yn, np.ones_like(xn)], axis=-1) * LEAF_DEPTH_M
    corners = apply_points(cam_to_world, corners_cam.reshape(-1, 3)).reshape(-1, 4, 3)
    return SceneSpec(fruits=fruits, occluders=SceneLeaves(corners), rig=rig, sigma_at_1m=0.002,
                     seed=seed)
