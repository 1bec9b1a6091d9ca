"""On-disk formats: every document the package reads or writes.

Depth is a 16-bit PGM; rig, intrinsics, detections, records, fused fruits,
simulator scenes and calibration board poses are JSON; ground truth is CSV.

A capture bundle directory looks like::

    bundle/
      rig.json
      intrinsics/<camera_id>.json
      depth/<camera_id>_<frame_id>.pgm     (+ .json sidecar with depth_scale)
      detections/<camera_id>_<frame_id>.json
      ground_truth.csv                     (optional)

``fruitgauge measure`` writes ``records.json``: ``{"records": [...],
"warnings": [...]}``. A record is one accepted detection, sized and localized
in its own view. The package holds records as the columns of a
``RecordTable``, one row per record; its keys, in written order:

    frame_id, camera_id       str
    detection_index           int, position in the detections file
    class                     str, detector class name
    fruit_id                  str or null (simulator provenance)
    height_mm, width_mm       float, metric size at the shared depth
    median_depth_m            float, lower median depth of the mask edge
    fill_ratio                float in [0, 1], mask cover of the fitted circle
    circle                    {"cu", "cv", "r_px"}: fitted circle, pixels
    bbox                      [x, y, w, h], int pixels
    center_depth_m            float, front-surface depth at the sampled mask pixel
                              nearest the bbox center rounded half up; > 0 (older: 0)
    radius_m                  float, metric fruit radius
    center_world_m            [x, y, z] float, fruit center in the world frame

A warning is ``{frame_id, camera_id, detection_index, reason, message}``.
``fruitgauge fuse`` writes ``fused.json``: ``{"fruits": [...]}``, one entry
per fruit of a ``fusion.FruitTable``, each ``{center_world_m, radius_m,
n_views, chosen, members}``: member-mean center and radius (m), member
count, the chosen record and every member record, in table order.

``write_records`` and ``write_fused`` write these two documents from a
``RecordTable`` (and a ``FruitTable`` over its rows), with the bytes
``dump_json`` gives for the same objects. No row becomes a dict:
``_record_blocks`` formats a block of rows at a time, a column at a time
(one ``json.dumps`` for all the block's floats, split at its separators, one
per distinct string and one for the bboxes), and fills one text template per
row. The documents stream out one block, or one fruit, at a time, so no text
of a whole document is held, and a fruit's chosen record reuses the text of
its member.

``ground_truth.csv`` has the columns ``TRUTH_HEADER``, one fruit per row, the
center blank if unknown. ``read_ground_truth_csv`` reads it into the columns of
an ``evaluation.TruthTable``: ``fruit_id`` (none repeated), ``height_mm`` and
``width_mm`` (finite, positive) and ``center_world_m`` (n, 3; finite, or NaN).

A rig (``rig.json``) is ``{cameras: [{id, intrinsics_file, cam_to_world,
depth_intrinsics_file, depth_to_color}]}``, the files relative to it. A camera
whose depth frames are not registered to its color image gives both depth-sensor
keys, and ``measure`` aligns its frames; any other gives neither (or null), and
an entry that gives only one is a ``BundleIOError``.

A scene (``simulate --scene``) is ``{rig: [{camera_id, intrinsics,
cam_to_world}], fruits: [{id, center_world, semi_axes}], occluders: [{corners}],
noise: {sigma_at_1m, model}, seed, depth_scale}``, ``model`` being ``"z2"`` if
given; a board-pose file (``calibrate --poses``) is ``{anchor, observations:
[{poses: {camera_id: transform}}], intrinsics_files: {camera_id: path}}``; a
transform is ``{rotation, translation}``.

One rule covers malformed input. Every field of every JSON document has an
exact JSON type, and a list field an exact shape: a number is never a bool, an
int-only field takes no float, and only a nullable field takes null. This module
reads every field through ``_value`` or ``_values`` inside ``parsing(source)``,
so a missing key or a value of the wrong type or shape is a ``BundleIOError``
that names the file and the field (CLI exit 2). A document, and each entry of
its lists of objects, must be a JSON object (``_object``, ``_objects``, which
name the entry as ``cameras[1]``). A record's float fields must be finite, and
its radii positive. ``read_records`` and ``read_fused_choices`` check the same
rules a column at a time; only when a column fails do they check record by
record, to name the first failing entry as ``#records[i]`` or ``#fruits[i]``
and its field. Both read with the cyclic garbage collector paused: their JSON
tree holds no cycle and is freed by reference counting before they return,
so no collection needs to scan it. A domain error met while reading, such as
a focal length that is not positive or a rotation that is not orthonormal,
keeps its type (CLI exit 1) and names the file.

All JSON emitted by the pipeline is written with a fixed key order and a
trailing newline so identical inputs produce byte-identical files.

Every reader gets a file's bytes from ``_read_bytes``. Inside ``input_hashes``
it also takes their sha256, which ``measure`` lists in its manifest, so no
input is read twice; outside, it hashes nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import functools
import gc
import hashlib
import io
import itertools
import json
import math
import operator
import re
import reprlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BundleIOError, FruitGaugeError, InvalidSpec, LengthMismatch
from .evaluation import GroundTruthRecord, TruthTable, check_truth
from .geometry import CameraIntrinsics, DepthImage, Point3, RigCamera, RigidTransform
from .maskops import BinaryMask, decode_rle, encode_rle
from .simulate import SceneFruits, SceneLeaves, SceneSpec

if TYPE_CHECKING:
    from .fusion import FruitTable

# Raised by a value of the wrong type or shape, also in the mask constructors, and
# by JSON nested too deeply or a CSV field too long to decode.
_MALFORMED = (TypeError, ValueError, IndexError, AttributeError, OverflowError,
              RecursionError, csv.Error, LengthMismatch)


class parsing:
    """Turns a ``KeyError`` or ``_MALFORMED`` error inside it into a
    ``BundleIOError`` naming ``source``, which is formatted only then, so a
    reader can enter one per file and still name the entry that failed.
    Another ``FruitGaugeError`` keeps its type, prefixed by the innermost source."""

    def __init__(self, source: object):
        self.source = source

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, error, traceback) -> None:
        if isinstance(error, KeyError):
            raise BundleIOError(f"{self.source} missing field {error}") from error
        if isinstance(error, _MALFORMED):
            raise BundleIOError(f"malformed {self.source}: {error}") from error
        if isinstance(error, FruitGaugeError) and not isinstance(error, BundleIOError) \
                and not getattr(error, "source_named", False):
            named = type(error)(f"{self.source}: {error}")
            named.source_named = True
            raise named from error


# Exact JSON value types: a bool is not a number, and an int-only field takes no float.
_NUMBER, _INT, _STRING, _LIST, _OBJECT = (int, float), (int,), (str,), (list,), (dict,)
_NULL = type(None)
_REQUIRED = object()


def _value(d: dict, key: str, types: tuple = _NUMBER, default=_REQUIRED):
    """``d[key]`` if its exact type is in ``types``; with a ``default``, a
    missing key gives the default. Raises ``TypeError`` naming ``key``."""
    value = d[key] if default is _REQUIRED else d.get(key, default)
    if type(value) in types:
        return value
    raise TypeError(f"{key} must be {' or '.join(t.__name__ for t in types)}, "
                    f"got {reprlib.repr(value)}")


def _object(value, name: str = "document") -> dict:
    """``value`` if it is a JSON object. Raises ``TypeError`` naming it."""
    if type(value) is dict:
        return value
    raise TypeError(f"{name} must be an object, got {reprlib.repr(value)}")


def _objects(d, key: str, default=_REQUIRED) -> list:
    """``d[key]``, a list of JSON objects, from the JSON object ``d``. Raises
    ``TypeError`` naming ``d`` or the entry that is not one, as ``key[i]``."""
    entries = _value(_object(d), key, _LIST, default)
    for i, entry in enumerate(entries):
        _object(entry, f"{key}[{i}]")
    return entries


def _values(d: dict, key: str, shape: tuple, types: tuple = _NUMBER) -> list:
    """``d[key]`` if it is nested lists of exactly ``shape``, such as ``(4, 3)``,
    whose leaves' exact types are in ``types``. Raises ``TypeError`` naming ``key``."""
    level = [value := d[key]]
    for n in shape:
        if not all(type(v) is list and len(v) == n for v in level):
            break
        level = [leaf for v in level for leaf in v]
    else:
        if all(type(v) in types for v in level):
            return value
    kinds = " or ".join(t.__name__ for t in types)
    raise TypeError(f"{key} must be lists of shape {shape} of {kinds}, "
                    f"got {reprlib.repr(value)}")


# The dict of the innermost ``input_hashes`` of the calling context: context
# state, so that no reader takes an argument for it and no other thread sees it.
_digests = contextvars.ContextVar("digests", default=None)


@contextlib.contextmanager
def input_hashes() -> Iterator[Dict[str, str]]:
    """Each file read inside the block, by its path as opened, to its hex sha256."""
    digests: Dict[str, str] = {}
    token = _digests.set(digests)
    try:
        yield digests
    finally:
        _digests.reset(token)


def _read_bytes(path: Path) -> bytes:
    try:
        data = path.read_bytes()
    except OSError as e:
        raise BundleIOError(f"cannot read {path}: {e.strerror or e}") from e
    digests = _digests.get()
    if digests is not None:
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    return data


def _json_file(path: Path):
    """``path`` opened for writing a JSON document, its directory made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w")


def dump_json(obj, path: Path) -> None:
    """One line of JSON plus a newline, keys in insertion order.

    No ``indent``: it makes CPython's ``json`` fall back from its C encoder
    to the pure-Python one, several times slower on large documents. No
    circular check: the package writes only trees it builds itself.
    """
    with _json_file(path) as fh:
        fh.write(json.dumps(obj, check_circular=False) + "\n")


def load_json(path: Path):
    path = Path(path)
    with parsing(f"JSON in {path}"):
        return json.loads(_read_bytes(path).decode())


# -- PGM depth ---------------------------------------------------------------

def write_pgm16(path: Path, data: np.ndarray) -> None:
    """Binary PGM (P5), maxval 65535, big-endian samples; the raster is
    copied once, to swap its byte order, and written from that buffer."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    raster = np.ascontiguousarray(data, dtype=">u2")
    with path.open("wb") as f:
        f.write(f"P5\n{raster.shape[1]} {raster.shape[0]}\n65535\n".encode("ascii"))
        f.write(raster)


# P5, width, height and maxval, each token after whitespace or "#" comments
# through the end of their line; one whitespace byte then precedes the raster.
# Each byte of a separator matches one way only, so a failed match is linear.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)" * 3 + rb"\s")


def read_pgm16(path: Path) -> np.ndarray:
    path = Path(path)
    raw = _read_bytes(path)
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise BundleIOError(f"malformed PGM header in {path}" if raw.startswith(b"P5")
                            else f"not a binary PGM (P5) file: {path}")
    with parsing(f"PGM header in {path}"):
        width, height, maxval = map(int, header.groups())
    if not (256 <= maxval <= 65535):
        raise BundleIOError(f"expected 16-bit PGM (maxval 256..65535) in {path}")
    if len(raw) - header.end() < width * height * 2:
        raise BundleIOError(f"PGM raster truncated in {path}")
    # a view of the file's bytes, copied once into native byte order
    return np.frombuffer(raw, ">u2", width * height, header.end()).reshape(
        height, width).astype(np.uint16)


def write_depth(path_pgm: Path, depth: DepthImage) -> None:
    path_pgm = Path(path_pgm)
    write_pgm16(path_pgm, depth.data)
    dump_json({"depth_scale": depth.depth_scale}, path_pgm.with_suffix(".json"))


def read_depth(path_pgm: Path) -> DepthImage:
    path_pgm = Path(path_pgm)
    data, sidecar = read_pgm16(path_pgm), path_pgm.with_suffix(".json")
    with parsing(f"depth sidecar {sidecar}"):
        return DepthImage(data, float(_value(_object(load_json(sidecar)), "depth_scale")))


# -- intrinsics / rig --------------------------------------------------------

def intrinsics_to_dict(k: CameraIntrinsics) -> dict:
    distortion = None if k.distortion is None else list(k.distortion)
    return {**asdict(k), "distortion": distortion}


def intrinsics_from_dict(d: dict, source: str = "<inline>") -> CameraIntrinsics:
    with parsing(f"intrinsics {source}"):
        d = _object(d)
        distortion = None if d.get("distortion") is None else _values(d, "distortion", (5,))
        fx, fy, ppx, ppy = (float(_value(d, key)) for key in ("fx", "fy", "ppx", "ppy"))
        return CameraIntrinsics(_value(d, "width", _INT), _value(d, "height", _INT),
                                fx, fy, ppx, ppy, distortion)


def write_intrinsics(path: Path, k: CameraIntrinsics) -> None:
    dump_json(intrinsics_to_dict(k), path)


def read_intrinsics(path: Path) -> CameraIntrinsics:
    return intrinsics_from_dict(load_json(path), str(path))


def transform_to_dict(t: RigidTransform) -> dict:
    return {
        "rotation": [[float(x) for x in row] for row in t.rotation],
        "translation": [float(x) for x in t.translation],
    }


def transform_from_dict(d: dict, source: str = "<inline>") -> RigidTransform:
    """The transform ``d`` holds; a rotation that is not orthonormal raises ``InvalidPose``."""
    with parsing(f"transform {source}"):
        return RigidTransform(_values(d, "rotation", (3, 3)),
                              _values(d, "translation", (3,))).validate()


def write_rig(path: Path, cameras: List[RigCamera]) -> None:
    """Write rig JSON; camera intrinsics go to sibling per-camera files."""
    path = Path(path)
    entries = []
    for cam in cameras:
        entry = {"id": cam.camera_id, "intrinsics_file": None,
                 "cam_to_world": transform_to_dict(cam.cam_to_world)}
        for key, suffix, k in (("intrinsics_file", "", cam.intrinsics),
                               ("depth_intrinsics_file", "_depth", cam.depth_intrinsics)):
            if k is not None:
                entry[key] = f"intrinsics/{cam.camera_id}{suffix}.json"
                write_intrinsics(path.parent / entry[key], k)
        if cam.depth_to_color is not None:
            entry["depth_to_color"] = transform_to_dict(cam.depth_to_color)
        entries.append(entry)
    dump_json({"cameras": entries}, path)


def _rig(path: Path, intrinsics: Callable[[Path], Optional[CameraIntrinsics]]) -> List[RigCamera]:
    """A rig file's cameras, each entry checked before its intrinsics files
    are read, each distinct file read once by ``intrinsics``; cameras that
    name one file share its result."""
    path = Path(path)
    intrinsics = functools.cache(intrinsics)
    doc = load_json(path)
    cameras = []
    with parsing(f"rig {path}"):
        for entry in _objects(doc, "cameras"):
            cam_id = _value(entry, "id", _STRING)
            if any(cam.camera_id == cam_id for cam in cameras):
                raise BundleIOError(f"rig {path} lists camera {cam_id!r} twice")
            pose = transform_from_dict(_value(entry, "cam_to_world", _OBJECT), f"{path}:{cam_id}")
            names = [_value(entry, key, (str, _NULL), None)
                     for key in ("intrinsics_file", "depth_intrinsics_file")]
            depth_to_color = _value(entry, "depth_to_color", (dict, _NULL), None)
            if depth_to_color is not None:
                depth_to_color = transform_from_dict(depth_to_color, str(path))
            if (names[1] is None) != (depth_to_color is None):
                raise BundleIOError(f"rig {path} camera {cam_id!r} gives only one of "
                                    "depth_intrinsics_file and depth_to_color")
            intr, depth_intr = (None if name is None else intrinsics(path.parent / name)
                                for name in names)
            cameras.append(RigCamera(cam_id, intr, pose, depth_intr, depth_to_color))
    if not cameras:
        raise BundleIOError(f"rig {path} lists no cameras")
    return cameras


def read_rig(path: Path) -> List[RigCamera]:
    return _rig(path, read_intrinsics)


def read_camera_order(path: Path) -> Tuple[str, ...]:
    """A rig file's camera ids in order, checked as by ``read_rig``; opens no intrinsics file."""
    return tuple(cam.camera_id for cam in _rig(path, lambda intrinsics_path: None))


# -- calibration board poses ---------------------------------------------------

def read_board_poses(
    path: Path,
) -> Tuple[Optional[str], List[Dict[str, RigidTransform]], Dict[str, str]]:
    """A board-pose file as ``(anchor or None, observations, intrinsics_files)``."""
    path = Path(path)
    doc = load_json(path)
    with parsing(f"board poses {path}"):
        observations = []
        for i, obs in enumerate(_objects(doc, "observations", [])):
            poses = _value(obs, "poses", _OBJECT, {})
            observations.append({cam_id: transform_from_dict(_value(poses, cam_id, _OBJECT),
                                                             f"{path}#obs{i}/{cam_id}")
                                 for cam_id in poses})
        files = _value(doc, "intrinsics_files", _OBJECT, {})
        return (_value(doc, "anchor", (str, _NULL), None), observations,
                {cam_id: _value(files, cam_id, _STRING) for cam_id in files})


# -- detections --------------------------------------------------------------

@dataclass
class Detection:
    class_name: str
    score: float
    bbox: Tuple[int, int, int, int]          # x, y, w, h
    mask: BinaryMask
    fruit_id: Optional[str] = None           # simulator provenance, if any


@dataclass
class DetectionFile:
    frame_id: str
    camera_id: str
    detections: List[Detection]


def write_detections(path: Path, det_file: DetectionFile) -> None:
    payload = {
        "frame_id": det_file.frame_id,
        "camera_id": det_file.camera_id,
        "detections": [
            {
                "class": d.class_name,
                "score": d.score,
                "bbox": [int(x) for x in d.bbox],
                "mask_rle": encode_rle(d.mask),
                **({"fruit_id": d.fruit_id} if d.fruit_id is not None else {}),
            }
            for d in det_file.detections
        ],
    }
    dump_json(payload, path)


def read_detections(path: Path) -> DetectionFile:
    doc = load_json(path)
    with parsing(f"detections {path}"):
        dets = []
        for d in _objects(doc, "detections"):
            rle = _value(d, "mask_rle", _OBJECT)
            dets.append(
                Detection(
                    class_name=_value(d, "class", _STRING),
                    score=float(_value(d, "score")),
                    bbox=tuple(_values(d, "bbox", (4,), _INT)),
                    mask=decode_rle(_value(rle, "counts", _LIST),
                                    _values(rle, "size", (2,), _INT)),
                    fruit_id=_value(d, "fruit_id", (str, _NULL), None),
                )
            )
        return DetectionFile(_value(doc, "frame_id", _STRING), _value(doc, "camera_id", _STRING),
                             dets)


# -- measurement records -----------------------------------------------------

# records.json keys in written order up to center_world_m, which is last, each
# with the JSON types its value may take.
_RECORD_TYPES = {
    "frame_id": _STRING, "camera_id": _STRING, "detection_index": _INT, "class": _STRING,
    "fruit_id": (str, _NULL), "height_mm": _NUMBER, "width_mm": _NUMBER,
    "median_depth_m": _NUMBER, "fill_ratio": _NUMBER, "circle": _OBJECT, "bbox": _LIST,
    "center_depth_m": _NUMBER, "radius_m": _NUMBER,
}
_CIRCLE_TYPES = {"cu": _NUMBER, "cv": _NUMBER, "r_px": _NUMBER}
_record_fields = operator.itemgetter(*_RECORD_TYPES)
_circle_fields = operator.itemgetter(*_CIRCLE_TYPES)
_SIZE_FIELDS = ("height_mm", "width_mm", "median_depth_m", "fill_ratio", "center_depth_m")
# The float columns of a table, each with the shape of one row's value.
_ARRAY_SHAPES = {**dict.fromkeys((*_SIZE_FIELDS, "radius_m"), ()),
                 "circle": (3,), "center_world_m": (3,)}


@dataclass(eq=False)
class RecordTable:
    """``records.json`` records as columns, row i holding record i (see the
    module docstring); ``class_name`` is ``class``. The string, int and bbox
    columns are lists of the JSON values, so a bbox int of any size
    round-trips. The float columns are float64 arrays: ``circle`` is (n, 3)
    of cu, cv, r_px, and ``center_world_m`` is (n, 3)."""

    frame_id: List[str]
    camera_id: List[str]
    detection_index: List[int]
    class_name: List[str]
    fruit_id: List[Optional[str]]
    height_mm: np.ndarray
    width_mm: np.ndarray
    median_depth_m: np.ndarray
    fill_ratio: np.ndarray
    circle: np.ndarray
    bbox: List[List[int]]
    center_depth_m: np.ndarray
    radius_m: np.ndarray
    center_world_m: np.ndarray

    def __len__(self) -> int:
        return len(self.frame_id)

    @classmethod
    def concat(cls, tables: Sequence[RecordTable]) -> RecordTable:
        """The rows of ``tables`` in order; of no tables, the empty table."""
        return cls(**{name: np.concatenate([np.empty((0, *_ARRAY_SHAPES[name])),
                                            *(getattr(t, name) for t in tables)])
                      if name in _ARRAY_SHAPES else [v for t in tables for v in getattr(t, name)]
                      for name in (f.name for f in fields(cls))})

    def take(self, rows: Sequence[int]) -> RecordTable:
        """The table of this one's rows ``rows``, in that order."""
        index = np.asarray(rows, dtype=np.intp)
        return RecordTable(**{name: getattr(self, name)[index] if name in _ARRAY_SHAPES
                              else list(map(getattr(self, name).__getitem__, rows))
                              for name in (f.name for f in fields(self))})


def _column(rows: Optional[list], key: str) -> Optional[list]:
    """``row[key]`` of every row, or None if a row is not a JSON object with ``key``."""
    try:
        return list(map(operator.itemgetter(key), rows))
    except (KeyError, TypeError):
        return None


def _columns(rows: Optional[list], centers: Optional[list]) -> Optional[RecordTable]:
    """The table of the record objects ``rows`` placed at ``centers``, or None
    if a record breaks a rule of ``_check_record``. Each rule runs once per
    column: one set of the column's value types, and numpy for finiteness
    and sign."""
    columns = [_column(rows, key) for key in _RECORD_TYPES]
    if centers is None or any(column is None for column in columns) or not all(
            set(map(type, column)).issubset(types)
            for column, types in zip(columns, _RECORD_TYPES.values())):
        return None
    (frame_id, camera_id, detection_index, class_name, fruit_id, height_mm, width_mm,
     median_depth_m, fill_ratio, circle, bbox, center_depth_m, radius_m) = columns
    circles = [_column(circle, key) for key in _CIRCLE_TYPES]
    if (any(column is None for column in circles) or set(map(type, centers)) - {list}
            or set(map(len, bbox)) - {4} or set(map(len, centers)) - {3}
            or set(map(type, itertools.chain.from_iterable(bbox))) - {int}
            or set(map(type, itertools.chain(*circles, *centers))) - {int, float}):
        return None
    try:   # rows 0-4 the sizes, 5 radius_m, 6-8 cu, cv, r_px
        values = np.array([height_mm, width_mm, median_depth_m, fill_ratio, center_depth_m,
                           radius_m, *circles], dtype=float)
        center = np.array(centers, dtype=float).reshape(-1, 3)
    except OverflowError:   # an int past the float range
        return None
    if not (np.isfinite(values).all() and np.isfinite(center).all()
            and (values[5] > 0).all() and (values[8] > 0).all()):
        return None
    return RecordTable(frame_id, camera_id, detection_index, class_name, fruit_id, *values[:4],
                       values[6:].T, bbox, values[4], values[5], center)


def _check_record(d: dict, center) -> None:
    """Raises the ``KeyError`` or ``_MALFORMED`` error of the first rule that
    the record ``d``, placed at ``center``, breaks: a missing field, then a
    wrong type or shape, then a non-finite center, a radius that is not
    positive, a non-finite size and a degenerate circle, each naming its field.
    Run only after ``_columns`` has refused a table, to name the record."""
    _record_fields(d)
    for key, types in _RECORD_TYPES.items():
        _value(d, key, types)
    circle = d["circle"]
    _circle_fields(circle)
    for key, types in _CIRCLE_TYPES.items():
        _value(circle, key, types)
    _values(d, "bbox", (4,), _INT)
    _values({"center_world_m": center}, "center_world_m", (3,))
    x, y, z = map(float, center)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"center_world_m must be finite, got {center!r}")
    radius = float(d["radius_m"])
    if not 0 < radius < math.inf:
        raise ValueError(f"radius_m must be finite and positive, got {radius!r}")
    sizes = [float(d[key]) for key in _SIZE_FIELDS]
    wrong = [f"{key}={value!r}" for key, value in zip(_SIZE_FIELDS, sizes)
             if not math.isfinite(value)]
    if wrong:
        raise ValueError(f"{', '.join(wrong)} must be finite")
    cu, cv, r_px = map(float, _circle_fields(circle))
    if not (math.isfinite(cu) and math.isfinite(cv) and 0 < r_px < math.inf):
        raise ValueError(f"invalid circle (cu={cu}, cv={cv}, r_px={r_px})")


def _entries(path: Path, key: str) -> list:
    doc = load_json(path)
    with parsing(path):
        return _value(_object(doc), key, _LIST)


def _collector_paused(read):
    """``read`` with the cyclic garbage collector paused while it runs, and
    restored to its previous state however ``read`` ends. ``read`` drops the
    JSON tree it decodes, which holds no cycle, before it returns, so the
    tree is freed by reference counting and no collection scans it."""
    @functools.wraps(read)
    def paused(path: Path) -> RecordTable:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return read(path)
        finally:
            if enabled:
                gc.enable()
    return paused


@_collector_paused
def read_records(path: Path) -> RecordTable:
    """The records of a ``records.json``; its warnings are not read."""
    entries = _entries(path, "records")
    table = _columns(entries, _column(entries, "center_world_m"))
    if table is None:   # name the first bad record
        for i, d in enumerate(entries):
            with parsing(f"record {path}#records[{i}]"):
                _check_record(_object(d, "record"), d["center_world_m"])
    return table


@_collector_paused
def read_fused_choices(path: Path) -> RecordTable:
    """The chosen record of each fruit in a ``fused.json``, placed at the
    fruit's fused center, which is where the evaluator matches it."""
    entries = _entries(path, "fruits")
    table = _columns(_column(entries, "chosen"), _column(entries, "center_world_m"))
    if table is None:   # name the first bad fruit
        for i, f in enumerate(entries):
            with parsing(f"record {path}#fruits[{i}]"):
                _check_record(_object(_object(f, "fruit")["chosen"], "chosen"),
                              f["center_world_m"])
    return table


# Rows formatted at once, which bounds the texts a streamed document holds.
# Small blocks cost no speed and leave the heap smaller: on fuse_8k, blocks of
# 1,024 rows raised the peak RSS 2.9% over one dump_json of the document, and
# blocks of 128 rows 0.8%.
_BLOCK_ROWS = 128
# A record's object as ``json.dumps`` writes it, a slot per value in key
# order; "%d" is the index, and the bbox slot takes the text inside its brackets.
_RECORD_TEXT = ('{"frame_id": %s, "camera_id": %s, "detection_index": %d, "class": %s, '
                '"fruit_id": %s, "height_mm": %s, "width_mm": %s, "median_depth_m": %s, '
                '"fill_ratio": %s, "circle": {"cu": %s, "cv": %s, "r_px": %s}, "bbox": [%s], '
                '"center_depth_m": %s, "radius_m": %s, "center_world_m": [%s, %s, %s]}')
_FRUIT_TEXT = ('%s{"center_world_m": [%s, %s, %s], "radius_m": %s, "n_views": %d, '
               '"chosen": %s, "members": [%s]}')


def _float_texts(values: list) -> List[str]:
    """The ``json.dumps`` text of each float of ``values``, ``NaN`` and
    ``Infinity`` included: one dumps of the list, split at its separators,
    which the text of no float holds."""
    text = json.dumps(values)[1:-1]
    return text.split(", ") if text else []


def _string_texts(column: list) -> List[str]:
    """The ``json.dumps`` text of each string or None of ``column``, one dumps
    per distinct value."""
    texts = {value: json.dumps(value) for value in set(column)}
    return list(map(texts.__getitem__, column))


def _record_blocks(table: RecordTable) -> Iterator[List[str]]:
    """Each block of ``_BLOCK_ROWS`` rows of ``table`` as the texts that
    ``json.dumps`` gives their ``records.json`` objects, formatted a column at
    a time."""
    floats = (table.height_mm, table.width_mm, table.median_depth_m, table.fill_ratio,
              table.circle, table.center_depth_m, table.radius_m, table.center_world_m)
    for lo in range(0, len(table), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        # 12 per row: the four sizes, cu, cv, r_px, center depth, radius and the center
        x = _float_texts(np.column_stack([column[rows] for column in floats]).ravel().tolist())
        frame_id, camera_id, class_name, fruit_id = (
            _string_texts(column[rows])
            for column in (table.frame_id, table.camera_id, table.class_name, table.fruit_id))
        bbox = json.dumps(table.bbox[rows])[2:-2].split("], [")
        yield list(map(_RECORD_TEXT.__mod__, zip(
            frame_id, camera_id, table.detection_index[rows], class_name, fruit_id,
            *(x[k::12] for k in range(7)), bbox, *(x[k::12] for k in range(7, 12)))))


def write_records(path: Path, records: RecordTable, warnings: List[dict]) -> None:
    """``records.json``: the bytes of ``dump_json({"records": <rows as
    objects>, "warnings": warnings})``, written a block of records at a time."""
    with _json_file(path) as fh:
        fh.write('{"records": [')
        for i, block in enumerate(_record_blocks(records)):
            fh.write((", " if i else "") + ", ".join(block))
        fh.write(f'], "warnings": {json.dumps(warnings, check_circular=False)}}}\n')


def write_fused(path: Path, fruits: FruitTable, records: RecordTable) -> None:
    """``fused.json`` for ``fruits``, whose members index the rows of
    ``records``: the bytes ``dump_json`` gives for the document, written one
    fruit at a time. The members are taken in fruit order and formatted once,
    and the chosen record is its member's text."""
    texts = itertools.chain.from_iterable(_record_blocks(records.take(fruits.members.tolist())))
    numbers = _float_texts(
        np.column_stack([fruits.center_world_m, fruits.radius_m]).ravel().tolist())
    with _json_file(path) as fh:
        fh.write('{"fruits": [')
        for i, (size, chosen) in enumerate(zip(np.diff(fruits.starts).tolist(),
                                               fruits.chosen.tolist())):
            members = list(itertools.islice(texts, size))
            fh.write(_FRUIT_TEXT % (", " if i else "", *numbers[4 * i:4 * i + 4], size,
                                    members[chosen], ", ".join(members)))
        fh.write("]}\n")


# -- ground truth ------------------------------------------------------------

TRUTH_HEADER = ["fruit_id", "height_mm", "width_mm", "x_m", "y_m", "z_m"]


def write_ground_truth_csv(path: Path, records: Sequence[GroundTruthRecord]) -> None:
    """One row per fruit, each number the ``repr`` of a float, a blank center
    for None; a scene's ``SceneFruits`` iterate as their rows. Every row
    passes ``check_truth``, whose ``ValueError`` leaves no file, before the
    file is opened."""
    rows = []
    for r in records:
        c = r.center_world
        check_truth(r.height_mm, r.width_mm, c or ())
        rows.append([r.fruit_id, repr(float(r.height_mm)), repr(float(r.width_mm)),
                     *(("", "", "") if c is None else (repr(float(v)) for v in c))])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        writer.writerows(rows)


def read_ground_truth_csv(path: Path) -> TruthTable:
    """The rows as ``csv.DictReader`` reads them (no blank row, a short row's
    missing fields None, a repeated name's last column), columns looked up once."""
    path = Path(path)
    with parsing(f"ground truth {path}"):
        reader = csv.reader(io.StringIO(_read_bytes(path).decode(), newline=""))
        header = next(reader, [])
        rows = [row for row in reader if row]
    at = {name: i for i, name in enumerate(header)}
    # a getter per column; of an absent one, no x_m or a dict row's KeyError
    fruit_id, height_mm, width_mm, x_m, y_m, z_m = (
        operator.itemgetter(at[name]) if name in at else (lambda row: None) if name == "x_m"
        else lambda row, name=name: {}[name] for name in TRUTH_HEADER)
    row_of: Dict[Optional[str], int] = {}   # each fruit_id's row, in row order
    sizes, centers = [], []
    try:
        for n, row in enumerate(rows, 1):
            row += [None] * (len(header) - len(row))
            x, center = x_m(row), ()
            if x not in (None, ""):
                center = (float(x), float(y_m(row)), float(z_m(row)))
            fruit, size = fruit_id(row), (float(height_mm(row)), float(width_mm(row)))
            check_truth(*size, center)
            if row_of.setdefault(fruit, n) != n:
                raise ValueError(f"fruit_id {fruit!r} repeats row {row_of[fruit]}")
            sizes.append(size)
            centers.append(center or (math.nan,) * 3)
    except Exception:
        with parsing(f"ground-truth row {n} in {path}"):
            raise
    return TruthTable(list(row_of), *np.array(sizes, dtype=float).reshape(-1, 2).T,
                      np.array(centers, dtype=float).reshape(-1, 3))


# -- simulator scenes ----------------------------------------------------------

def scene_from_dict(doc: dict, source: str = "<inline>") -> SceneSpec:
    with parsing(f"scene {source}"):
        rig = []
        for c in _objects(doc, "rig"):
            cam_id = _value(c, "camera_id", _STRING)
            where = f"{source}:{cam_id}"
            rig.append(RigCamera(cam_id,
                                 intrinsics_from_dict(_value(c, "intrinsics", _OBJECT), where),
                                 transform_from_dict(_value(c, "cam_to_world", _OBJECT), where)))
        fruits = [(_value(f, "id", _STRING), Point3.from_array(_values(f, "center_world", (3,))),
                   _values(f, "semi_axes", (3,))) for f in _objects(doc, "fruits")]
        corners = [_values(o, "corners", (4, 3)) for o in _objects(doc, "occluders", [])]
        noise = _value(doc, "noise", _OBJECT, {})
        if (model := _value(noise, "model", _STRING, "z2")) != "z2":
            raise InvalidSpec(f"unknown noise model {model!r}")
        sigma_at_1m = float(_value(noise, "sigma_at_1m", _NUMBER, 0.0))
        seed = _value(doc, "seed", _INT, 0)
        depth_scale = float(_value(doc, "depth_scale", _NUMBER, 0.001))
        # the columns check themselves only after every field is read
        ids, centers, semi_axes = map(list, zip(*fruits)) if fruits else ([], [], [])
        return SceneSpec(SceneFruits(ids, centers, semi_axes), SceneLeaves(corners), rig,
                         sigma_at_1m, seed, depth_scale)


def read_scene(path: Path) -> SceneSpec:
    return scene_from_dict(load_json(path), str(path))
