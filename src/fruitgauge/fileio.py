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
in its own view (``Record``, a ``NamedTuple``: immutable, hashable, compared
by value and cheap to build); its keys, in written order:

    frame_id, camera_id       str
    detection_index           int, position in the detections file
    class                     str, detector class name
    fruit_id                  str or null (simulator provenance)
    height_mm, width_mm       float, metric size at the shared depth
    median_depth_m            float, lower median depth of the mask edge
    fill_ratio                float in [0, 1], mask cover of the fitted circle
    circle                    {"cu", "cv", "r_px"}: fitted circle, pixels
    bbox                      [x, y, w, h], int pixels
    center_depth_m            float, depth at the bbox center (0: no sample)
    radius_m                  float, metric fruit radius
    center_world_m            [x, y, z] float, fruit center in the world frame

A warning is ``{frame_id, camera_id, detection_index, reason, message}``.
``fruitgauge fuse`` writes ``fused.json``: ``{"fruits": [...]}``, each fruit
``{center_world_m, radius_m, n_views, chosen, members}``: member-mean center
and radius (m), view count, the selected record and all member records.

A scene (``simulate --scene``) is ``{rig: [{camera_id, intrinsics,
cam_to_world}], fruits: [{id, center_world, semi_axes}], occluders: [{corners}],
noise: {sigma_at_1m, model}, seed, depth_scale}``; a board-pose file (``calibrate
--poses``) is ``{anchor, observations: [{poses: {camera_id: transform}}],
intrinsics_files: {camera_id: path}}``; a transform is ``{rotation, translation}``.

One rule covers malformed input: only this module reads a document, and it
indexes one only inside ``parsing(source)``, so a missing key or a value of the
wrong type or shape is a ``BundleIOError`` that names the file (CLI exit 2).
``read_records`` and ``read_fused_choices`` check a whole file in one pass,
with the same per-record validation as ``Record.from_dict``, and name the
failing entry as ``#records[i]`` or ``#fruits[i]``. A record's float fields
must be finite, and its radii positive.

All JSON emitted by the pipeline is written with a fixed key order and a
trailing newline so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import BundleIOError, DegenerateCircle, LengthMismatch
from .evaluation import GroundTruthRecord
from .geometry import CameraIntrinsics, DepthImage, Point3, RigCamera, RigidTransform
from .maskops import BinaryMask, decode_rle, encode_rle
from .simulate import FruitSpec, NoiseSpec, QuadOccluder, SceneSpec
from .sizing import FittedCircle

# Raised by a value of the wrong type or shape, also in the circle and mask constructors,
# and by JSON nested too deeply or a CSV field too long to decode.
_MALFORMED = (TypeError, ValueError, IndexError, AttributeError, OverflowError,
              RecursionError, csv.Error, DegenerateCircle, LengthMismatch)


class parsing:
    """Turns a ``KeyError`` or ``_MALFORMED`` error inside it into a
    ``BundleIOError`` naming ``source``, which is formatted only then, so a
    reader can enter one per file and still name the entry that failed."""

    def __init__(self, source: object):
        self.source = source

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, error, traceback) -> None:
        if isinstance(error, KeyError):
            raise BundleIOError(f"{self.source} missing field {error}") from error
        if isinstance(error, _MALFORMED):
            raise BundleIOError(f"malformed {self.source}: {error}") from error


_NUMBER = (int, float)  # exact JSON value types, so a bool is not a number


def _check_types(d: dict, types: dict) -> None:
    wrong = [key for key, allowed in types.items() if type(d[key]) not in allowed]
    if wrong:
        raise TypeError(f"wrong value type for {', '.join(wrong)}")


def _string(d: dict, key: str, optional: bool = False) -> Optional[str]:
    """``d[key]`` as a string; with ``optional``, a missing key or null is None."""
    value = d.get(key) if optional else d[key]
    if type(value) is str or (optional and value is None):
        return value
    raise TypeError(f"{key} must be a string, got {value!r}")


def _number(d: dict, key: str):
    """``d[key]`` if it is a JSON number (an int or a float, not a bool)."""
    value = d[key]
    if type(value) in _NUMBER:
        return value
    raise TypeError(f"{key} must be a number, got {value!r}")


def _check_list(key: str, values: list, n: int, types: tuple) -> None:
    if type(values) is not list or len(values) != n or any(type(v) not in types for v in values):
        raise TypeError(f"{key} needs {n} values of types {types}, got {values!r}")


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as e:
        raise BundleIOError(f"cannot read {path}: {e.strerror or e}") from e


def dump_json(obj, path: Path) -> None:
    """One line of JSON plus a newline, keys in insertion order.

    No ``indent``: it makes CPython's ``json`` fall back from its C encoder
    to the pure-Python one, several times slower on large documents.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj) + "\n")


def load_json(path: Path):
    path = Path(path)
    with parsing(f"JSON in {path}"):
        return json.loads(_read_bytes(path).decode())


# -- PGM depth ---------------------------------------------------------------

def write_pgm16(path: Path, data: np.ndarray) -> None:
    """Binary PGM (P5), maxval 65535, big-endian samples."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = np.asarray(data, dtype=np.uint16)
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n65535\n".encode("ascii")
    path.write_bytes(header + data.astype(">u2").tobytes())


def read_pgm16(path: Path) -> np.ndarray:
    path = Path(path)
    raw = _read_bytes(path)
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(raw):
            if raw[pos:pos + 1].isspace():
                pos += 1
            elif raw[pos:pos + 1] == b"#":  # comment to end of line
                while pos < len(raw) and raw[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise BundleIOError(f"truncated PGM header in {path}")
        return raw[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise BundleIOError(f"not a binary PGM (P5) file: {path}")
    with parsing(f"PGM header in {path}"):
        width, height, maxval = int(next_token()), int(next_token()), int(next_token())
    if width < 0 or height < 0:
        raise BundleIOError(f"negative PGM size {width}x{height} in {path}")
    if not (256 <= maxval <= 65535):
        raise BundleIOError(f"expected 16-bit PGM (maxval 256..65535) in {path}")
    pos += 1  # single whitespace byte separates header from raster
    expected = width * height * 2
    body = raw[pos:pos + expected]
    if len(body) != expected:
        raise BundleIOError(f"PGM raster truncated in {path}")
    return np.frombuffer(body, dtype=">u2").reshape(height, width).astype(np.uint16)


def write_depth(path_pgm: Path, depth: DepthImage) -> None:
    path_pgm = Path(path_pgm)
    write_pgm16(path_pgm, depth.data)
    dump_json({"depth_scale": depth.depth_scale}, path_pgm.with_suffix(".json"))


def read_depth(path_pgm: Path) -> DepthImage:
    path_pgm = Path(path_pgm)
    data, sidecar = read_pgm16(path_pgm), path_pgm.with_suffix(".json")
    with parsing(f"depth sidecar {sidecar}"):
        return DepthImage(data, float(load_json(sidecar)["depth_scale"]))


# -- intrinsics / rig --------------------------------------------------------

def intrinsics_to_dict(k: CameraIntrinsics) -> dict:
    distortion = None if k.distortion is None else list(k.distortion)
    return {**asdict(k), "distortion": distortion}


def intrinsics_from_dict(d: dict, source: str = "<inline>") -> CameraIntrinsics:
    with parsing(f"intrinsics {source}"):
        return CameraIntrinsics(
            width=int(d["width"]),
            height=int(d["height"]),
            fx=float(d["fx"]),
            fy=float(d["fy"]),
            ppx=float(d["ppx"]),
            ppy=float(d["ppy"]),
            distortion=d.get("distortion"),
        )


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
    with parsing(f"transform {source}"):
        return RigidTransform(np.array(d["rotation"]), np.array(d["translation"]))


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


def read_rig(path: Path) -> List[RigCamera]:
    path = Path(path)
    doc = load_json(path)
    cameras = []
    with parsing(f"rig {path}"):
        for entry in doc["cameras"]:
            cam_id = _string(entry, "id")
            pose = transform_from_dict(entry["cam_to_world"], f"{path}:{cam_id}").validate()
            intr, depth_intr = (
                read_intrinsics(path.parent / entry[key]) if entry.get(key) else None
                for key in ("intrinsics_file", "depth_intrinsics_file"))
            depth_to_color = None
            if entry.get("depth_to_color"):
                depth_to_color = transform_from_dict(entry["depth_to_color"], str(path)).validate()
            cameras.append(RigCamera(cam_id, intr, pose, depth_intr, depth_to_color))
    if not cameras:
        raise BundleIOError(f"rig {path} lists no cameras")
    return cameras


# -- calibration board poses ---------------------------------------------------

def read_board_poses(
    path: Path,
) -> Tuple[Optional[str], List[Dict[str, RigidTransform]], Dict[str, str]]:
    """A board-pose file as ``(anchor or None, observations, intrinsics_files)``."""
    path = Path(path)
    doc = load_json(path)
    with parsing(f"board poses {path}"):
        observations = [
            {
                cam_id: transform_from_dict(pose, f"{path}#obs{i}/{cam_id}")
                for cam_id, pose in obs.get("poses", {}).items()
            }
            for i, obs in enumerate(doc.get("observations", []))
        ]
        files = doc.get("intrinsics_files", {})
        return (_string(doc, "anchor", optional=True), observations,
                {cam_id: _string(files, cam_id) for cam_id in files})


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
        for d in doc["detections"]:
            _check_list("bbox", d["bbox"], 4, (int,))
            rle = d["mask_rle"]
            dets.append(
                Detection(
                    class_name=_string(d, "class"),
                    score=float(_number(d, "score")),
                    bbox=tuple(d["bbox"]),
                    mask=decode_rle(rle["counts"], rle["size"]),
                    fruit_id=_string(d, "fruit_id", optional=True),
                )
            )
        return DetectionFile(_string(doc, "frame_id"), _string(doc, "camera_id"), dets)


# -- measurement records -----------------------------------------------------

# records.json keys in written order up to center_world_m, which is last, each
# with the JSON types its value may take.
_RECORD_TYPES = {
    "frame_id": (str,), "camera_id": (str,), "detection_index": (int,), "class": (str,),
    "fruit_id": (str, type(None)), "height_mm": _NUMBER, "width_mm": _NUMBER,
    "median_depth_m": _NUMBER, "fill_ratio": _NUMBER, "circle": (dict,), "bbox": (list,),
    "center_depth_m": _NUMBER, "radius_m": _NUMBER,
}
_CIRCLE_TYPES = {"cu": _NUMBER, "cv": _NUMBER, "r_px": _NUMBER}
_record_fields = operator.itemgetter(*_RECORD_TYPES)
_circle_fields = operator.itemgetter(*_CIRCLE_TYPES)
_RECORD_TYPE_SETS = tuple(map(frozenset, _RECORD_TYPES.values()))
_SIZE_FIELDS = ("height_mm", "width_mm", "median_depth_m", "fill_ratio", "center_depth_m")
# The types of a record's circle, bbox and center values, in that order.
_VALUE_TYPE_SETS = tuple(map(frozenset, (*_CIRCLE_TYPES.values(), *[(int,)] * 4,
                                         *[_NUMBER] * 3)))


class Record(NamedTuple):
    """One ``records.json`` record (see the module docstring); ``class_name`` is ``class``."""

    frame_id: str
    camera_id: str
    detection_index: int
    class_name: str
    fruit_id: Optional[str]
    height_mm: float
    width_mm: float
    median_depth_m: float
    fill_ratio: float
    circle: FittedCircle
    bbox: Tuple[int, int, int, int]
    center_depth_m: float
    radius_m: float
    center_world_m: Point3

    def to_dict(self) -> dict:
        (frame_id, camera_id, detection_index, class_name, fruit_id, height_mm, width_mm,
         median_depth_m, fill_ratio, circle, bbox, center_depth_m, radius_m, center_world_m) = self
        return {
            "frame_id": frame_id,
            "camera_id": camera_id,
            "detection_index": detection_index,
            "class": class_name,
            "fruit_id": fruit_id,
            "height_mm": height_mm,
            "width_mm": width_mm,
            "median_depth_m": median_depth_m,
            "fill_ratio": fill_ratio,
            "circle": {"cu": circle.cu, "cv": circle.cv, "r_px": circle.r_px},
            "bbox": list(bbox),
            "center_depth_m": center_depth_m,
            "radius_m": radius_m,
            "center_world_m": list(center_world_m),
        }

    @staticmethod
    def from_dict(d: dict, source: str = "<inline>") -> "Record":
        """Parse one record; a missing or mistyped field, a non-finite size, circle
        or center, or a radius that is not finite and positive raises BundleIOError."""
        with parsing(f"record {source}"):
            return _record(d, d["center_world_m"])


def _record(d: dict, center: list) -> Record:
    """The record with ``d``'s fields and ``center`` as its ``center_world_m``.
    Raises ``KeyError`` or a ``_MALFORMED`` error; callers enter ``parsing``.

    Each check maps ``type`` over the values against per-value type sets and
    calls the checks that name the wrong field only when that fails."""
    fields = _record_fields(d)
    if not all(map(frozenset.__contains__, _RECORD_TYPE_SETS, map(type, fields))):
        _check_types(d, _RECORD_TYPES)
    (frame_id, camera_id, detection_index, class_name, fruit_id, height_mm, width_mm,
     median_depth_m, fill_ratio, circle, bbox, center_depth_m, radius) = fields
    cu, cv, r_px = _circle_fields(circle)
    if (type(center) is not list or len(bbox) != 4 or len(center) != 3
            or not all(map(frozenset.__contains__, _VALUE_TYPE_SETS,
                           map(type, (cu, cv, r_px, *bbox, *center))))):
        _check_types(circle, _CIRCLE_TYPES)
        _check_list("bbox", bbox, 4, (int,))
        _check_list("center_world_m", center, 3, _NUMBER)
    x, y, z = map(float, center)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"center_world_m must be finite, got {center!r}")
    radius = float(radius)
    if not 0 < radius < math.inf:
        raise ValueError(f"radius_m must be finite and positive, got {radius!r}")
    sizes = (float(height_mm), float(width_mm), float(median_depth_m), float(fill_ratio),
             float(center_depth_m))
    height_mm, width_mm, median_depth_m, fill_ratio, center_depth_m = sizes
    # The sum is finite if every term is; one that overflows is checked term by term.
    if not math.isfinite(height_mm + width_mm + median_depth_m + fill_ratio + center_depth_m):
        wrong = [f"{key}={value!r}" for key, value in zip(_SIZE_FIELDS, sizes)
                 if not math.isfinite(value)]
        if wrong:
            raise ValueError(f"{', '.join(wrong)} must be finite")
    return Record(frame_id, camera_id, detection_index, class_name, fruit_id,
                  height_mm, width_mm, median_depth_m, fill_ratio,
                  FittedCircle(float(cu), float(cv), float(r_px)), tuple(bbox),
                  center_depth_m, radius, Point3(x, y, z))


class _Entry:
    """The source that one ``parsing`` around a whole list names when an
    entry fails: ``before``, the entry's number, ``after``. The number is that
    of the entries parsed so far, plus ``first``."""

    def __init__(self, before: str, parsed: list, after: str = "", first: int = 0):
        self.before, self.parsed, self.after, self.first = before, parsed, after, first

    def __str__(self) -> str:
        return f"{self.before}{len(self.parsed) + self.first}{self.after}"


def _entries(path: Path, key: str) -> list:
    doc = load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
        raise BundleIOError(f"{path} has no {key!r} list")
    return doc[key]


def read_records(path: Path) -> List[Record]:
    """The records of a ``records.json``; its warnings are not read."""
    entries, records = _entries(path, "records"), []
    with parsing(_Entry(f"record {path}#records[", records, "]")):
        for d in entries:
            records.append(_record(d, d["center_world_m"]))
    return records


def read_fused_choices(path: Path) -> List[Record]:
    """The chosen record of each fruit in a ``fused.json``, placed at the
    fruit's fused center, which is where the evaluator matches it."""
    entries, chosen = _entries(path, "fruits"), []
    with parsing(_Entry(f"record {path}#fruits[", chosen, "]")):
        for f in entries:
            chosen.append(_record(f["chosen"], f["center_world_m"]))
    return chosen


# -- ground truth ------------------------------------------------------------

TRUTH_HEADER = ["fruit_id", "height_mm", "width_mm", "x_m", "y_m", "z_m"]


def write_ground_truth_csv(path: Path, records: List[GroundTruthRecord]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        for r in records:
            c = r.center_world
            writer.writerow([
                r.fruit_id, repr(float(r.height_mm)), repr(float(r.width_mm)),
                *(("", "", "") if c is None else (repr(float(v)) for v in c)),
            ])


def read_ground_truth_csv(path: Path) -> List[GroundTruthRecord]:
    path = Path(path)
    with parsing(f"ground truth {path}"):
        rows = list(csv.DictReader(io.StringIO(_read_bytes(path).decode(), newline="")))
    records = []
    with parsing(_Entry("ground-truth row ", records, f" in {path}", first=1)):
        for row in rows:
            center = None
            if row.get("x_m") not in (None, ""):
                center = Point3(float(row["x_m"]), float(row["y_m"]), float(row["z_m"]))
            records.append(GroundTruthRecord(row["fruit_id"], float(row["height_mm"]),
                                             float(row["width_mm"]), center))
    return records


# -- simulator scenes ----------------------------------------------------------

def scene_from_dict(doc: dict, source: str = "<inline>") -> SceneSpec:
    with parsing(f"scene {source}"):
        rig = []
        for c in doc["rig"]:
            cam_id = _string(c, "camera_id")
            rig.append(RigCamera(cam_id,
                                 intrinsics_from_dict(c["intrinsics"], f"{source}:{cam_id}"),
                                 transform_from_dict(c["cam_to_world"], f"{source}:{cam_id}")))
        fruits = [
            FruitSpec(_string(f, "id"), Point3.from_array(f["center_world"]),
                      np.array(f["semi_axes"]))
            for f in doc["fruits"]
        ]
        occluders = [QuadOccluder(np.array(o["corners"])) for o in doc.get("occluders", [])]
        noise = doc.get("noise", {})
        return SceneSpec(
            fruits=fruits,
            occluders=occluders,
            rig=rig,
            noise=NoiseSpec(float(noise.get("sigma_at_1m", 0.0)), noise.get("model", "z2")),
            seed=int(doc.get("seed", 0)),
            depth_scale=float(doc.get("depth_scale", 0.001)),
        )


def read_scene(path: Path) -> SceneSpec:
    return scene_from_dict(load_json(path), str(path))
