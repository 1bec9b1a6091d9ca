"""On-disk formats: 16-bit PGM depth, rig/intrinsics/detections JSON, truth CSV.

A capture bundle directory looks like::

    bundle/
      rig.json
      intrinsics/<camera_id>.json
      depth/<camera_id>_<frame_id>.pgm     (+ .json sidecar with depth_scale)
      detections/<camera_id>_<frame_id>.json
      ground_truth.csv                     (optional)

``fruitgauge measure`` writes ``records.json``: ``{"records": [...],
"warnings": [...]}``. A record is one accepted detection, sized and localized
in its own view (``Record``); its keys, in written order:

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
    edge_margin_px            int, bbox distance to the image border
    radius_m                  float, metric fruit radius
    center_world_m            [x, y, z] float, fruit center in the world frame

A warning is ``{frame_id, camera_id, detection_index, reason, message}``.
``fruitgauge fuse`` writes ``fused.json``: ``{"fruits": [...]}``, each fruit
``{center_world_m, radius_m, n_views, chosen, members}``: member-mean center
and radius (m), view count, the selected record and all member records.

All JSON emitted by the pipeline is written with a fixed key order and a
trailing newline so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .errors import BundleIOError, DegenerateCircle
from .evaluation import GroundTruthRecord
from .geometry import CameraIntrinsics, DepthImage, Point3, RigCamera, RigidTransform
from .maskops import BinaryMask, decode_rle, encode_rle
from .sizing import FittedCircle


def dump_json(obj, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")


def load_json(path: Path):
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except FileNotFoundError as e:
        raise BundleIOError(f"missing file: {path}") from e
    except json.JSONDecodeError as e:
        raise BundleIOError(f"malformed JSON in {path}: {e}") from e


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
    try:
        raw = path.read_bytes()
    except FileNotFoundError as e:
        raise BundleIOError(f"missing file: {path}") from e

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
    try:
        width, height, maxval = int(next_token()), int(next_token()), int(next_token())
    except ValueError as e:
        raise BundleIOError(f"bad PGM header in {path}") from e
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
    data = read_pgm16(path_pgm)
    sidecar = load_json(path_pgm.with_suffix(".json"))
    try:
        scale = float(sidecar["depth_scale"])
    except (KeyError, TypeError, ValueError) as e:
        raise BundleIOError(f"bad depth sidecar for {path_pgm}") from e
    return DepthImage(data, scale)


# -- intrinsics / rig --------------------------------------------------------

def intrinsics_to_dict(k: CameraIntrinsics) -> dict:
    return {
        "width": k.width,
        "height": k.height,
        "fx": k.fx,
        "fy": k.fy,
        "ppx": k.ppx,
        "ppy": k.ppy,
        "distortion": None if k.distortion is None else [float(c) for c in k.distortion],
    }


def intrinsics_from_dict(d: dict, source: str = "<inline>") -> CameraIntrinsics:
    try:
        return CameraIntrinsics(
            width=int(d["width"]),
            height=int(d["height"]),
            fx=float(d["fx"]),
            fy=float(d["fy"]),
            ppx=float(d["ppx"]),
            ppy=float(d["ppy"]),
            distortion=d.get("distortion"),
        )
    except KeyError as e:
        raise BundleIOError(f"intrinsics {source} missing key {e}") from e


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
    try:
        return RigidTransform(np.array(d["rotation"]), np.array(d["translation"]))
    except KeyError as e:
        raise BundleIOError(f"transform {source} missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise BundleIOError(f"malformed transform {source}: {e}") from e


def write_rig(path: Path, cameras: List[RigCamera],
              intrinsics_dir: Optional[str] = "intrinsics") -> None:
    """Write rig JSON; camera intrinsics go to sibling per-camera files."""
    path = Path(path)
    entries = []
    for cam in cameras:
        entry = {"id": cam.camera_id, "intrinsics_file": None,
                 "cam_to_world": transform_to_dict(cam.cam_to_world)}
        if cam.intrinsics is not None:
            rel = f"{intrinsics_dir}/{cam.camera_id}.json"
            write_intrinsics(path.parent / rel, cam.intrinsics)
            entry["intrinsics_file"] = rel
        if cam.depth_intrinsics is not None:
            rel = f"{intrinsics_dir}/{cam.camera_id}_depth.json"
            write_intrinsics(path.parent / rel, cam.depth_intrinsics)
            entry["depth_intrinsics_file"] = rel
        if cam.depth_to_color is not None:
            entry["depth_to_color"] = transform_to_dict(cam.depth_to_color)
        entries.append(entry)
    dump_json({"cameras": entries}, path)


def read_rig(path: Path) -> List[RigCamera]:
    path = Path(path)
    doc = load_json(path)
    cameras = []
    for entry in doc.get("cameras", []):
        try:
            cam_id = entry["id"]
            pose = transform_from_dict(entry["cam_to_world"], f"{path}:{cam_id}").validate()
        except KeyError as e:
            raise BundleIOError(f"rig {path} camera entry missing {e}") from e
        intr = None
        if entry.get("intrinsics_file"):
            intr = read_intrinsics(path.parent / entry["intrinsics_file"])
        depth_intr = None
        if entry.get("depth_intrinsics_file"):
            depth_intr = read_intrinsics(path.parent / entry["depth_intrinsics_file"])
        depth_to_color = None
        if entry.get("depth_to_color"):
            depth_to_color = transform_from_dict(entry["depth_to_color"], str(path)).validate()
        cameras.append(RigCamera(cam_id, intr, pose, depth_intr, depth_to_color))
    if not cameras:
        raise BundleIOError(f"rig {path} lists no cameras")
    return cameras


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
    try:
        dets = []
        for d in doc["detections"]:
            rle = d["mask_rle"]
            dets.append(
                Detection(
                    class_name=d["class"],
                    score=float(d["score"]),
                    bbox=tuple(int(x) for x in d["bbox"]),
                    mask=decode_rle(rle["counts"], tuple(rle["size"])),
                    fruit_id=d.get("fruit_id"),
                )
            )
        return DetectionFile(doc["frame_id"], doc["camera_id"], dets)
    except KeyError as e:
        raise BundleIOError(f"detections {path} missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise BundleIOError(f"malformed detection in {path}: {e}") from e


# -- measurement records -----------------------------------------------------

_NUMBER = (int, float)  # exact JSON value types, so a bool is not a number
# records.json keys in written order, each with the JSON types its value may take.
_RECORD_TYPES = {
    "frame_id": (str,), "camera_id": (str,), "detection_index": (int,), "class": (str,),
    "fruit_id": (str, type(None)), "height_mm": _NUMBER, "width_mm": _NUMBER,
    "median_depth_m": _NUMBER, "fill_ratio": _NUMBER, "circle": (dict,), "bbox": (list,),
    "center_depth_m": _NUMBER, "edge_margin_px": (int,), "radius_m": _NUMBER,
    "center_world_m": (list,),
}
_CIRCLE_TYPES = {"cu": _NUMBER, "cv": _NUMBER, "r_px": _NUMBER}


def _check_types(d: dict, types: dict) -> None:
    wrong = [key for key, allowed in types.items() if type(d[key]) not in allowed]
    if wrong:
        raise TypeError(f"wrong value type for {', '.join(wrong)}")


@dataclass(frozen=True, slots=True)
class Record:
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
    edge_margin_px: int
    radius_m: float
    center_world_m: Point3

    def to_dict(self) -> dict:
        return {
            "frame_id": self.frame_id,
            "camera_id": self.camera_id,
            "detection_index": self.detection_index,
            "class": self.class_name,
            "fruit_id": self.fruit_id,
            "height_mm": self.height_mm,
            "width_mm": self.width_mm,
            "median_depth_m": self.median_depth_m,
            "fill_ratio": self.fill_ratio,
            "circle": {"cu": self.circle.cu, "cv": self.circle.cv, "r_px": self.circle.r_px},
            "bbox": list(self.bbox),
            "center_depth_m": self.center_depth_m,
            "edge_margin_px": self.edge_margin_px,
            "radius_m": self.radius_m,
            "center_world_m": list(self.center_world_m),
        }

    @staticmethod
    def from_dict(d: dict, source: str = "<inline>") -> "Record":
        """Parse one record; a missing or mistyped field raises BundleIOError."""
        try:
            _check_types(d, _RECORD_TYPES)
            circle, bbox, center = d["circle"], d["bbox"], d["center_world_m"]
            _check_types(circle, _CIRCLE_TYPES)
            if len(bbox) != 4 or any(type(v) is not int for v in bbox):
                raise TypeError(f"bbox needs 4 ints, got {bbox!r}")
            if len(center) != 3 or any(type(v) not in _NUMBER for v in center):
                raise TypeError(f"center_world_m needs 3 numbers, got {center!r}")
            return Record(
                frame_id=d["frame_id"],
                camera_id=d["camera_id"],
                detection_index=d["detection_index"],
                class_name=d["class"],
                fruit_id=d["fruit_id"],
                height_mm=float(d["height_mm"]),
                width_mm=float(d["width_mm"]),
                median_depth_m=float(d["median_depth_m"]),
                fill_ratio=float(d["fill_ratio"]),
                circle=FittedCircle(float(circle["cu"]), float(circle["cv"]),
                                    float(circle["r_px"])),
                bbox=tuple(bbox),
                center_depth_m=float(d["center_depth_m"]),
                edge_margin_px=d["edge_margin_px"],
                radius_m=float(d["radius_m"]),
                center_world_m=Point3(*map(float, center)),
            )
        except KeyError as e:
            raise BundleIOError(f"record {source} missing field {e}") from e
        except (TypeError, OverflowError, DegenerateCircle) as e:
            raise BundleIOError(f"malformed record {source}: {e}") from e


def _entries(path: Path, key: str) -> list:
    doc = load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
        raise BundleIOError(f"{path} has no {key!r} list")
    return doc[key]


def read_records(path: Path) -> List[Record]:
    """The records of a ``records.json``; its warnings are not read."""
    return [Record.from_dict(d, f"{path}#records[{i}]")
            for i, d in enumerate(_entries(path, "records"))]


def read_fused_choices(path: Path) -> List[Record]:
    """The chosen record of each fruit in a ``fused.json``, placed at the
    fruit's fused center, which is where the evaluator matches it."""
    try:
        placed = [{**f["chosen"], "center_world_m": f["center_world_m"]}
                  for f in _entries(path, "fruits")]
    except (KeyError, TypeError) as e:
        raise BundleIOError(f"malformed fused fruit in {path}: {e}") from e
    return [Record.from_dict(d, f"{path}#fruits[{i}]") for i, d in enumerate(placed)]


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
    try:
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
    except FileNotFoundError as e:
        raise BundleIOError(f"missing file: {path}") from e
    records = []
    for i, row in enumerate(rows):
        try:
            center = None
            if row.get("x_m") not in (None, ""):
                center = Point3(float(row["x_m"]), float(row["y_m"]), float(row["z_m"]))
            records.append(
                GroundTruthRecord(
                    fruit_id=row["fruit_id"],
                    height_mm=float(row["height_mm"]),
                    width_mm=float(row["width_mm"]),
                    center_world=center,
                )
            )
        except (KeyError, TypeError, ValueError) as e:
            raise BundleIOError(f"bad ground-truth row {i + 1} in {path}: {e}") from e
    return records
