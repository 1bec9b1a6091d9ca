"""Batch pipeline: simulate / measure / fuse / evaluate / calibrate.

Every command reads and writes the plain-file formats from ``fileio``; all
canonical outputs (records, fused fruits, reports, bundles) are byte-stable
for identical inputs. Timing lives only in the manifest.

Each view is sized and localized once, at measure time: a record carries its
world-frame center and metric radius, and fusion clusters on those stored
values.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

from . import fileio
from .calibrate import solve_rig
from .errors import (
    BundleIOError,
    DegenerateCircle,
    EmptyMask,
    InvalidDepth,
    LengthMismatch,
    NoValidDepth,
    OutOfBounds,
    UnknownCamera,
    ZeroArea,
)
from .evaluation import evaluate_run, format_report_text
from .fileio import Record
from .fusion import deduplicate, estimate_metric_radius, localize
from .geometry import DepthImage, Pixel, RigCamera, align_depth_to_color
from .maskops import nearest_mask_depth
from .simulate import CaptureBundle, render_scene
from .sizing import measure_fruit

logger = logging.getLogger(__name__)

REJECTION_REASONS = (EmptyMask, NoValidDepth, DegenerateCircle, ZeroArea, InvalidDepth,
                     LengthMismatch, OutOfBounds)


def _bundle_signature(bundle_dir: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in bundle_dir.rglob("*") if p.is_file()):
        name = path.relative_to(bundle_dir).as_posix().encode()
        data = path.read_bytes()
        digest.update(b"%d:%s%d:" % (len(name), name, len(data)))
        digest.update(data)
    return digest.hexdigest()[:16]


def write_bundle(bundle: CaptureBundle, out_dir: Path) -> Path:
    """Write a rendered capture as an ingestible bundle directory."""
    out_dir = Path(out_dir)
    fileio.write_rig(out_dir / "rig.json", [c.camera for c in bundle.captures])
    for cap in bundle.captures:
        stem = f"{cap.camera.camera_id}_{bundle.frame_id}"
        fileio.write_depth(out_dir / "depth" / f"{stem}.pgm", cap.depth)
        detections = [
            fileio.Detection(
                class_name="fully_ripened",
                score=1.0,
                bbox=cap.masks[fid].bbox(),
                mask=cap.masks[fid],
                fruit_id=fid,
            )
            for fid in sorted(cap.masks)
        ]
        fileio.write_detections(
            out_dir / "detections" / f"{stem}.json",
            fileio.DetectionFile(bundle.frame_id, cap.camera.camera_id, detections),
        )
    fileio.write_ground_truth_csv(out_dir / "ground_truth.csv", bundle.truth)
    return out_dir


def cmd_simulate(scene_path: Path, out_dir: Path) -> Path:
    return write_bundle(render_scene(fileio.read_scene(Path(scene_path))), out_dir)


def _measure_detection(det: fileio.Detection, index: int, frame_id: str, depth: DepthImage,
                       cam: RigCamera) -> Record:
    """Size and localize one detection; raises one of REJECTION_REASONS."""
    k = cam.intrinsics
    if det.mask.frame != (k.height, k.width) or depth.data.shape != (k.height, k.width):
        raise LengthMismatch(f"mask {det.mask.frame} or depth {depth.data.shape} "
                             f"differs from the {k.height}x{k.width} image")
    x, y, w, h = det.bbox
    if not det.mask.is_empty():
        mx, my, mw, mh = det.mask.bbox()
        if not (x <= mx and y <= my and mx + mw <= x + w and my + mh <= y + h):
            raise OutOfBounds(f"mask has pixels outside its bbox {list(det.bbox)}")
    m = measure_fruit(det.mask, depth, k)
    center_px = Pixel(x + (w - 1) / 2.0, y + (h - 1) / 2.0)
    center_depth = depth.depth_m_at(center_px)
    # A view with no depth sample at its bbox center takes its front surface
    # from the nearest sampled mask pixel and its radius from the edge median.
    radius_m = estimate_metric_radius(m.circle, center_depth or float(m.median_depth_m), k)
    front_depth = center_depth or nearest_mask_depth(det.mask, depth, center_px)
    center_world = localize(center_px, front_depth, radius_m, k, cam.cam_to_world)
    return Record(
        frame_id=frame_id,
        camera_id=cam.camera_id,
        detection_index=index,
        class_name=det.class_name,
        fruit_id=det.fruit_id,
        height_mm=float(m.height_mm),
        width_mm=float(m.width_mm),
        median_depth_m=float(m.median_depth_m),
        fill_ratio=float(m.fill_ratio),
        circle=m.circle,
        bbox=tuple(int(v) for v in det.bbox),
        center_depth_m=float(center_depth),
        radius_m=float(radius_m),
        center_world_m=center_world,
    )


def cmd_measure(
    bundle_dir: Path,
    out_dir: Optional[Path] = None,
    rig_path: Optional[Path] = None,
) -> dict:
    """Measure every detection in a bundle; returns the records payload.

    Every ingested detection lands either in ``records`` or, with its
    rejection reason, in ``warnings`` — nothing is dropped silently.
    """
    t0 = time.perf_counter()
    bundle_dir = Path(bundle_dir)
    rig_path = Path(rig_path) if rig_path else bundle_dir / "rig.json"
    cameras = {c.camera_id: c for c in fileio.read_rig(rig_path)}

    det_dir = bundle_dir / "detections"
    if not det_dir.is_dir():
        raise BundleIOError(f"bundle has no detections directory: {det_dir}")
    det_files = [fileio.read_detections(p) for p in sorted(det_dir.glob("*.json"))]

    records: List[Record] = []
    warnings: List[dict] = []
    n_detections = 0
    unknown = sorted({f.camera_id for f in det_files} - set(cameras))
    if unknown:
        raise UnknownCamera(f"detections reference cameras {unknown} absent from rig")
    camera_order = list(cameras)
    for det_file in sorted(det_files, key=lambda f: (camera_order.index(f.camera_id), f.frame_id)):
        cam = cameras[det_file.camera_id]
        if cam.intrinsics is None:
            raise BundleIOError(f"rig entry {cam.camera_id!r} has no intrinsics file")
        depth_path = bundle_dir / "depth" / f"{det_file.camera_id}_{det_file.frame_id}.pgm"
        depth = fileio.read_depth(depth_path)
        if cam.depth_intrinsics is not None and cam.depth_to_color is not None:
            depth = align_depth_to_color(depth, cam.depth_intrinsics,
                                         cam.intrinsics, cam.depth_to_color)

        for index, det in enumerate(det_file.detections):
            n_detections += 1
            try:
                records.append(_measure_detection(det, index, det_file.frame_id, depth, cam))
            except REJECTION_REASONS as e:
                warnings.append({
                    "frame_id": det_file.frame_id,
                    "camera_id": det_file.camera_id,
                    "detection_index": index,
                    "reason": type(e).__name__,
                    "message": str(e),
                })

    payload = {"records": [r.to_dict() for r in records], "warnings": warnings}
    if out_dir is not None:
        out_dir = Path(out_dir)
        fileio.dump_json(payload, out_dir / "records.json")
        manifest = {
            "bundle": {"path": str(bundle_dir), "signature": _bundle_signature(bundle_dir)},
            "counts": {
                "frames": len(det_files),
                "detections": n_detections,
                "records": len(records),
                "warnings": len(warnings),
            },
            "warnings": warnings,
            "timings_s": {"measure": time.perf_counter() - t0},
        }
        fileio.dump_json(manifest, out_dir / "manifest.json")
    logger.info("measured %d/%d detections (%d rejected)",
                len(records), n_detections, len(warnings))
    return payload


def cmd_fuse(records_path: Path, rig_path: Path, out_path: Optional[Path] = None) -> dict:
    """Dedup records across views by their stored world centers; pick the best view."""
    camera_order = tuple(c.camera_id for c in fileio.read_rig(Path(rig_path)))
    records = fileio.read_records(Path(records_path))
    unknown = sorted({r.camera_id for r in records} - set(camera_order))
    if unknown:
        raise UnknownCamera(f"records reference cameras {unknown} absent from rig")

    fruits = []
    for f in deduplicate(records, camera_order=camera_order):
        members = [m.to_dict() for m in f.members]
        fruits.append({
            "center_world_m": list(f.center_world),
            "radius_m": f.radius_m,
            "n_views": len(members),
            "chosen": members[f.chosen],
            "members": members,
        })
    result = {"fruits": fruits}
    if out_path is not None:
        fileio.dump_json(result, Path(out_path))
    logger.info("fused %d records into %d fruits", len(records), len(result["fruits"]))
    return result


def cmd_evaluate(
    fused_path: Path,
    records_path: Path,
    truth_path: Path,
    out_prefix: Optional[Path] = None,
) -> dict:
    """Per-camera and fused accuracy report against ground truth."""
    truth = fileio.read_ground_truth_csv(Path(truth_path))
    per_camera: Dict[str, List[Record]] = {}
    for record in fileio.read_records(Path(records_path)):
        per_camera.setdefault(record.camera_id, []).append(record)
    chosen = fileio.read_fused_choices(Path(fused_path))

    report = evaluate_run(chosen, per_camera, truth)
    payload = asdict(report)
    if out_prefix is not None:
        out_prefix = Path(out_prefix)
        fileio.dump_json(payload, out_prefix.with_suffix(".json"))
        out_prefix.with_suffix(".txt").write_text(format_report_text(report))
    return payload


def cmd_calibrate(
    poses_path: Path,
    anchor: Optional[str] = None,
    out_path: Optional[Path] = None,
) -> dict:
    """Solve the rig from a board-pose observations file, write rig JSON."""
    file_anchor, observations, intrinsics_files = fileio.read_board_poses(Path(poses_path))
    anchor = anchor or file_anchor or "middle"
    cam_to_world = solve_rig(observations, anchor)
    ordered = [anchor] + [c for c in cam_to_world if c != anchor]
    rig = {
        "cameras": [
            {
                "id": cam_id,
                "intrinsics_file": intrinsics_files.get(cam_id),
                "cam_to_world": fileio.transform_to_dict(cam_to_world[cam_id]),
            }
            for cam_id in ordered
        ]
    }
    if out_path is not None:
        fileio.dump_json(rig, Path(out_path))
    return rig
