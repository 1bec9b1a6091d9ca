"""Batch pipeline: simulate / measure / fuse / evaluate / calibrate.

Every command reads and writes the plain-file formats from ``fileio``; all
canonical outputs (records, fused fruits, reports, bundles) are byte-stable
for identical inputs. Timing lives only in the manifest.

``measure``'s manifest maps each file it read (rig, intrinsics, detections,
depth and sidecars) to its sha256, which ``fileio._read_bytes`` takes from the
bytes it read. ``fuse`` and ``evaluate`` hash nothing.

Each view is sized and localized once, at measure time: a record carries its
world-frame center and metric radius, and fusion clusters on those stored
values.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import fileio
from .calibrate import solve_rig
from .errors import (BundleIOError, EmptyMask, FruitGaugeError, LengthMismatch, OutOfBounds,
                     UnknownCamera)
from .evaluation import evaluate_run, format_report_text
from .fileio import RecordTable
from .fusion import FruitTable, deduplicate, estimate_metric_radius, localize
from .geometry import DepthImage, Pixel, RigCamera, align_depth_to_color
from .maskops import nearest_mask_depth
from .simulate import DEFAULT_FRAME_ID, CaptureBundle, render_scene
from .sizing import measure_fruit

logger = logging.getLogger(__name__)


def write_bundle(bundle: CaptureBundle, out_dir: Path) -> Path:
    """Write a rendered capture as an ingestible bundle directory."""
    out_dir = Path(out_dir)
    fileio.write_rig(out_dir / "rig.json", [c.camera for c in bundle.captures])
    for cap in bundle.captures:
        stem = f"{cap.camera.camera_id}_{DEFAULT_FRAME_ID}"
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
            fileio.DetectionFile(DEFAULT_FRAME_ID, cap.camera.camera_id, detections),
        )
    fileio.write_ground_truth_csv(out_dir / "ground_truth.csv", bundle.truth)
    return out_dir


def cmd_simulate(scene_path: Path, out_dir: Path) -> Path:
    return write_bundle(render_scene(fileio.read_scene(Path(scene_path))), out_dir)


def _warnings(det_file: fileio.DetectionFile,
              rejections: List[Optional[FruitGaugeError]]) -> List[dict]:
    """The warning of each detection of ``det_file`` that has a rejection."""
    return [{"frame_id": det_file.frame_id, "camera_id": det_file.camera_id,
             "detection_index": i, "reason": type(e).__name__, "message": str(e)}
            for i, e in enumerate(rejections) if e is not None]


def _measure_frame(det_file: fileio.DetectionFile, depth: DepthImage,
                   cam: RigCamera) -> Tuple[RecordTable, List[dict]]:
    """Size and localize every detection of one frame, all its masks in one
    ``measure_fruit`` call: the table of records and the warnings, in detection
    order. A frame from a depth sensor apart from the color camera is aligned
    first; if it is not that sensor's size, every detection is a
    ``LengthMismatch``. Otherwise a warning names the first failed check of
    ``LengthMismatch``, ``OutOfBounds`` (mask outside its bbox), ``EmptyMask``,
    those of ``measure_fruit`` and ``OutOfBounds`` (bbox center outside the image)."""
    k, dets = cam.intrinsics, det_file.detections
    if cam.depth_intrinsics is not None and cam.depth_to_color is not None:
        try:
            depth = align_depth_to_color(depth, cam.depth_intrinsics, k, cam.depth_to_color)
        except LengthMismatch as e:
            return RecordTable.concat([]), _warnings(det_file, [e] * len(dets))
    rejections: List[Optional[FruitGaugeError]] = [None] * len(dets)
    for i, det in enumerate(dets):
        x, y, w, h = det.bbox
        if det.mask.frame != (k.height, k.width) or depth.data.shape != (k.height, k.width):
            rejections[i] = LengthMismatch(f"mask {det.mask.frame} or depth {depth.data.shape} "
                                           f"differs from the {k.height}x{k.width} image")
        elif det.mask.is_empty():
            rejections[i] = EmptyMask("cannot measure an empty mask")
        else:
            mx, my, mw, mh = det.mask.bbox()
            if not (x <= mx and y <= my and mx + mw <= x + w and my + mh <= y + h):
                rejections[i] = OutOfBounds(f"mask has pixels outside its bbox {list(det.bbox)}")
    live = [i for i, rejection in enumerate(rejections) if rejection is None]
    m = measure_fruit([dets[i].mask for i in live], depth, k)
    accepted, centers, front = [], [], []
    for j, i in enumerate(live):
        x, y, w, h = dets[i].bbox
        u2, v2 = 2 * x + w - 1, 2 * y + h - 1   # twice the bbox center, exact for any ints
        rejections[i] = m.rejections[j]
        if rejections[i] is None and not (0 <= u2 <= 2 * k.width - 2
                                          and 0 <= v2 <= 2 * k.height - 2):
            try:
                at = f"({u2 / 2},{v2 / 2})"
            except OverflowError:   # past the float range
                at = f"({u2}/2,{v2}/2)"
            rejections[i] = OutOfBounds(f"pixel {at} outside {k.width}x{k.height}")
        if rejections[i] is None:
            accepted.append(j)
            centers.append((u2 / 2, v2 / 2))
            # The front surface: the sampled mask pixel nearest the bbox center rounded half up.
            front.append(nearest_mask_depth(dets[i].mask, depth, Pixel(x + w // 2, y + h // 2)))
    warnings = _warnings(det_file, rejections)
    if not accepted:
        return RecordTable.concat([]), warnings

    u, v = np.array(centers).T
    front = np.array(front)
    radius = estimate_metric_radius(m.circle[accepted, 2], front, k)
    world = localize(Pixel(u, v), front, radius, k, cam.cam_to_world)
    rows = [live[j] for j in accepted]
    return RecordTable(
        [det_file.frame_id] * len(rows), [cam.camera_id] * len(rows), rows,
        [dets[i].class_name for i in rows], [dets[i].fruit_id for i in rows],
        m.height_mm[accepted], m.width_mm[accepted], m.median_depth_m[accepted],
        m.fill_ratio[accepted], m.circle[accepted], [[int(b) for b in dets[i].bbox] for i in rows],
        front, radius, world), warnings


def cmd_measure(
    bundle_dir: Path,
    out_dir: Optional[Path] = None,
    rig_path: Optional[Path] = None,
) -> Tuple[RecordTable, List[dict]]:
    """Measure every detection in a bundle; returns the table of records and
    the warnings, which ``out_dir`` receives as ``records.json``.

    Every ingested detection lands either in ``records`` or, with its
    rejection reason, in ``warnings`` — nothing is dropped silently.
    """
    t0 = time.perf_counter()
    bundle_dir = Path(bundle_dir)
    rig_path = Path(rig_path) if rig_path else bundle_dir / "rig.json"
    with fileio.input_hashes() as inputs:
        cameras = {c.camera_id: c for c in fileio.read_rig(rig_path)}

        det_dir = bundle_dir / "detections"
        if not det_dir.is_dir():
            raise BundleIOError(f"bundle has no detections directory: {det_dir}")
        paths = sorted(det_dir.glob("*.json"))
        det_files = [fileio.read_detections(p) for p in paths]
        file_of: Dict[Tuple[str, str], Path] = {}
        for path, f in zip(paths, det_files):
            seen = file_of.setdefault((f.camera_id, f.frame_id), path)
            if seen != path:
                raise BundleIOError(f"detections {seen} and {path} are both camera "
                                    f"{f.camera_id!r} frame {f.frame_id!r}")

        frames: List[RecordTable] = []
        warnings: List[dict] = []
        n_detections = 0
        unknown = sorted({f.camera_id for f in det_files} - set(cameras))
        if unknown:
            raise UnknownCamera(f"detections reference cameras {unknown} absent from rig")
        camera_order = list(cameras)
        for det_file in sorted(det_files,
                               key=lambda f: (camera_order.index(f.camera_id), f.frame_id)):
            cam = cameras[det_file.camera_id]
            if cam.intrinsics is None:
                raise BundleIOError(f"rig entry {cam.camera_id!r} has no intrinsics file")
            depth_path = bundle_dir / "depth" / f"{det_file.camera_id}_{det_file.frame_id}.pgm"
            depth = fileio.read_depth(depth_path)
            n_detections += len(det_file.detections)
            frame_records, frame_warnings = _measure_frame(det_file, depth, cam)
            frames.append(frame_records)
            warnings += frame_warnings

    records = RecordTable.concat(frames)
    if out_dir is not None:
        out_dir = Path(out_dir)
        fileio.write_records(out_dir / "records.json", records, warnings)
        manifest = {
            "bundle": {"path": str(bundle_dir)},
            "inputs": inputs,
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
    return records, warnings


def cmd_fuse(records_path: Path, rig_path: Path,
             out_path: Optional[Path] = None) -> FruitTable:
    """Dedup records across views by their stored world centers; pick the best
    view. Returns the fruit table of ``deduplicate``, which ``out_path``
    receives as ``fused.json``."""
    camera_order = fileio.read_camera_order(Path(rig_path))
    records = fileio.read_records(Path(records_path))
    unknown = sorted(set(records.camera_id) - set(camera_order))
    if unknown:
        raise UnknownCamera(f"records reference cameras {unknown} absent from rig")

    fruits = deduplicate(records, camera_order=camera_order)
    if out_path is not None:
        fileio.write_fused(Path(out_path), fruits, records)
    logger.info("fused %d records into %d fruits", len(records), len(fruits.radius_m))
    return fruits


def cmd_evaluate(
    fused_path: Path,
    records_path: Path,
    truth_path: Path,
    out_prefix: Optional[Path] = None,
) -> dict:
    """Per-camera and fused accuracy report against ground truth."""
    truth = fileio.read_ground_truth_csv(Path(truth_path))
    records = fileio.read_records(Path(records_path))
    chosen = fileio.read_fused_choices(Path(fused_path))

    report = evaluate_run(chosen, records, truth)
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
