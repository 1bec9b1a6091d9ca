"""Closed-loop benchmark of the fruitgauge pipeline on three seeded workloads.

One caller in this process runs operations back to back: the next operation
starts only after the previous one has returned and its outputs have passed
the correctness gate. An operation calls only the package's public entry
points (``simulate.render_scene``, ``pipeline.write_bundle`` and
``pipeline.cmd_*``); the benchmark generates their inputs from the seed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from fruitgauge import fileio, pipeline, simulate
from fruitgauge.evaluation import GroundTruthRecord
from fruitgauge.geometry import (
    CameraIntrinsics,
    Point3,
    RigCamera,
    apply,
    compose,
    invert,
    project,
    translation_transform,
)

from tracing import Tracer

# An untraced run sets up in this many slots spread evenly over the loop, so
# that set-up is timed across the same stretch of host load as the operations.
# A slot repeats the set-up, each time after a full garbage collection, until
# it has taken this long; setup_s is the median of all the set-ups.
SETUP_SLOTS = 5
SETUP_SLOT_SECONDS = 0.5
FRAME_ID = simulate.DEFAULT_FRAME_ID


class GateError(Exception):
    """An operation's outputs failed the correctness gate."""


@dataclass
class Case:
    """One input of a workload and what a correct operation on it yields."""

    key: str
    truth_ids: List[str]
    bundle: Optional[Path] = None        # pre-rendered capture bundle
    records: Optional[Path] = None       # pre-generated records.json
    rig: Optional[Path] = None
    truth: Optional[Path] = None
    scene: Optional[simulate.SceneSpec] = None        # color cameras
    depth_scene: Optional[simulate.SceneSpec] = None  # offset depth sensors
    cameras: List[RigCamera] = field(default_factory=list)


def _measure_fuse_evaluate(bundle: Path, out: Path) -> None:
    pipeline.cmd_measure(bundle, out_dir=out)
    _fuse_evaluate(out / "records.json", bundle / "rig.json", bundle / "ground_truth.csv", out)


def _fuse_evaluate(records: Path, rig: Path, truth: Path, out: Path) -> None:
    pipeline.cmd_fuse(records, rig, out / "fused.json")
    pipeline.cmd_evaluate(out / "fused.json", records, truth, out / "report")


def _count_detections(bundle: Path) -> int:
    return sum(len(json.loads(p.read_text())["detections"])
               for p in (bundle / "detections").glob("*.json"))


class LabStream:
    """measure -> fuse -> evaluate on pre-rendered ``lab_scene`` bundles.

    The paper's setting: 640x480, ``paper_rig()``, 12 fruits, leaves before
    the bottom camera, depth noise. The 36 small masks per operation make
    per-detection costs in maskops and sizing dominate; no render, alignment
    or large dedup runs inside an operation.
    """

    name = "lab_stream"

    def __init__(self, seed: int, tiny: bool = False):
        pool = 1 if tiny else 16
        self.scene_seeds = [seed * pool + i for i in range(pool)]

    def setup(self, work: Path) -> List[Case]:
        cases = []
        for scene_seed in self.scene_seeds:
            spec = simulate.lab_scene(scene_seed)
            bundle = pipeline.write_bundle(simulate.render_scene(spec), work / f"scene{scene_seed}")
            cases.append(Case(f"scene{scene_seed}", [f.fruit_id for f in spec.fruits],
                              bundle=bundle))
        return cases

    def op(self, case: Case, out: Path) -> None:
        _measure_fuse_evaluate(case.bundle, out)

    def ingested(self, case: Case, out: Path) -> int:
        return _count_detections(case.bundle)

    def records_path(self, case: Case, out: Path) -> Path:
        return out / "records.json"


ORCHARD_K = CameraIntrinsics(1280, 720, 920.0, 920.0, 639.5, 359.5)
ORCHARD_K_TINY = CameraIntrinsics(640, 360, 460.0, 460.0, 319.5, 179.5)
# The depth sensor sits 15 mm beside each color camera, so every frame must be
# aligned, and the parallax behind the bottom camera's near leaves leaves some
# edges without depth (NoValidDepth rejections).
DEPTH_TO_COLOR = translation_transform(-0.015, 0.0, 0.0)


class OrchardHD:
    """render + write_bundle + measure -> fuse -> evaluate on a 1280x720 scene.

    Full-frame costs: RLE encode on write and decode on read, ``bbox``,
    ``extreme_points``, depth alignment and render, on 60 fruits (180
    detections) per operation, about a tenth of them rejected.
    """

    name = "orchard_hd"

    def __init__(self, seed: int, tiny: bool = False):
        pool = 1 if tiny else 10
        self.scene_seeds = [seed * pool + i for i in range(pool)]
        self.k = ORCHARD_K_TINY if tiny else ORCHARD_K
        self.n_fruits, self.columns = (10, 5) if tiny else (60, 10)

    def setup(self, work: Path) -> List[Case]:
        cases = []
        for scene_seed in self.scene_seeds:
            color_rig = simulate.paper_rig(self.k)
            spec = simulate.lab_scene(scene_seed, rig=color_rig, n_fruits=self.n_fruits,
                                      columns=self.columns, pitch_x=0.07, pitch_y=0.075)
            depth_rig = [RigCamera(c.camera_id, self.k, compose(c.cam_to_world, DEPTH_TO_COLOR))
                         for c in color_rig]
            cameras = [RigCamera(c.camera_id, self.k, c.cam_to_world, self.k, DEPTH_TO_COLOR)
                       for c in color_rig]
            cases.append(Case(f"scene{scene_seed}", [f.fruit_id for f in spec.fruits],
                              scene=spec, depth_scene=dataclasses.replace(spec, rig=depth_rig),
                              cameras=cameras))
        return cases

    def op(self, case: Case, out: Path) -> None:
        color = simulate.render_scene(case.scene)
        depth = simulate.render_scene(case.depth_scene)
        captures = [simulate.CameraCapture(cam, d.depth, c.masks)
                    for cam, c, d in zip(case.cameras, color.captures, depth.captures)]
        bundle = pipeline.write_bundle(simulate.CaptureBundle(captures, color.truth),
                                       out / "bundle")
        _measure_fuse_evaluate(bundle, out)

    def ingested(self, case: Case, out: Path) -> int:
        return _count_detections(out / "bundle")

    def records_path(self, case: Case, out: Path) -> Path:
        return out / "records.json"


WIDE_K = CameraIntrinsics(4000, 4000, 460.0, 460.0, 1999.5, 1999.5)
# Per-camera (height bias mm, width bias mm, fill-ratio range) of the generated
# records. It mirrors what lab_scene measures: the oblique top view has the
# best fill ratio, so fused selection picks it, but the level middle view has
# the best height.
CAMERA_ERRORS = {
    "top": (3.0, 0.5, (0.97, 0.995)),
    "middle": (0.0, 0.8, (0.93, 0.97)),
    "bottom": (1.5, 2.0, (0.80, 0.95)),
}
SIZE_NOISE_MM = 0.4


class Fuse8k:
    """fuse -> evaluate on 8,001 generated records of 2,667 fruits.

    Fruits sit on a jittered 3-D lattice whose pitch is about twice the
    fruit diameter, so clustering by radius separates them. Each record's
    bbox, circle and center depth are the forward projection of its fruit
    through ``paper_rig(WIDE_K)``, so ``cmd_fuse`` re-localizes it onto the
    fruit. O(n^2) ``fusion.deduplicate`` dominates; maskops, sizing, render
    and alignment do no work.
    """

    name = "fuse_8k"
    pitch_m = 0.05
    jitter_m = 0.006

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_fruits, self.lattice = (60, (5, 4, 3)) if tiny else (2667, (21, 16, 8))

    def _fruits(self, rng: np.random.Generator) -> List[GroundTruthRecord]:
        nx, ny, nz = self.lattice
        cells = itertools.islice(itertools.product(range(nz), range(ny), range(nx)),
                                 self.n_fruits)
        fruits = []
        for i, (iz, iy, ix) in enumerate(cells):
            jitter = rng.uniform(-self.jitter_m, self.jitter_m, size=3)
            center = Point3(float((ix - (nx - 1) / 2) * self.pitch_m + jitter[0]),
                            float((iy - (ny - 1) / 2) * self.pitch_m + jitter[1]),
                            float(simulate.RIG_TARGET.z + (iz - (nz - 1) / 2) * self.pitch_m
                                  + jitter[2]))
            fruits.append(GroundTruthRecord(f"fruit{i:04d}", float(rng.uniform(35.0, 44.0)),
                                            float(rng.uniform(42.0, 52.0)), center))
        return fruits

    def _record(self, cam: RigCamera, index: int, fruit: GroundTruthRecord,
                rng: np.random.Generator) -> dict:
        k = cam.intrinsics
        c = apply(invert(cam.cam_to_world), fruit.center_world)
        px = project(k, c)
        radius = (fruit.height_mm + fruit.width_mm) / 4000.0
        distance = math.sqrt(c.x * c.x + c.y * c.y + c.z * c.z)
        front_depth = c.z * (distance - radius) / distance  # z of the front surface
        w = max(3, int(round(fruit.width_mm / 1000.0 * k.fx / front_depth)))
        h = max(3, int(round(fruit.height_mm / 1000.0 * k.fy / front_depth)))
        x = int(round(px.u - (w - 1) / 2))
        y = int(round(px.v - (h - 1) / 2))
        height_bias, width_bias, fill_range = CAMERA_ERRORS[cam.camera_id]
        return {
            "frame_id": FRAME_ID,
            "camera_id": cam.camera_id,
            "detection_index": index,
            "class": "fully_ripened",
            "fruit_id": fruit.fruit_id,
            "height_mm": fruit.height_mm + height_bias + float(rng.normal(0.0, SIZE_NOISE_MM)),
            "width_mm": fruit.width_mm + width_bias + float(rng.normal(0.0, SIZE_NOISE_MM)),
            "median_depth_m": front_depth,
            "fill_ratio": float(rng.uniform(*fill_range)),
            "circle": {"cu": float(px.u), "cv": float(px.v),
                       "r_px": radius * k.fx / front_depth},
            "bbox": [x, y, w, h],
            "center_depth_m": front_depth,
            "edge_margin_px": min(x, y, k.width - x - w, k.height - y - h),
            "radius_m": radius,
            "center_world_m": list(fruit.center_world),
        }

    def setup(self, work: Path) -> List[Case]:
        rng = np.random.default_rng(self.seed)
        fruits = self._fruits(rng)
        rig = simulate.paper_rig(WIDE_K)
        records = [self._record(cam, i, fruit, rng)
                   for cam in rig for i, fruit in enumerate(fruits)]
        fileio.dump_json({"records": records, "warnings": []}, work / "records.json")
        fileio.write_rig(work / "rig.json", rig)
        # Plain floats: write_ground_truth_csv writes repr(), which a numpy 2
        # scalar turns into text read_ground_truth_csv rejects.
        fileio.write_ground_truth_csv(work / "ground_truth.csv", fruits)
        return [Case(f"seed{self.seed}", [f.fruit_id for f in fruits],
                     records=work / "records.json", rig=work / "rig.json",
                     truth=work / "ground_truth.csv")]

    def op(self, case: Case, out: Path) -> None:
        _fuse_evaluate(case.records, case.rig, case.truth, out)

    def ingested(self, case: Case, out: Path) -> int:
        return 3 * self.n_fruits

    def records_path(self, case: Case, out: Path) -> Path:
        return case.records


WORKLOADS = {w.name: w for w in (LabStream, OrchardHD, Fuse8k)}


def _parse(path: Path):
    try:
        return json.loads(path.read_bytes())
    except (OSError, ValueError) as e:
        raise GateError(f"{path.name} does not parse: {e}") from e


@dataclass
class Checked:
    """What the gate read from one operation's outputs."""

    hashes: Dict[str, str]   # sha256 per output file
    report: dict
    n_records: int
    n_fused: int
    fallback_splits: List[str]  # truth fruits split by the known defect


def check_outputs(case: Case, out: Path, records_path: Path, n_ingested: int) -> Checked:
    """Correctness gate of one operation.

    Every ingested detection lands in ``records`` or ``warnings``, every
    record in exactly one fused fruit, no fused fruit holds views of two
    truth fruits, every truth fruit is chosen by exactly one fused fruit, and
    the report's fused row matches every fused fruit.

    One split passes, because it is a known defect of ``cmd_fuse``: a view
    with no depth at its bbox center (``center_depth_m`` 0) is localized from
    its edge median depth instead, lands about a radius behind the fruit and
    can form a cluster of its own. A truth fruit chosen by several fused
    fruits passes only if all of them but one hold nothing but such views; it
    is listed in ``fallback_splits`` and counted by ``fused_per_truth``. Any
    other split fails the gate.
    """
    paths = {"records.json": records_path, "fused.json": out / "fused.json",
             "report.json": out / "report.json"}
    docs = {name: _parse(path) for name, path in paths.items()}
    records = docs["records.json"]["records"]
    warnings = docs["records.json"]["warnings"]
    if len(records) + len(warnings) != n_ingested:
        raise GateError(f"{n_ingested} detections ingested but {len(records)} records "
                        f"and {len(warnings)} warnings written")
    fruits = docs["fused.json"]["fruits"]
    if sum(f["n_views"] for f in fruits) != len(records):
        raise GateError("fused fruits do not hold every record exactly once")
    for fruit in fruits:
        ids = {m["fruit_id"] for m in fruit["members"]}
        if ids != {fruit["chosen"]["fruit_id"]}:
            raise GateError(f"one fused fruit merges views of {sorted(ids)}")
    chosen = Counter(f["chosen"]["fruit_id"] for f in fruits)
    if set(chosen) != set(case.truth_ids):
        raise GateError(f"fused fruits miss {sorted(set(case.truth_ids) - set(chosen))} "
                        f"and add {sorted(set(chosen) - set(case.truth_ids))}")
    fallback_splits = []
    for fruit_id in sorted(fruit_id for fruit_id, n in chosen.items() if n > 1):
        with_center_depth = [f for f in fruits if f["chosen"]["fruit_id"] == fruit_id
                             and any(m["center_depth_m"] for m in f["members"])]
        if len(with_center_depth) > 1:
            raise GateError(f"{fruit_id} is split into {chosen[fruit_id]} fused fruits")
        fallback_splits.append(fruit_id)
    fused_rows = [r for r in docs["report.json"]["rows"] if r["camera_id"] == "fused"]
    if len(fused_rows) != 1 or fused_rows[0]["n"] != len(fruits):
        raise GateError("the report's fused row does not cover every fused fruit")
    return Checked(
        hashes={name: hashlib.sha256(path.read_bytes()).hexdigest()
                for name, path in paths.items()},
        report=docs["report.json"],
        n_records=len(records),
        n_fused=len(fruits),
        fallback_splits=fallback_splits,
    )


def _pooled_rmse(rows: List[dict], dimension: str) -> float:
    """RMSE over the union of the rows' matched pairs."""
    n = sum(r["n"] for r in rows if r[dimension] is not None)
    return math.sqrt(sum(r["n"] * r[dimension]["rmse_mm"] ** 2
                         for r in rows if r[dimension] is not None) / n)


def accuracy_metrics(reports: List[dict]) -> Dict[str, float]:
    """Fused accuracy and selection regret, pooled over one report per case."""
    by_camera: Dict[str, List[dict]] = {}
    for report in reports:
        for row in report["rows"]:
            if row["n"]:
                by_camera.setdefault(row["camera_id"], []).append(row)
    fused = by_camera.pop("fused")
    fused_height = _pooled_rmse(fused, "height")
    best_camera = min(_pooled_rmse(rows, "height") for rows in by_camera.values())
    return {
        "fused_height_rmse_mm": fused_height,
        "fused_width_rmse_mm": _pooled_rmse(fused, "width"),
        "selection_regret_height_mm": fused_height - best_camera,
    }


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var)
                    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _set_up(workload, work: Path, times: List[float]) -> List[Case]:
    """One set-up slot: set up into ``work`` until the slot has taken
    SETUP_SLOT_SECONDS, append each set-up's time to ``times``."""
    spent = 0.0
    while spent < SETUP_SLOT_SECONDS:
        shutil.rmtree(work, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        cases = workload.setup(work)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return cases


def run(name: str, seed: int, seconds: float, trace: bool, work_root: Path,
        tiny: bool = False) -> Tuple[dict, dict]:
    """Set up, run the closed loop for ``seconds``, return (result, info).

    The loop runs at least one operation per case so that every case is
    checked and the accuracy metrics always cover the same inputs.
    """
    workload = WORKLOADS[name](seed, tiny=tiny)
    work = work_root / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    try:
        setup_s: List[float] = []
        cases = _set_up(workload, work / "setup", setup_s)
        slots = 1 if tracer else SETUP_SLOTS  # the traced run reports no setup_s
        slots_done = 1

        op_s: Dict[int, float] = {}
        rates: List[float] = []
        first: Dict[str, Checked] = {}  # the first passing op on each case
        ingested = 0
        errors: List[str] = []
        out = work / "op"
        attempted = 0
        with tracer.installed() if tracer else nullcontext():
            start = time.perf_counter()
            while attempted < len(cases) or time.perf_counter() - start < seconds:
                looped = time.perf_counter() - start
                if slots_done < slots and looped >= slots_done * seconds / slots:
                    paused = time.perf_counter()
                    cases = _set_up(workload, work / "setup", setup_s)
                    slots_done += 1
                    start += time.perf_counter() - paused  # set-up is not loop time
                case = cases[attempted % len(cases)]
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir(parents=True)
                op_id = attempted
                attempted += 1
                if tracer:
                    tracer.op = op_id
                try:
                    t0 = time.perf_counter()
                    workload.op(case, out)
                    elapsed = time.perf_counter() - t0
                    n = workload.ingested(case, out)
                    checked = check_outputs(case, out, workload.records_path(case, out), n)
                    if case.key not in first:
                        first[case.key] = checked
                        ingested += n
                    elif checked.hashes != first[case.key].hashes:
                        raise GateError(f"outputs on {case.key} differ from its first run")
                except Exception:  # an op that raises or fails the gate is counted, not fatal
                    errors.append(traceback.format_exc())
                    continue
                op_s[op_id] = elapsed
                rates.append(n / elapsed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(errors)
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "cases": [c.key for c in cases],
        "ops": attempted,
        "setup_seconds": [round(t, 6) for t in setup_s],
        "op_seconds": [round(t, 6) for t in op_s.values()],
        "sha256": {key: checked.hashes for key, checked in first.items()},
        "fallback_splits": {key: checked.fallback_splits for key, checked in first.items()
                            if checked.fallback_splits},
        "errors": errors[:3],
    }
    metrics: Dict[str, dict] = {}
    if tracer and op_s:
        layers = tracer.layer_table(attempted)
        unaccounted = tracer.unaccounted(op_s)
        for layer, row in layers.items():
            for key, value in row.items():
                unit = "s/op" if key == "self_s" else f"{key}/op"
                metrics[f"{layer}.{key}"] = {"value": value, "unit": unit}
        metrics["trace.op_p50_s"] = {"value": statistics.median(op_s.values()), "unit": "s"}
        metrics["trace.unaccounted_s"] = {"value": statistics.median(unaccounted.values()),
                                          "unit": "s/op"}
        trace_path = work_root / "trace" / f"{name}-seed{seed}.json"
        tracer.write(trace_path, layers, unaccounted, list(op_s.values()))
        info["trace_file"] = str(trace_path)
    elif op_s:
        values = {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_p50_s": (statistics.median(op_s.values()), "s"),
            "throughput_dets_per_s": (statistics.median(rates), "dets/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        if len(first) == len(cases):
            firsts = list(first.values())
            values["accepted_fraction"] = (sum(c.n_records for c in firsts) / ingested,
                                           "fraction")
            values["fused_per_truth"] = (sum(c.n_fused for c in firsts)
                                         / sum(len(c.truth_ids) for c in cases), "ratio")
            values.update({key: (value, "mm") for key, value in
                           accuracy_metrics([c.report for c in firsts]).items()})
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()}
    correct = failed == 0 and len(first) == len(cases)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info
