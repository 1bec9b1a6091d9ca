"""fruitgauge command line: calibrate / measure / fuse / evaluate / simulate.

Exit codes: 0 success, 1 validation or domain error, 2 I/O or file-format
error. ``FRUITGAUGE_LOG`` sets the log level (DEBUG/INFO/WARNING/...).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .errors import BundleIOError, FruitGaugeError
from .pipeline import (
    PipelineConfig,
    cmd_calibrate,
    cmd_evaluate,
    cmd_fuse,
    cmd_measure,
    cmd_simulate,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fruitgauge",
        description="Multi-view RGBD fruit size measurement pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="solve rig extrinsics from board poses")
    p.add_argument("--poses", required=True, type=Path, help="board pose observations JSON")
    p.add_argument("--anchor", default=None, help="camera id that defines the world frame")
    p.add_argument("-o", "--out", required=True, type=Path, help="output rig JSON")

    p = sub.add_parser("measure", help="measure every detection in a bundle")
    p.add_argument("--bundle", required=True, type=Path, help="capture bundle directory")
    p.add_argument("--rig", type=Path, default=None, help="rig JSON (default: bundle/rig.json)")
    p.add_argument("--config", type=Path, default=None, help="pipeline config JSON")
    p.add_argument("-o", "--out", required=True, type=Path, help="output directory")

    p = sub.add_parser("fuse", help="dedup records across views, pick best view")
    p.add_argument("--records", required=True, type=Path)
    p.add_argument("--rig", required=True, type=Path)
    p.add_argument("-o", "--out", required=True, type=Path, help="output fused JSON")

    p = sub.add_parser("evaluate", help="compare against ground truth")
    p.add_argument("--fused", required=True, type=Path)
    p.add_argument("--records", required=True, type=Path)
    p.add_argument("--truth", required=True, type=Path, help="ground truth CSV")
    p.add_argument("--matching", default="auto", choices=["auto", "fruit_id", "center"])
    p.add_argument("-o", "--out", required=True, type=Path,
                   help="report prefix (writes <out>.json and <out>.txt)")

    p = sub.add_parser("simulate", help="render a synthetic scene into a bundle")
    p.add_argument("--scene", required=True, type=Path, help="scene spec JSON")
    p.add_argument("-o", "--out", required=True, type=Path, help="output bundle directory")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("FRUITGAUGE_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "calibrate":
            cmd_calibrate(args.poses, args.anchor, args.out)
        elif args.command == "measure":
            config = PipelineConfig.load(args.config)
            cmd_measure(args.bundle, config, args.out, rig_path=args.rig)
        elif args.command == "fuse":
            cmd_fuse(args.records, args.rig, args.out)
        elif args.command == "evaluate":
            cmd_evaluate(args.fused, args.records, args.truth, args.out, args.matching)
        elif args.command == "simulate":
            cmd_simulate(args.scene, args.out)
    except (BundleIOError, OSError) as e:
        print(f"fruitgauge: i/o error: {e}", file=sys.stderr)
        return 2
    except FruitGaugeError as e:
        print(f"fruitgauge: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
