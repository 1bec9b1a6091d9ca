"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload lab_stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Scratch files go to ``.perfbench_work/`` in the checkout and are removed at
the end, except the traced run's span file under ``.perfbench_work/trace/``.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy is first imported, so that only the
    # calling thread does work.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "fruitgauge" / "__init__.py").is_file():
        print(f"perfbench: no fruitgauge sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import fruitgauge
    import harness

    if not Path(fruitgauge.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported fruitgauge from {fruitgauge.__file__}, not {src}",
              file=sys.stderr)
        return 2

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    result, info = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               ROOT / ".perfbench_work")
    for error in info["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
