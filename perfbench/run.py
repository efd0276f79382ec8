"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload moons_tu --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/`. The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`. The line before it gives
the raw (not host-normalised) figures. The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One BLAS thread: on these small matrices a second OpenBLAS thread spins and
# burns CPU without saving wall time. Set before numpy is first imported.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctdr" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'ctdr'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload].with_seed(args.seed)
    result = bench.run(w, args.seconds, bool(args.trace))
    print("raw " + json.dumps(result["raw"], sort_keys=True))
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for error in result["errors"]:
        print(f"perfbench: operation failed: {error}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    os.environ.update(BLAS_PIN)
    sys.exit(main())
