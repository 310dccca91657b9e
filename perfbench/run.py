"""Run one benchmark workload.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
the same checkout.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("serve-warm", "long-solve", "shift-sweep")
#: One BLAS/OpenMP thread: the client is single-threaded and nproc is small.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy is imported anywhere.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    import measure

    if args.trace:
        result, detail = measure.measure_traced(
            args.workload, args.seed, args.seconds, ROOT / ".bench_out"
        )
    else:
        result, detail = measure.measure(args.workload, args.seed, args.seconds)
    measure.report(result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
