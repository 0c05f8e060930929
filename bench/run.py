"""Benchmark of nbkemeny's public entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
``src/`` directory, and the run exits 2 without a result when it is not
there. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (names and units in BENCHMARK.json). The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it holds machine and library metadata. The
full result, and the spans of a traced run, go to ``bench/out/``. A silent
wrong answer, or work counts that do not repeat, make the run exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("compute-exact", "compute-float", "census-n8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of nbkemeny's public entry points.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    # one caller on a small machine: at these matrix sizes two OpenBLAS
    # threads ran float work slower and spread its times 3x wider
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import nbkemeny
    except ImportError as exc:
        print(f"error: cannot import nbkemeny from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(nbkemeny.__file__).resolve().is_relative_to(SRC):
        print(f"error: nbkemeny came from {nbkemeny.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    return workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
