"""Benchmark entry point: run one workload of consopt from this checkout.

    python3 bench/run.py --workload quad-smooth --seed 1 --seconds 38 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only if every output check passed.

BLAS is pinned to one thread before NumPy is imported.  The package is
imported from ``src/`` next to this directory and from nowhere else, so the
benchmark refuses to run where those sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("quad-smooth", "logistic-l1", "flow-restart")
M_MMAP_THRESHOLD = -3  # mallopt parameter, from glibc's malloc.h


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_mmap_threshold():
    """Serve every allocation of 128 KiB or more by mmap, as glibc does at
    start-up.  By default glibc raises that threshold whenever such a block
    is freed, so whether a 200x200 matrix is page-aligned would depend on
    what the process allocated before."""
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None)
        libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    pin_mmap_threshold()
    if not (SRC / "consopt" / "__init__.py").is_file():
        print(f"error: consopt sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import consopt

    if Path(consopt.__file__).resolve().parent != SRC / "consopt":
        print(f"error: imported consopt from {consopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import run

    return run(args.workload, args.seed, args.seconds, bool(args.trace), HERE / "out" / args.workload)


if __name__ == "__main__":
    sys.exit(main())
