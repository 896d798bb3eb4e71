#!/usr/bin/env python3
"""Closed-loop benchmark of fdqme, from generated config to files on disk.

Run from the repository root:

    python3 benchmarks/run.py --workload spectra --seed 1 --seconds 15 --trace 0

Workloads: spectra, sweeps, validation, kernels (see workloads.py).  The
program is imported from ``src/`` next to this directory and nowhere else;
without it the benchmark exits with status 2 and prints no result.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report, and a
full record (environment, per-item outcomes, CSV SHA-256 digests, spans) is
written under ``.bench-results/``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "fdqme" / "__init__.py").is_file():
        print(f"error: program source not found at {src}", file=sys.stderr)
        return 2
    # One client thread and single-threaded BLAS, whatever the environment
    # says: on a shared 2-core machine a second BLAS thread made the
    # run-to-run spread of spectra several times wider.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # compile the checkout's sources on every run and leave no bytecode behind
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import harness

    return harness.main(sys.argv[1:], T_START, src)


if __name__ == "__main__":
    sys.exit(main())
