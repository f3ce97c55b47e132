#!/usr/bin/env python3
"""Run one minplus benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from the ``src`` directory next to this one, so the
benchmark runs against the checkout it sits in; without ``src/minplus`` it
exits with code 2 and prints no result.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  The exit code is 0 only when every timed solve matched the
naive oracle.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is first imported.  Returns the setting."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_library() -> float:
    """Put ``src`` first on the import path, import every module the
    workloads call, and return the seconds that took."""
    if not os.path.isfile(os.path.join(SRC, "minplus", "__init__.py")):
        raise FileNotFoundError(f"no minplus package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import minplus.cli  # noqa: F401  (also imports numpy and the core)
    import minplus.generators  # noqa: F401

    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = pin_blas_threads()
    try:
        import_s = import_library()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    return bench.run(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        import_s=import_s,
        blas_threads=blas_threads,
        out_dir=os.path.join(ROOT, ".perfbench"),
    )


if __name__ == "__main__":
    sys.exit(main())
