"""Benchmark entry point; run it from the root of a source checkout.

    python3 perfbench/run.py --workload fit-qh --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The program is
imported from ``src/`` of the checkout this file sits in; without it the
run prints no result and exits with code 1.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import icrf from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "icrf", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/icrf")
    sys.path.insert(0, SRC)
    import icrf

    if os.path.dirname(os.path.dirname(os.path.abspath(icrf.__file__))) != SRC:
        raise SystemExit(f"error: icrf imported from {icrf.__file__}, not {SRC}")
    return icrf


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for smoke tests")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    icrf = import_program()
    import_s = time.perf_counter() - t0  # this process's own set-up sample
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    # the run's --seconds count from its start, set-up included
    result = workloads.execute(
        icrf, import_s, SRC, w, args.seed, t0 + args.seconds, bool(args.trace),
        small=args.tiny, setup_count=2 if args.tiny else workloads.SETUP_SAMPLES,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
