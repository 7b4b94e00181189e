"""Time one set-up in a fresh process: ``import icrf`` plus generating a
workload's inputs. Prints one JSON object.

    python3 perfbench/setup_probe.py SRC WORKLOAD SEED [--tiny]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402


def main(argv):
    src, name, seed = argv[0], argv[1], int(argv[2])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import icrf

    import_s = time.perf_counter() - t0
    import workloads

    w = workloads.WORKLOADS[name]
    if "--tiny" in argv:
        w = workloads.tiny(w)
    _, sample = workloads.timed_setup(icrf, import_s, w, seed)
    print(json.dumps(sample))


if __name__ == "__main__":
    main(sys.argv[1:])
