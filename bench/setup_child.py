"""One measured set-up, run in a fresh process by the benchmark.

Imports ``cate_al``, generates the workload's data and writes its config,
which is everything a workload does before its first cell starts. Prints
the import and generation seconds as one JSON line.
"""

import json
import sys
import time

if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter()
    import cate_al  # noqa: F401  (the import is what is timed)
    import workloads

    t1 = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    if sys.argv[4:] == ["quick"]:
        workload = workload.quick()
    workload.prepare(seed, out_dir)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "generate_s": t2 - t1}))
