"""One set-up sample in a fresh interpreter: import wflow, then one warm-up job per class.

Usage: python3 bench/setup_probe.py WORKLOAD
Prints {"setup_s": ..., "import_s": ...}.  Input generation is excluded.
"""

import json
import shutil
import sys
from time import perf_counter

import harness

harness.pin_threads()


def main(name):
    t0 = perf_counter()
    wf = harness.load_wflow()
    import_s = perf_counter() - t0

    import workloads

    tmp = harness.scratch_dir("setup")
    try:
        total = import_s
        for job in workloads.WORKLOADS[name].warmup(wf, {"tmp": tmp}):
            t = perf_counter()
            job.run("warmup")
            total += perf_counter() - t
            job.cleanup()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"setup_s": total, "import_s": import_s}))


if __name__ == "__main__":
    main(sys.argv[1])
