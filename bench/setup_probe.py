"""Time one benchmark set-up in a fresh interpreter.

Set-up is: import torelli, generate the workload's inputs from the seed,
and run the warm-up job.  Prints the seconds taken; exits 1 if the
warm-up report fails its checks.

Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

start = time.perf_counter()

import os  # noqa: E402  (the clock starts before any import)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import torelli  # noqa: E402
import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
workload = workloads.WORKLOADS[name]
_, inputs = workload.inputs(seed)
job = workload.warmup(inputs)
out = workloads.run(job, torelli)
elapsed = time.perf_counter() - start
why = workloads.check(job, out, workloads.load_digests(),
                      seed == workloads.DEFAULT_SEED)
if why:
    print(f"warm-up job {job.key!r} failed: {why}", file=sys.stderr)
    sys.exit(1)
print(repr(elapsed))
