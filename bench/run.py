"""Benchmark of the torelli calculator, end to end and per module.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in bench/workloads.py.  Each is a closed loop with
one client; a job is one user request (build or parse the config,
`run_job`, render the report) and every report is checked.

--trace 0 measures the end-to-end metrics:
  setup_s       median over fresh interpreters of: import torelli,
                generate the inputs, run the warm-up job
  jobs_per_s    jobs per second of job time in one repetition of the
                stated job list (median over repetitions)
  job_p50_ms    median job latency (median over repetitions)
  job_tail_ms   highest percentile with at least 10 jobs beyond it,
                or the slowest job when a repetition has 10 or fewer
  cold_p50_ms   median wall time of a fresh CLI process running a
                fixture command (interpreter start, import, job, render)
  cold_tail_ms  the same tail rule over those processes
  peak_rss_mb   peak resident set of this process
Repetitions run until the next one would overrun --seconds; there is
always at least one.

--trace 1 runs each job of one repetition twice, back to back: untraced
and traced (bench/tracing.py).  It prints the per-module metrics, the
import time of a fresh interpreter, and the tracing overhead (traced over
untraced job time).  The spans are written to .bench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import workloads as wl  # noqa: E402  (bench/ is the script directory)
from tracing import MODULES, Tracer, metric_names  # noqa: E402

SETUP_PROBES = 5
COLD_PROBES = 30
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 120
COLD_CODE = "from torelli.cli import entrypoint; entrypoint()"
IMPORT_CODE = ("import time; t = time.perf_counter(); import torelli; "
               "print(repr(time.perf_counter() - t))")

E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
             "job_tail_ms": "ms", "cold_p50_ms": "ms", "cold_tail_ms": "ms",
             "peak_rss_mb": "MB"}


class Tally:
    """Jobs attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, job: wl.Job, why: str | None):
        self.attempted += 1
        if why:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{job.key}: {why}")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _probe(argv: list[str]) -> str:
    """Run a helper interpreter to completion and return its stdout."""
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it, or the maximum when there are 10 samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_checked(job: wl.Job, torelli, digests, strict, tally: Tally) -> float:
    """Run and check one job; return its latency in seconds."""
    start = time.perf_counter()
    try:
        out = wl.run(job, torelli)
    except Exception as exc:  # a failing job is counted and the run goes on
        elapsed = time.perf_counter() - start
        tally.add(job, f"raised {exc!r}")
        return elapsed
    elapsed = time.perf_counter() - start
    tally.add(job, wl.check(job, out, digests, strict))
    return elapsed


def setup_probe(workload: wl.Workload, seed: int) -> float:
    """Seconds one fresh interpreter takes to set the workload up."""
    out = _probe([sys.executable, str(BENCH / "setup_probe.py"), workload.name, str(seed)])
    return float(out.split()[-1])


def cold_probe(job: wl.Job, digests, strict, tally: Tally) -> float:
    """Wall time of a fresh CLI process running one job; the report is checked."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_CODE, *job.cli_args()],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or proc.stderr:
        tally.add(job, f"exit {proc.returncode}, stderr {proc.stderr.strip()!r}")
    else:
        tally.add(job, wl.check(job, proc.stdout, digests, strict))
    return wall


def plain_run(workload: wl.Workload, seed: int, seconds: float, torelli, digests,
              strict: bool, tally: Tally) -> dict[str, dict]:
    rng, inputs = workload.inputs(seed)
    run_checked(workload.warmup(inputs), torelli, digests, strict, tally)

    # The set-up and cold-process probes are spread evenly over the timed
    # phase, so that every metric samples the same stretch of host load.
    cold_rng = random.Random(f"cold:{seed}")
    cold_pool = wl.WORKLOADS["fixture-jobs"].pool(None)
    probes = [cold_rng.choice(cold_pool) for _ in range(COLD_PROBES)]
    for i in range(SETUP_PROBES):
        probes.insert(i * (COLD_PROBES + SETUP_PROBES) // SETUP_PROBES, None)
    setups: list[float] = []
    cold: list[float] = []

    def run_probes(due: int):
        while len(setups) + len(cold) < due:
            job = probes[len(setups) + len(cold)]
            if job is None:
                setups.append(setup_probe(workload, seed))
            else:
                cold.append(cold_probe(job, digests, strict, tally))

    reps: list[list[float]] = []
    job_time = 0.0
    while True:
        latencies = []
        for job in workload.repetition(rng, inputs):
            latencies.append(run_checked(job, torelli, digests, strict, tally))
            job_time += latencies[-1]
            run_probes(min(len(probes), math.ceil(len(probes) * job_time / seconds)))
        reps.append(latencies)
        if job_time + sum(latencies) > seconds:
            break
    run_probes(len(probes))

    n = len(reps[0])
    job_tail = [tail(lat) for lat in reps]
    cold_tail = tail(cold)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": statistics.median(len(lat) / sum(lat) for lat in reps),
        "job_p50_ms": 1e3 * statistics.median(statistics.median(lat) for lat in reps),
        "job_tail_ms": 1e3 * statistics.median(v for v, _ in job_tail),
        "cold_p50_ms": 1e3 * statistics.median(cold),
        "cold_tail_ms": 1e3 * cold_tail[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh set-ups",
        "jobs_per_s": f"{n} jobs per repetition, median of {len(reps)} repetitions",
        "job_p50_ms": f"median of {len(reps)} repetitions",
        "job_tail_ms": f"p{job_tail[0][1]:.1f} of {n} jobs per repetition, "
                       f"median of {len(reps)} repetitions",
        "cold_p50_ms": f"{COLD_PROBES} fresh CLI processes, fixture commands",
        "cold_tail_ms": f"p{cold_tail[1]:.1f} of {COLD_PROBES} processes",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    for name, value in metrics.items():
        print(f"{name:14s} {value:12.4f} {E2E_UNITS[name]:4s}  ({notes[name]})")
    return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}


def traced_run(workload: wl.Workload, seed: int, torelli, digests, strict: bool,
               tally: Tally) -> dict[str, dict]:
    rng, inputs = workload.inputs(seed)
    run_checked(workload.warmup(inputs), torelli, digests, strict, tally)
    jobs = workload.repetition(rng, inputs)
    tracer = Tracer()

    def traced_job(job: wl.Job) -> float:
        tracer.install()
        try:
            return run_checked(job, torelli, digests, strict, tally)
        finally:
            tracer.uninstall()

    # Each job runs untraced and traced back to back, in alternating order,
    # so that both runs see the same host load and warm caches equally.
    untraced = traced = 0.0
    for tracer.job, job in enumerate(jobs):
        if tracer.job % 2:
            traced += traced_job(job)
        untraced += run_checked(job, torelli, digests, strict, tally)
        if not tracer.job % 2:
            traced += traced_job(job)
    imports = [float(_probe([sys.executable, "-c", IMPORT_CODE]).split()[-1])
               for _ in range(IMPORT_PROBES)]

    values = tracer.metrics()
    values["cli.import_s"] = statistics.median(imports)
    values["trace.overhead_ratio"] = traced / untraced
    units = dict(metric_names())
    units.update({"cli.import_s": "s", "trace.overhead_ratio": "ratio"})

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.tsv.gz"
    spans = tracer.write_spans(spans_path)

    print(f"traced {len(jobs)} jobs: {untraced:.3f} s untraced, {traced:.3f} s traced, "
          f"overhead {traced / untraced:.3f}x; {spans} spans in {spans_path.relative_to(ROOT)}")
    ranking = sorted((values[f"{m}.self_s"], m) for m in MODULES)
    print("module self time: " + ", ".join(f"{m} {s:.3f} s" for s, m in reversed(ranking)))
    for name, value in values.items():
        print(f"{name:48s} {value:14.6f} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def environment() -> str:
    return (f"Python {platform.python_version()}, "
            f"{len(os.sched_getaffinity(0))} usable CPUs, {platform.machine()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torelli" / "__init__.py").is_file():
        print(f"error: no torelli package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import torelli
    if not Path(torelli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported torelli from {torelli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]
    digests = wl.load_digests()
    strict = args.seed == wl.DEFAULT_SEED
    tally = Tally()
    print(f"# {environment()}")
    print(f"# workload {workload.name}, seed {args.seed}: {workload.why}")
    if args.trace:
        metrics = traced_run(workload, args.seed, torelli, digests, strict, tally)
    else:
        metrics = plain_run(workload, args.seed, args.seconds, torelli, digests,
                            strict, tally)
    print(f"failed_frac    {tally.failed / tally.attempted:12.4f} ratio "
          f"({tally.failed} of {tally.attempted} jobs)")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
