"""Self-test of the benchmark itself.

Checks that:
  - the correctness gate rejects wrong reports;
  - run.py reports exactly the workloads and metrics BENCHMARK.json declares;
  - two traced runs with the same seed give identical work counts;
  - run.py exits non-zero, printing no result, when the program is absent.

Usage, from the root of a checkout:

    python3 bench/selftest.py [WORKLOAD ...]     (default: every workload)
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import torelli  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7
TIMED_STATS = ("self_s", "import_s", "overhead_ratio")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_gate_rejects_wrong_reports():
    digests = wl.load_digests()
    act = wl.Job("act", "text", fixture="paper-figure-1")
    audit = wl.Job("audit", "json", genus=4)
    for job in (act, audit):
        out = wl.run(job, torelli)
        assert wl.check(job, out, digests, True) is None, job.key
        assert wl.check(job, out + " ", digests, True) is not None, job.key
        assert wl.check(job, out, {}, True) is not None, job.key
    out = wl.run(act, torelli)
    assert wl.check(act, out.replace("a2·a3", "a2·a2"), {}, False)
    assert wl.check(act, out.replace("status: PASS", "status: FAIL"), {}, False)
    out = wl.run(audit, torelli)
    assert wl.check(audit, out.replace('"projector_rank": 48', '"projector_rank": 47'), {}, False)


def test_declared_metrics(traced: dict, plain: dict):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: w.why for name, w in wl.WORKLOADS.items()}
    want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    got = {name: m["unit"] for name, m in traced["metrics"].items()}
    assert got == want, sorted(set(got) ^ set(want))
    assert [n for n, _ in tracing.metric_names()] == [
        n for n in got if n not in ("cli.import_s", "trace.overhead_ratio")]
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = {name: m["unit"] for name, m in plain["metrics"].items()}
    assert got == want, sorted(set(got) ^ set(want))


def test_counts_repeat(workload: str) -> dict:
    first, second = (result(bench("--workload", workload, "--seed", str(SEED),
                                  "--seconds", "1", "--trace", "1")) for _ in range(2))
    assert first["correct"] and second["correct"], workload
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if not name.endswith(TIMED_STATS)}
    again = {name: m["value"] for name, m in second["metrics"].items()
             if not name.endswith(TIMED_STATS)}
    differ = [name for name in counts if counts[name] != again[name]]
    assert not differ, f"{workload}: counts differ: {differ}"
    return first


def test_fails_without_program():
    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "fixture-jobs", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=Path(tmp))
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    names = sys.argv[1:] or list(wl.WORKLOADS)
    test_gate_rejects_wrong_reports()
    print("ok: the gate rejects wrong reports")
    traced = None
    for name in names:
        traced = test_counts_repeat(name)
        print(f"ok: {name}: work counts repeat for seed {SEED}")
    plain = result(bench("--workload", "fixture-jobs", "--seed", str(SEED),
                         "--seconds", "1", "--trace", "0"))
    test_declared_metrics(traced, plain)
    print("ok: run.py reports the metrics BENCHMARK.json declares")
    test_fails_without_program()
    print("ok: run.py fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
