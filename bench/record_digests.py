"""Record the report digests that the correctness gate compares against.

Runs every job that any workload can issue with the default seed, in
both formats, and writes the SHA-256 of each report to
bench/digests.json.  Run it only on a commit whose reports are known to
be right; the benchmark then flags any later change in report bytes.

Usage, from the root of a checkout: python3 bench/record_digests.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import torelli  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    digests = {}
    for workload in wl.WORKLOADS.values():
        _, inputs = workload.inputs(wl.DEFAULT_SEED)
        for job in workload.pool(inputs):
            out = wl.run(job, torelli)
            why = wl.check(job, out, {}, require_digest=False)
            if why:
                print(f"{job.key}: {why}", file=sys.stderr)
                return 1
            digests[job.key] = wl.sha256(out)
            print(f"{workload.name}: {job.key}")
    with open(wl.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {wl.DIGESTS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
