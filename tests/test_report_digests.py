"""Every default-seed benchmark report stays byte-identical to its recorded digest.

`bench/workloads.py` names each job a workload can issue with the
default seed, and `bench/digests.json` holds the SHA-256 of each report.
This runs every such job in-process and passes its report through the
benchmark's own correctness gate, with a digest required.  The bench
files are loaded by path and only read.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import torelli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


wl = load_workloads()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_default_seed_reports_match_digests(name):
    workload = wl.WORKLOADS[name]
    digests = wl.load_digests()
    _, inputs = workload.inputs(wl.DEFAULT_SEED)
    pool = workload.pool(inputs)
    assert pool
    for job in pool:
        out = wl.run(job, torelli)
        assert wl.check(job, out, digests, require_digest=True) is None, job.key
