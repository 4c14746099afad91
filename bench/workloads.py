"""Seeded job streams for the torelli benchmark, and the checks on their reports.

A job is one user request: build or parse a config, run it with
`run_job`, and render the report as text or JSON.  Every workload is a
closed loop with one client: the next job starts only after the previous
one has returned.  All inputs are generated from the workload seed; the
program only ever sees the generated flags and config text.

This module imports nothing from torelli, so the set-up probe can time
the package import itself.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

FORMATS = ("text", "json")
DEFAULT_SEED = 0
# Jobs per genus in one cycle.  One genus is the most frequent, so the
# median job of a repetition is one of several like jobs rather than a
# single sample.  For audit that genus is 7: its jobs (3-4 s) average over
# the swings in host speed, where genus-5 and genus-6 jobs (0.3 s, 1.2 s)
# left the median too unsteady between runs.
AUDIT_JOBS_PER_GENUS = {3: 1, 4: 1, 5: 1, 6: 1, 7: 5}
INVARIANT_SEEDS_PER_GENUS = {3: 2, 4: 5, 5: 3}
DIGESTS_PATH = Path(__file__).with_name("digests.json")

FIXTURES = ("paper-figure-1", "genus4-split")
FIXTURE_COMMANDS = ("act", "johnson", "decompose", "forms")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Job:
    """One user request.  `fmt` is None in a task whose format is drawn per cycle."""

    command: str
    fmt: str | None = None
    fixture: str | None = None
    genus: int | None = None
    seed: int | None = None
    config_name: str | None = None
    config_text: str | None = None

    @property
    def key(self) -> str:
        """CLI-like identity of the job; also its key in the digest table."""
        parts = [self.command]
        if self.fixture is not None:
            parts += ["--fixture", self.fixture]
        if self.genus is not None:
            parts += ["--genus", str(self.genus)]
        if self.seed is not None:
            parts += ["--seed", str(self.seed)]
        if self.config_text is not None:
            parts += ["--config", f"{self.config_name}@{sha256(self.config_text)[:16]}"]
        return " ".join(parts + ["--format", self.fmt])

    def cli_args(self) -> list[str]:
        """Arguments of the equivalent `torelli` command; flag-only jobs."""
        if self.config_text is not None:
            raise ValueError("a job given as config text has no flag-only command line")
        return self.key.split()


def run(job: Job, torelli) -> str:
    """Run one job in-process through the public entry points; return the report."""
    if job.config_text is not None:
        cfg = torelli.config.parse_config(job.config_text)
    else:
        cfg = torelli.cli.build_config(job.command, fixture=job.fixture,
                                       genus=job.genus, seed=job.seed)
    report = torelli.cli.run_job(cfg)
    return report.to_json() if job.fmt == "json" else report.to_text()


# --- correctness gate -------------------------------------------------------

def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _fields(job: Job, out: str) -> dict:
    """The report fields the gate looks at, read from the rendered bytes."""
    if job.fmt == "json":
        data = json.loads(out)
        outputs = data["outputs"]
        variation = outputs.get("variation") or {}
        return {"status": data["status"],
                "projector_rank": outputs.get("projector_rank"),
                "isotropic_rank": outputs.get("isotropic_rank"),
                "classification": outputs.get("classification"),
                "sym2": variation.get("sym2")}
    found = {"status": None, "projector_rank": None, "isotropic_rank": None,
             "classification": None, "sym2": None}
    patterns = {"status": r"^status: (\S+)$",
                "projector_rank": r"^  projector_rank: (\d+)$",
                "isotropic_rank": r"^  isotropic_rank: (\d+)$",
                "classification": r"^  classification: (\S+)$",
                "sym2": r"^    sym2: (.*)$"}
    for name, pattern in patterns.items():
        m = re.search(pattern, out, re.MULTILINE)
        if m:
            found[name] = int(m.group(1)) if name.endswith("rank") else m.group(1)
    return found


def check(job: Job, out: str, digests: dict[str, str], require_digest: bool) -> str | None:
    """Return why a report is wrong, or None when it passes every check.

    Every report must have status PASS.  An audit's two ranks must equal
    C(2g,3) - 2g.  `act` on paper-figure-1 must move the top class by
    a2·a3.  Dense decompose inputs must classify as MIXED.  A report whose
    key has a recorded digest must match it byte for byte; with the
    default seed every key must have one.
    """
    try:
        f = _fields(job, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if f["status"] != "PASS":
        return f"status {f['status']}"
    if job.command == "audit":
        g = job.genus
        want = comb(2 * g, 3) - 2 * g
        if not f["projector_rank"] == f["isotropic_rank"] == want:
            return (f"audit ranks {f['projector_rank']}/{f['isotropic_rank']}, "
                    f"expected {want}")
    if job.command == "act" and job.fixture == "paper-figure-1":
        if f["sym2"] != "a2·a3" or f["classification"] != "NONTRIVIAL":
            return f"act variation {f['sym2']!r} {f['classification']}"
    if job.command == "decompose" and job.config_text is not None:
        if f["classification"] != "MIXED":
            return f"dense input classified {f['classification']}"
    want = digests.get(job.key)
    if want is None:
        return "no recorded digest for the default seed" if require_digest else None
    if sha256(out) != want:
        return "report bytes differ from the recorded digest"
    return None


# --- workloads --------------------------------------------------------------

def _fixture_tasks(inputs) -> list[Job]:
    return [Job(command, fmt, fixture=fx)
            for fx in FIXTURES for command in FIXTURE_COMMANDS for fmt in FORMATS]


def _audit_tasks(inputs) -> list[Job]:
    return [Job("audit", genus=g) for g, n in AUDIT_JOBS_PER_GENUS.items() for _ in range(n)]


def _invariants_inputs(rng: random.Random) -> dict[int, list[int]]:
    return {g: [rng.randrange(1, 2**31) for _ in range(n)]
            for g, n in INVARIANT_SEEDS_PER_GENUS.items()}


def _invariants_tasks(inputs) -> list[Job]:
    return [Job("invariants", genus=g, seed=s) for g, seeds in inputs.items() for s in seeds]


def _label(g: int, i: int) -> str:
    return f"a{i + 1}" if i < g else f"b{i - g + 1}"


def _dense_coefficients(rng: random.Random, n: int) -> list[Fraction]:
    out = []
    for _ in range(n):
        num = rng.choice([k for k in range(-9, 10) if k])
        out.append(Fraction(num, rng.randint(1, 9)))
    return out


def _dense_config(rng: random.Random, g: int, kind: str) -> str:
    """Config text with two fully dense random 3-forms: one as expr, one as coeffs."""
    triples = list(combinations(range(2 * g), 3))
    left = _dense_coefficients(rng, len(triples))
    right = _dense_coefficients(rng, len(triples))
    chunks = []
    for n, (t, c) in enumerate(zip(triples, left)):
        sign = "-" if c < 0 else ("" if n == 0 else "+")
        body = f"{abs(c)} {'^'.join(_label(g, i) for i in t)}"
        chunks.append(f"{sign}{body}" if n == 0 else f" {sign} {body}")
    command = "decompose" if kind == "decompose" else "forms"
    lines = [f"genus = {g}", f"command = {command}",
             "[multivector left]", f"expr = {''.join(chunks)}",
             "[multivector right]", "degree = 3",
             "coeffs = " + ", ".join(str(c) for c in right),
             "[args]"]
    lines += ["input = left"] if kind == "decompose" else [
        f"form = {kind}", "left = left", "right = right"]
    return "\n".join(lines) + "\n"


def _dense_inputs(rng: random.Random) -> dict[tuple[str, int], str]:
    return {(kind, g): _dense_config(rng, g, kind)
            for g in (4, 5, 6) for kind in ("phi", "omega3", "decompose")}


def _dense_tasks(inputs) -> list[Job]:
    return [Job("decompose" if kind == "decompose" else "forms",
                config_name=f"dense-g{g}-{kind}", config_text=text)
            for (kind, g), text in inputs.items()]


@dataclass(frozen=True)
class Workload:
    """A seeded stream of jobs.

    `tasks` lists the jobs of one cycle; a cycle runs each task once in
    seeded order, drawing a format for tasks that have none.  One
    repetition is `cycles_per_rep` cycles: the stated job list whose
    latency percentiles are taken.  The first task, rendered as text, is
    the warm-up job.
    """

    name: str
    why: str
    make_inputs: Callable[[random.Random], object]
    tasks: Callable[[object], list[Job]]
    cycles_per_rep: int

    def inputs(self, seed: int):
        rng = random.Random(seed)
        return rng, self.make_inputs(rng)

    def repetition(self, rng: random.Random, inputs) -> list[Job]:
        jobs = []
        for _ in range(self.cycles_per_rep):
            cycle = list(self.tasks(inputs))
            rng.shuffle(cycle)
            jobs += [job if job.fmt else replace(job, fmt=rng.choice(FORMATS))
                     for job in cycle]
        return jobs

    def warmup(self, inputs) -> Job:
        return replace(self.tasks(inputs)[0], fmt="text")

    def pool(self, inputs) -> list[Job]:
        """Every distinct job a run with these inputs can issue."""
        return list(dict.fromkeys(job if job.fmt else replace(job, fmt=fmt)
                                  for job in self.tasks(inputs)
                                  for fmt in ((job.fmt,) if job.fmt else FORMATS)))


WORKLOADS = {w.name: w for w in (
    Workload("fixture-jobs",
             "closed loop, 1 client; 4 fixture commands x 2 fixtures x text/json; stresses "
             "johnson, linalg.mat_mul, config, render, report (per-call overhead); "
             "bypasses elimination",
             lambda rng: None, _fixture_tasks, 10),
    Workload("audit-sweep",
             "closed loop, 1 client; audit at genus 3-7 in seeded order; stresses linalg "
             "dense elimination on rows ~1% nonzero; bypasses forms, h3model, johnson, "
             "report rendering",
             lambda rng: None, _audit_tasks, 1),
    Workload("invariants-mix",
             "closed loop, 1 client; invariants at genus 3-5, default rounds, seeds drawn "
             "from the workload seed; stresses exterior wedge and Multivector "
             "construction; uses every kernel",
             _invariants_inputs, _invariants_tasks, 1),
    Workload("dense-forms",
             "closed loop, 1 client; forms (omega3, phi) and decompose on dense random p/q "
             "3-forms at genus 4-6 as config text; stresses forms.phi/omega3, config, "
             "render; bypasses elimination",
             _dense_inputs, _dense_tasks, 4),
)}
