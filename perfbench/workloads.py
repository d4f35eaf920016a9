"""The benchmark's workloads: job lists built from the seed, and their checks.

A job is one call into `lumirend.verify`: `search_one` or
`missing_label_adversary`.  The seed sets the job order and, where a
workload is shortened (`sample` in workloads.json), which jobs are sampled.
The library only receives the generated graphs, configs and starts.

Each workload's reasons, layers, sizes and expected verdicts are recorded in
workloads.json next to this file (`load_spec`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SPEC_PATH = Path(__file__).with_name("workloads.json")

LABELS = (Fraction(0), Fraction(1, 2), Fraction(1))


@dataclass(frozen=True)
class Job:
    id: str
    fn: str  # name of the lumirend.verify function the job calls
    args: tuple
    group: str  # jobs whose verdicts are checked together (one graph)


def _survey3(lib) -> list[Job]:
    cfg = lib.verify.SearchConfig(
        40, lib.core.SchedulerClass.asynchronous(lc_atomic=True, move_atomic=True),
        lib.core.MovementModel.rigid(),
    )
    jobs = []
    for idx, g in enumerate(lib.algorithms.enumerate_graphs(3, LABELS)):
        # `lumirend enumerate` reports each graph's structural check beside its verdicts
        lib.verify.structural_check(g)
        for c in g.colors:
            jobs.append(Job(f"g{idx:03d}/{c}", "search_one", (g, cfg, (c, c), 1), f"g{idx:03d}"))
    return jobs


# the six relabelings of ss3/alg_b in enumerate_graphs(3, LABELS) order: the
# only three-color graphs whose same-color starts the SSYNC pre-pass cannot
# decide (nor can it decide their mixed starts)
DEEP_GRAPHS = (412, 416, 426, 518, 528, 532)


def _deep_diverge(lib) -> list[Job]:
    cfg = lib.verify.SearchConfig(
        12, lib.core.SchedulerClass.asynchronous(lc_atomic=True),
        lib.core.MovementModel.non_rigid(Fraction(1, 4)),
    )
    graphs = list(lib.algorithms.enumerate_graphs(3, LABELS))
    return [
        Job(f"g{idx:03d}/{a},{b}", "search_one", (graphs[idx], cfg, (a, b), 1), f"g{idx:03d}")
        for idx in DEEP_GRAPHS
        for a in graphs[idx].colors
        for b in graphs[idx].colors
    ]


def _certify(lib) -> list[Job]:
    cfg = lib.verify.SearchConfig(
        64, lib.core.SchedulerClass.asynchronous(lc_atomic=True),
        lib.core.MovementModel.non_rigid(Fraction(1, 8)),
    )
    jobs = []
    for name in ("qss4", "ss5"):
        g = lib.algorithms.builtin(name)
        for a in g.colors:
            for b in g.colors:
                jobs.append(Job(f"{name}/{a},{b}", "search_one", (g, cfg, (a, b), 1), name))
    return jobs


def _adversary3(lib) -> list[Job]:
    jobs = []
    for idx, g in enumerate(lib.algorithms.enumerate_graphs(3, LABELS)):
        missing = lib.verify.structural_check(g).per_start_missing
        for start, labels in missing.items():
            for lam in labels:
                jobs.append(
                    Job(
                        f"g{idx:03d}/{start}/l={lam.numerator}/{lam.denominator}",
                        "missing_label_adversary",
                        (g, start, lam, 40),
                        f"g{idx:03d}",
                    )
                )
    return jobs


_JOB_LISTS = {
    "survey3": _survey3,
    "deep_diverge": _deep_diverge,
    "certify": _certify,
    "adversary3": _adversary3,
}


def load_spec() -> dict:
    """workloads.json: per workload, its reasons, sizes and expected verdicts."""
    return json.loads(SPEC_PATH.read_text())


def build(name: str, spec: dict, lib, seed: int, smoke: bool = False) -> list[Job]:
    """The workload's job list in seed order (the smoke subset if asked)."""
    jobs = _JOB_LISTS[name](lib)
    if smoke:
        wanted = set(spec["smoke"])
        return [j for j in jobs if j.id in wanted]
    rng = random.Random(seed)
    if spec["sample"] is not None:
        return rng.sample(jobs, spec["sample"])
    rng.shuffle(jobs)
    return jobs


# -- running one job and checking its output ----------------------------------


def call(lib, job: Job):
    return getattr(lib.verify, job.fn)(*job.args)


def outcome(job: Job, result) -> tuple[str, object]:
    """(verdict kind, certificate or None) of a job's result."""
    if job.fn == "missing_label_adversary":
        cert = result[2]
        return ("diverges" if cert is not None else "no-certificate"), cert
    return result.kind, getattr(result, "certificate", None)


def expected_kind(spec: dict, job: Job) -> str:
    expect = spec["expect"]
    for kind, ids in expect.items():
        if kind != "default" and job.id in ids:
            return kind
    return expect["default"]


def group_failures(name: str, jobs: list[Job], kinds: list[str]) -> set[int]:
    """Indices of jobs that break a property of their group.

    survey3 asserts criterion 08: no three-color graph reaches rendezvous
    from all three same-color starts."""
    if name != "survey3":
        return set()
    by_group: dict[str, list[int]] = {}
    for i, job in enumerate(jobs):
        by_group.setdefault(job.group, []).append(i)
    bad = set()
    for members in by_group.values():
        if len(members) == 3 and all(kinds[i] == "rendezvous" for i in members):
            bad.update(members)
    return bad


def digest(jobs: list[Job], kinds: list[str]) -> str:
    """SHA-256 of the sorted (job id, verdict kind) lines.  Certificates stay
    out: a shorter certificate for the same verdict keeps the digest."""
    lines = sorted(f"{job.id} {kind}" for job, kind in zip(jobs, kinds))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
