"""One workload in one process: set-up, timed passes, output checks.

run.py starts this file as a child process, one per workload and mode, and
reads the single JSON line it prints.  It imports `lumirend` from the
checkout's `src/` and nothing else; without it, it exits with code 2.

Untraced mode (`--trace 0`) runs whole passes over the job list until
`--seconds` of passes and at least MIN_PASSES passes have run.  Every pass
runs on a fresh import of `lumirend` and freshly built jobs, so nothing the
library caches for the life of its modules carries over from one pass to the
next: each pass is the cold sweep a researcher waits for.  A job's latency
is its best (minimum) over the passes, which alternate between the
process's CPUs: on a shared machine other tenants slow a core by up to 2x
for seconds to minutes at a time, and the minimum over runs spread across
the run and the cores filters that out where a median does not.  Each pass
starts from a full collection and repeats the same allocations, so the
cyclic collector runs at the same points in every pass and its cost stays
in the minimum; the collections per pass are printed to show it.
`wall_s` is the sweep at those latencies, the sum over jobs; the median pass
wall is printed beside it.

Set-up is timed in rounds of one set-up on each CPU: SETUP_ROUNDS_BEFORE
rounds before the passes and one after each, the last set-up of a round
giving the modules and jobs of the next pass.  `setup_s` is the fastest
set-up of the run, for the same reason as the job latencies: the host's
slow phases last seconds, hit both cores at once, and leave a median of a
few set-ups bimodal.

`peak_rss_mb` is mostly the interpreter, the imported library and the job
list: the gated workloads build small state graphs.  The harness keeps no
certificate objects between passes, only a fingerprint of each checked one.

Traced mode (`--trace 1`) runs one untraced pass, then imports the library
afresh, installs the tracer, repeats set-up and the pass, and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"

SETUP_ROUNDS_BEFORE = 3
MIN_PASSES = 3  # every job's best latency is taken over at least this many runs of it
MAX_TIMED_S = 120.0  # keeps a much slower program inside the run time limit
MODULES = ("core", "schedules", "engine", "algorithms", "verify")


def load_lib() -> SimpleNamespace:
    """Import lumirend afresh from the checkout, so every set-up pays the
    import again."""
    for name in [n for n in sys.modules if n == "lumirend" or n.startswith("lumirend.")]:
        del sys.modules[name]
    pkg = importlib.import_module("lumirend")
    if Path(pkg.__file__).resolve().parent != (SRC / "lumirend").resolve():
        raise RuntimeError(f"lumirend imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"lumirend.{m}") for m in MODULES})


def run_pass(lib, jobs, latencies: list, tracer=None):
    """Run every job once; returns the pass wall time and per job
    (verdict kind, certificate, error)."""
    outcomes = []
    t0 = perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        start = perf_counter()
        try:
            result = workloads.call(lib, job)
        except Exception as exc:  # a job that raises counts as failed
            latencies.append(perf_counter() - start)
            outcomes.append(("error", None, f"{type(exc).__name__}: {exc}"))
            continue
        latencies.append(perf_counter() - start)
        kind, cert = workloads.outcome(job, result)
        outcomes.append((kind, cert, None))
    wall = perf_counter() - t0
    if tracer is not None:
        tracer.job = -1
    return wall, outcomes


def check_pass(name, spec, lib, jobs, outcomes, reference=None) -> list:
    """Failure reason per job, None for a job whose output is correct.

    Every certificate is replay-validated with validate_certificate, unless
    its fingerprint equals that of the reference pass's certificate for the
    job, which was."""
    kinds = [kind for kind, _cert, _err in outcomes]
    group_bad = workloads.group_failures(name, jobs, kinds)
    reasons = []
    for i, (job, (kind, cert, err)) in enumerate(zip(jobs, outcomes)):
        want = workloads.expected_kind(spec, job)
        reason = err
        if reason is None and kind != want:
            reason = f"verdict {kind}, expected {want}"
        if reason is None and reference is not None and reference[i][0] != kind:
            reason = f"verdict {kind} differs from the first pass ({reference[i][0]})"
        if reason is None and i in group_bad:
            reason = "criterion 08: rendezvous from all three starts"
        if reason is None and kind == "diverges":
            if cert is None:
                reason = "diverges without a certificate"
            else:
                try:
                    if reference is None or reference[i][1] != fingerprint(cert):
                        lib.verify.validate_certificate(cert)
                except Exception as exc:  # any failure to replay rejects it
                    reason = f"certificate rejected: {type(exc).__name__}: {exc}"
        reasons.append(reason)
    return reasons


def fingerprint(cert) -> str:
    """Digest of a certificate's canonical JSON: equal digests, equal certificates."""
    return hashlib.sha256(cert.to_json().encode()).hexdigest()


def reference_of(outcomes, reasons) -> list:
    """(verdict kind, certificate fingerprint) per job of a checked pass; the
    fingerprint only for a certificate that passed its checks."""
    return [
        (kind, fingerprint(cert) if cert is not None and reason is None else None)
        for (kind, cert, _err), reason in zip(outcomes, reasons)
    ]


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, math.ceil(p / 100 * len(ordered)) - 1)
    return ordered[k]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _tally(jobs, reasons, failures: dict) -> int:
    bad = 0
    for job, reason in zip(jobs, reasons):
        if reason is not None:
            bad += 1
            failures.setdefault(job.id, reason)
    return bad


def timed_setup(name, spec, seed, smoke):
    t0 = perf_counter()
    lib = load_lib()
    jobs = workloads.build(name, spec, lib, seed, smoke)
    return perf_counter() - t0, lib, jobs


def setup_round(name, spec, seed, smoke, cpus, last_cpu):
    """One set-up on each CPU, ending on last_cpu; returns the set-up times
    and the last set-up's modules and jobs."""
    times = []
    for cpu in [c for c in cpus if c != last_cpu] + [last_cpu]:
        os.sched_setaffinity(0, {cpu})
        lib = jobs = None  # the previous set-up's modules go before the next import
        dt, lib, jobs = timed_setup(name, spec, seed, smoke)
        times.append(dt)
    return times, lib, jobs


def untraced(name, spec, seed, seconds, smoke) -> dict:
    cpus = sorted(os.sched_getaffinity(0))
    setup = []
    for _ in range(SETUP_ROUNDS_BEFORE):
        times, lib, jobs = setup_round(name, spec, seed, smoke, cpus, cpus[0])
        setup += times
    best = [math.inf] * len(jobs)
    walls = []
    collections = []
    failures: dict = {}
    failed = attempted = 0
    reference = None
    while True:
        gc.collect()
        before = sum(s["collections"] for s in gc.get_stats())
        latencies: list = []
        wall, outcomes = run_pass(lib, jobs, latencies)
        collections.append(sum(s["collections"] for s in gc.get_stats()) - before)
        walls.append(wall)
        best = [min(b, x) for b, x in zip(best, latencies)]
        reasons = check_pass(name, spec, lib, jobs, outcomes, reference)
        attempted += len(jobs)
        failed += _tally(jobs, reasons, failures)
        if reference is None:
            reference = reference_of(outcomes, reasons)
        del outcomes
        timed = sum(walls)
        if timed >= MAX_TIMED_S or (len(walls) >= MIN_PASSES and (smoke or timed >= seconds)):
            break
        # successive passes run on alternate CPUs: a core whose sibling is
        # busy runs up to 2x slower for minutes, and the per-job best then
        # comes from the other core.  Each pass gets its own fresh import.
        lib = jobs = None
        times, lib, jobs = setup_round(name, spec, seed, smoke, cpus, cpus[len(walls) % len(cpus)])
        setup += times
    os.sched_setaffinity(0, cpus)
    tail = spec["tail_percentile"]
    tail_s = percentile(best, tail)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": sum(best),
            "job_p50_ms": statistics.median(best) * 1e3,
            "job_tail_ms": tail_s * 1e3,
            "setup_s": min(setup),
            "peak_rss_mb": peak_rss_mb(),
            "jobs_ok_frac": 1 - failed / attempted,
        },
        "info": {
            "passes": len(walls),
            "median_pass_s": statistics.median(walls),
            "setups": len(setup),
            "gc_collections": sorted(set(collections)),
            "jobs": len(jobs),
            "tail_percentile": tail,
            "beyond_tail": sum(1 for x in best if x > tail_s),
            "jobs_failed_frac": failed / attempted,
            "digest": workloads.digest(jobs, [kind for kind, _fp in reference]),
            "failures": dict(list(failures.items())[:10]),
        },
    }


def traced(name, spec, seed, smoke) -> dict:
    lib = load_lib()
    jobs = workloads.build(name, spec, lib, seed, smoke)
    gc.collect()
    untraced_wall, outcomes = run_pass(lib, jobs, [])
    failures: dict = {}
    reasons = check_pass(name, spec, lib, jobs, outcomes)
    failed = _tally(jobs, reasons, failures)
    reference = reference_of(outcomes, reasons)
    del outcomes
    lib = jobs = None

    lib = load_lib()  # the traced pass is as cold as the untraced one
    tracer = tracing.Tracer()
    tracer.install()
    try:
        jobs = workloads.build(name, spec, lib, seed, smoke)  # traced set-up
        gc.collect()
        traced_wall, outcomes = run_pass(lib, jobs, [], tracer)
    finally:
        tracer.uninstall()
    reasons = check_pass(name, spec, lib, jobs, outcomes, reference)
    failed += _tally(jobs, reasons, failures)
    values = tracing.layer_values(tracer, untraced_wall, traced_wall)
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"{name}{'-smoke' if smoke else ''}.spans.tsv"  # the latest run's
    tracer.write(spans)
    return {
        "attempted": 2 * len(jobs),
        "failed": failed,
        "metrics": values,
        "info": {
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "work": {key: values[metric] for key, metric in tracing.WORK_COUNTERS},
            "missing": tracer.missing,
            "spans": tracer.span_count,
            "spans_file": str(spans.relative_to(ROOT)),
            "digest": workloads.digest(jobs, [kind for kind, _fp in reference]),
            "failures": dict(list(failures.items())[:10]),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "lumirend" / "__init__.py").is_file():
        print(f"worker: no lumirend package under {SRC}", file=sys.stderr)
        return 2
    spec = workloads.load_spec()
    if args.workload not in spec:
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = spec[args.workload]
    if args.trace:
        out = traced(args.workload, wl, args.seed, args.smoke)
    else:
        out = untraced(args.workload, wl, args.seed, args.seconds, args.smoke)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
