"""The benchmark's own tests: smoke runs, spec consistency, tracer behaviour.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = workloads.load_spec()


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SPEC))
def test_smoke_run_checks_verdicts_and_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_benchmark_workloads_are_specified():
    gated = [w["name"] for w in BENCH["workloads"]]
    assert set(gated) <= set(SPEC)
    for name in set(SPEC) - set(gated):
        assert SPEC[name]["excluded_from_benchmark"]
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])


def test_spec_sizes_and_job_ids_match_the_built_jobs():
    lib = worker.load_lib()
    for name, spec in SPEC.items():
        jobs = workloads._JOB_LISTS[name](lib)
        ids = {j.id for j in jobs}
        assert len(jobs) == len(ids) == spec["jobs"], name
        assert set(spec["smoke"]) <= ids, name
        for kind, listed in spec["expect"].items():
            if kind != "default":
                assert set(listed) <= ids, name
        per_pass = spec["sample"] or spec["jobs"]
        assert len(workloads.build(name, spec, lib, seed=7)) == per_pass, name
        # the tail percentile has at least ten jobs beyond it
        assert per_pass * (1 - spec["tail_percentile"] / 100) >= 10, name


def test_seed_orders_jobs_reproducibly():
    lib = worker.load_lib()
    spec = SPEC["adversary3"]
    a = [j.id for j in workloads.build("adversary3", spec, lib, seed=3)]
    b = [j.id for j in workloads.build("adversary3", spec, lib, seed=3)]
    c = [j.id for j in workloads.build("adversary3", spec, lib, seed=4)]
    assert a == b and a != c


def test_every_pass_runs_on_a_fresh_import(monkeypatch):
    # a cache that lives as long as the modules: the first call of each job
    # in an import pays a 2 ms miss, later calls are hits
    real_load_lib = worker.load_lib

    def load_lib_with_module_cache():
        lib = real_load_lib()
        verify = types.SimpleNamespace(**vars(lib.verify))
        seen = set()

        def search_one(g, cfg, colors, distance):
            if (id(g), colors) not in seen:
                seen.add((id(g), colors))
                time.sleep(0.002)
            return lib.verify.search_one(g, cfg, colors, distance)

        verify.search_one = search_one
        return types.SimpleNamespace(**{**vars(lib), "verify": verify})

    monkeypatch.setattr(worker, "load_lib", load_lib_with_module_cache)
    out = worker.untraced("survey3", SPEC["survey3"], seed=1, seconds=0, smoke=True)
    assert out["failed"] == 0
    assert out["info"]["passes"] >= 2
    # every job's best latency still includes the miss
    assert out["metrics"]["job_p50_ms"] >= 2.0


def test_digest_ignores_order_and_certificates():
    jobs = [workloads.Job(f"j{i}", "search_one", (), "g") for i in range(3)]
    kinds = ["diverges", "diverges", "rendezvous"]
    assert workloads.digest(jobs, kinds) == workloads.digest(jobs[::-1], kinds[::-1])
    assert workloads.digest(jobs, kinds) != workloads.digest(jobs, kinds[::-1])


def test_survey3_flags_a_graph_that_meets_from_every_start():
    jobs = [workloads.Job(f"g001/{c}", "search_one", (), "g001") for c in "ABC"]
    assert workloads.group_failures("survey3", jobs, ["rendezvous"] * 3) == {0, 1, 2}
    assert workloads.group_failures("survey3", jobs, ["rendezvous", "rendezvous", "diverges"]) == set()


def _fake_package(name: str) -> dict:
    """A package shaped like lumirend in which every private hook target is gone."""

    def search_one(g, cfg, colors, distance):
        return helper()

    def helper():
        return sum(range(1000))

    def numbers():
        yield from range(3)

    modules = {name: types.ModuleType(name)}
    for sub in ("core", "schedules", "engine", "algorithms", "verify"):
        modules[f"{name}.{sub}"] = types.ModuleType(f"{name}.{sub}")
    modules[f"{name}.verify"].search_one = search_one
    modules[f"{name}.verify"].validate_certificate = helper
    modules[f"{name}.algorithms"].enumerate_graphs = numbers
    return modules


def test_missing_hook_targets_are_reported_not_fatal(monkeypatch):
    for mod_name, mod in _fake_package("fakelumi").items():
        monkeypatch.setitem(sys.modules, mod_name, mod)
    verify = sys.modules["fakelumi.verify"]
    original = verify.search_one
    tracer = tracing.Tracer(package="fakelumi")
    tracer.install()
    try:
        assert verify.search_one is not original
        tracer.job = 0
        cfg = types.SimpleNamespace(scheduler=types.SimpleNamespace(kind="async"))
        verify.search_one(None, cfg, ("A", "A"), 1)
        verify.validate_certificate()
        assert list(sys.modules["fakelumi.algorithms"].enumerate_graphs()) == [0, 1, 2]
    finally:
        tracer.uninstall()
    assert verify.search_one is original
    assert "verify.canonical_key" in tracer.missing
    assert "verify.search_children" in tracer.missing
    values = tracing.layer_values(tracer, untraced_wall=1.0, traced_wall=1.0)
    assert values["verify.canonical_key.calls"] is None
    assert values["verify.new_state_ratio"] is None
    assert values["verify.prepass_decided_ratio"] is None  # needs the _search_core hook
    assert values["verify.search_one.calls"] == 1
    assert values["verify.validate_certificate.calls"] == 1
    assert values["verify.validate_certificate.accept_ratio"] == 1.0
    assert values["algorithms.enumerate_graphs.s"] > 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    outer, inner = tracer._nid["verify.search_one"], tracer._nid["verify.search_core"]
    a = tracer.open(outer)
    b = tracer.open(inner)
    sum(range(20000))
    tracer.close(b)
    tracer.close(a)
    total = tracer._end[0] - tracer._start[0]
    child = tracer._end[1] - tracer._start[1]
    assert tracer.self_s[outer] == pytest.approx(total - child)
    assert tracer.self_s[inner] == pytest.approx(child)
    assert tracer._parent[1] == 0 and tracer._parent[0] == -1


def test_fails_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
        proc = _run("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
