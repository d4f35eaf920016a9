"""lumirend benchmark: verifier workloads, verdict-checked timings, traced layers.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload survey3 --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke              # a handful of jobs each, checks on

Each workload runs in its own child process (perfbench/worker.py) with one
thread, `PYTHONHASHSEED=0` and the seed as an argument.  The untraced run
(`--trace 0`) prints the end-to-end metrics of BENCHMARK.json, the traced
run (`--trace 1`) the per-layer metrics, the work counters and where the
spans were written.  Both check every verdict.  With one workload and one
mode the last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; with several, one object per
run under "runs".  Smoke mode makes no timing claims.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict | None:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker exceeded {CHILD_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _fmt(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(workload: str, seed: int, trace: int, out: dict, declared: list) -> dict:
    """Print the run for a reader and return its result object."""
    info = out["info"]
    if trace:
        print(
            f"{workload} seed={seed} traced: untraced pass {info['untraced_wall_s']:.3f} s, "
            f"traced pass {info['traced_wall_s']:.3f} s, {info['spans']} spans in {info['spans_file']}"
        )
        print("  work: " + " ".join(f"{k}={_fmt(v)}" for k, v in info["work"].items()))
        for span, why in info["missing"].items():
            print(f"  missing hook {span}: {why}")
    else:
        print(
            f"{workload} seed={seed} untraced: {info['jobs']} jobs x {info['passes']} passes "
            f"(median pass {info['median_pass_s']:.3f} s, each on a fresh import; "
            f"gc collections per pass {info['gc_collections']}), best latency per job, "
            f"fastest of {info['setups']} set-ups, "
            f"tail p{info['tail_percentile']} with {info['beyond_tail']} jobs beyond, "
            f"jobs_failed_frac {info['jobs_failed_frac']:.6g} ({out['failed']} of {out['attempted']})"
        )
    print(f"  verdict digest {info['digest']}")
    for job_id, why in info["failures"].items():
        print(f"  FAILED {job_id}: {why}")
    metrics = {}
    for m in declared:
        value = out["metrics"].get(m["name"])
        print(f"  {m['name']:<44} {_fmt(value):>14} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    complete = set(out["metrics"]) == {m["name"] for m in declared}
    return {
        "correct": out["failed"] == 0 and complete,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    bench = load_benchmark()
    # BENCHMARK.json lists the workloads whose timings are steady enough to
    # gate on; workloads.json holds those and two more that run by name
    names = list(json.loads((HERE / "workloads.json").read_text()))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), help="default: untraced, then traced")
    ap.add_argument("--smoke", action="store_true", help="a handful of jobs, no timing claims")
    args = ap.parse_args(argv)

    runs = {}
    for workload in [args.workload] if args.workload else names:
        for trace in [args.trace] if args.trace is not None else [0, 1]:
            out = run_child(workload, args.seed, args.seconds, trace, args.smoke)
            if out is None:
                return 1
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            runs[f"{workload}/trace{trace}"] = report(workload, args.seed, trace, out, declared)
    if len(runs) == 1:
        print(json.dumps(next(iter(runs.values()))))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in runs.values()), "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
