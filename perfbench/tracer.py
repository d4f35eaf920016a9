"""Span recorder and the call wrappers of the traced run.

The wrappers exist only while `Tracer.install` is in effect; they replace
library functions and methods from the outside and are removed again by
`Tracer.uninstall`, so the untraced passes run the library untouched.

Each span records a name, start, end, parent span and job id.  Spans stay in
memory (compact arrays) and are written out by `Tracer.write` at the end of
the run.  Self time is a span's duration minus the time its child spans
cover, accumulated as spans close.

`core` gets no spans: `transition`, `destination` and `truncate_move` are a
few `Fraction` operations each, called ~1e5 times, so a wrapper would cost
as much as the call.  Their cost shows in their callers' self time.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

FUNC = "func"  # one span per call
GEN = "gen"  # one span per generator resumption

# (span name, module, attribute path, kind).  Private names may disappear in
# a refactor; a hook whose target is gone is reported as missing, and every
# metric derived from it as null, instead of failing the run.
HOOKS = (
    ("verify.search_one", "verify", "search_one", FUNC),
    ("verify.search_core", "verify", "_search_core", FUNC),
    ("verify.explore", "verify", "SearchGraph._explore", FUNC),
    ("verify.canonical_key", "verify", "_canonical_key", FUNC),
    ("verify.search_children", "verify", "_search_children", GEN),
    ("verify.fair_scc", "verify", "SearchGraph.fair_scc", FUNC),
    ("verify.certificate_from_scc", "verify", "SearchGraph.certificate_from_scc", FUNC),
    ("verify.detect_scaling_loop", "verify", "detect_scaling_loop", FUNC),
    ("verify.validate_certificate", "verify", "validate_certificate", FUNC),
    ("verify.missing_label_adversary", "verify", "missing_label_adversary", FUNC),
    ("engine.run", "engine", "run", FUNC),
    ("engine.step", "engine", "Simulation.step", FUNC),
    ("engine.cs_times", "engine", "Trace.cs_times", FUNC),
    ("engine.is_cs", "engine", "Trace.is_cs", FUNC),
    ("schedules.check_legal", "schedules", "check_legal", FUNC),
    ("algorithms.enumerate_graphs", "algorithms", "enumerate_graphs", GEN),
    # lives in verify, but it is set-up work on the algorithm space
    ("algorithms.structural_check", "verify", "structural_check", FUNC),
)


class Tracer:
    def __init__(self, package: str = "lumirend"):
        self.package = package
        self.names = [h[0] for h in HOOKS]
        self._nid = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)  # spans closed
        self.invocations = [0] * len(self.names)  # generator calls
        self.self_s = [0.0] * len(self.names)
        self.counts: dict[str, int] = {}
        self.missing: dict[str, str] = {}
        self.job = -1
        # span columns; a span's index is its position in these arrays
        self._span_name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._span_job = array("l")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, nid: int) -> list:
        i = len(self._start)
        self._span_name.append(nid)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._span_job.append(self.job)
        self._end.append(0.0)
        frame = [i, 0.0]
        self._stack.append(frame)
        self._start.append(perf_counter())
        return frame

    def close(self, frame: list) -> None:
        t = perf_counter()
        i, covered = frame
        self._end[i] = t
        duration = t - self._start[i]
        nid = self._span_name[i]
        self.calls[nid] += 1
        self.self_s[nid] += duration - covered
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def root_seconds(self) -> float:
        """Total duration of the root spans of jobs (set-up excluded)."""
        return sum(
            self._end[i] - self._start[i]
            for i in range(len(self._start))
            if self._parent[i] == -1 and self._span_job[i] >= 0
        )

    @property
    def span_count(self) -> int:
        return len(self._start)

    def write(self, path) -> None:
        """One tab-separated line per span: id, name, start and end in
        microseconds from the first span, parent id (-1 for a root), job
        index (-1 for set-up)."""
        t0 = self._start[0] if self._start else 0.0
        names = self.names
        with open(path, "w", encoding="ascii") as out:
            out.write("id\tname\tstart_us\tend_us\tparent\tjob\n")
            for i in range(len(self._start)):
                out.write(
                    f"{i}\t{names[self._span_name[i]]}\t{(self._start[i] - t0) * 1e6:.3f}\t"
                    f"{(self._end[i] - t0) * 1e6:.3f}\t{self._parent[i]}\t{self._span_job[i]}\n"
                )

    # -- wrappers --------------------------------------------------------------

    def _wrap_func(self, fn, nid: int, before, after):
        tracer = self

        def traced(*args, **kwargs):
            token = before(tracer, args) if before is not None else None
            frame = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(frame)
                if after is not None:
                    after(tracer, args, None, False, token)
                raise
            tracer.close(frame)
            if after is not None:
                after(tracer, args, result, True, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, fn, nid: int):
        tracer = self

        def traced(*args, **kwargs):
            tracer.invocations[nid] += 1
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(frame)
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        }
        for span, module, path, kind in HOOKS:
            owner = modules.get(f"{self.package}.{module}")
            attr = path
            if owner is not None and "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(owner, cls_name, None)
            target = getattr(owner, attr, None) if owner is not None else None
            if not callable(target):
                self.missing[span] = f"{self.package}.{module}.{path} not found"
                continue
            nid = self._nid[span]
            if kind == GEN:
                wrapper = self._wrap_gen(target, nid)
            else:
                wrapper = self._wrap_func(target, nid, _BEFORE.get(span), _AFTER.get(span))
            if isinstance(owner, type):
                self._undo.append((owner, attr, vars(owner).get(attr, target)))
                setattr(owner, attr, wrapper)
                continue
            # a module function is also bound wherever it was imported by name
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is target:
                        self._undo.append((mod, name, value))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- work counters recorded after a call returns ---------------------------


def _before_search_one(tracer: Tracer, args):
    return tracer.calls[tracer._nid["verify.search_core"]]


def _after_search_one(tracer: Tracer, args, result, ok, cores_before) -> None:
    # an asynchronous search was decided by the SSYNC pre-pass when only one
    # core search ran inside it
    if not ok or getattr(args[1].scheduler, "kind", None) != "async":
        return
    tracer.count("search_one.async")
    if tracer.calls[tracer._nid["verify.search_core"]] - cores_before == 1:
        tracer.count("search_one.prepass_decided")


def _after_explore(tracer: Tracer, args, result, ok, _token) -> None:
    graph = args[0]
    try:
        nodes = graph.nodes.values()
        tracer.count("states", len(nodes))
        tracer.count("edges", sum(len(n.edges) for n in nodes))
        deepest = max((n.depth for n in nodes), default=0)
        tracer.counts["max_depth"] = max(tracer.counts.get("max_depth", 0), deepest)
        horizon = graph.cfg.horizon
        capped = any(
            not n.expanded and not n.rendezvous and n.depth < horizon for n in nodes
        )
        tracer.count("cap_hits", int(capped))
    except AttributeError as exc:
        tracer.missing.setdefault("verify.explore.counters", f"search graph layout changed: {exc}")


def _after_validate(tracer: Tracer, args, result, ok, _token) -> None:
    tracer.count("certificates_accepted", int(ok))


def _after_run(tracer: Tracer, args, result, ok, _token) -> None:
    if ok:
        tracer.count("trace_steps", len(result.steps))


def _after_cs_times(tracer: Tracer, args, result, ok, _token) -> None:
    if ok:
        tracer.count("cycle_starts", len(result))


_BEFORE = {"verify.search_one": _before_search_one}
_AFTER = {
    "verify.search_one": _after_search_one,
    "verify.explore": _after_explore,
    "verify.validate_certificate": _after_validate,
    "engine.run": _after_run,
    "engine.cs_times": _after_cs_times,
}


# -- per-layer metrics -------------------------------------------------------

# work counters that repeat exactly from run to run on the same seed
WORK_COUNTERS = (
    ("states", "verify.states"),
    ("edges", "verify.edges"),
    ("trace_steps", "engine.trace_steps"),
    ("cycle_starts", "engine.cycle_starts"),
    ("certificates_validated", "verify.validate_certificate.calls"),
)


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_values(tracer: Tracer, untraced_wall: float, traced_wall: float) -> dict:
    """Every per-layer metric of BENCHMARK.json by name; None where a hook
    target is missing.

    A layer that does not run in a workload reports zero calls and time."""

    def span(name, what):
        if name in tracer.missing:
            return None
        nid = tracer._nid[name]
        if what == "calls":
            return tracer.calls[nid]
        if what == "invocations":
            return tracer.invocations[nid]
        return tracer.self_s[nid]

    def counter(key, *needs):
        if any(n in tracer.missing for n in needs):
            return None
        return tracer.counts.get(key, 0)

    explore = ("verify.explore", "verify.explore.counters")
    states = counter("states", *explore)
    keys = span("verify.canonical_key", "calls")
    validations = span("verify.validate_certificate", "calls")
    values = {
        "verify.search_one.calls": span("verify.search_one", "calls"),
        "verify.search_core.calls": span("verify.search_core", "calls"),
        "verify.prepass_decided_ratio": _ratio(
            counter("search_one.prepass_decided", "verify.search_one", "verify.search_core"),
            counter("search_one.async", "verify.search_one"),
        ),
        "verify.explore.self_s": span("verify.explore", "self_s"),
        "verify.states": states,
        "verify.edges": counter("edges", *explore),
        "verify.max_depth": counter("max_depth", *explore),
        "verify.cap_hits": counter("cap_hits", *explore),
        "verify.canonical_key.calls": keys,
        "verify.canonical_key.self_s": span("verify.canonical_key", "self_s"),
        "verify.new_state_ratio": _ratio(states, keys),
        "verify.search_children.calls": span("verify.search_children", "invocations"),
        "verify.search_children.self_s": span("verify.search_children", "self_s"),
        "verify.fair_scc.self_s": span("verify.fair_scc", "self_s"),
        "verify.certificate_from_scc.calls": span("verify.certificate_from_scc", "calls"),
        "verify.certificate_from_scc.self_s": span("verify.certificate_from_scc", "self_s"),
        "verify.detect_scaling_loop.calls": span("verify.detect_scaling_loop", "calls"),
        "verify.detect_scaling_loop.self_s": span("verify.detect_scaling_loop", "self_s"),
        "verify.validate_certificate.calls": validations,
        "verify.validate_certificate.self_s": span("verify.validate_certificate", "self_s"),
        "verify.validate_certificate.accept_ratio": _ratio(
            counter("certificates_accepted", "verify.validate_certificate"), validations
        ),
        "verify.missing_label_adversary.self_s": span("verify.missing_label_adversary", "self_s"),
        "engine.run.calls": span("engine.run", "calls"),
        "engine.run.self_s": span("engine.run", "self_s"),
        "engine.step.calls": span("engine.step", "calls"),
        "engine.step.self_s": span("engine.step", "self_s"),
        "engine.trace_steps": counter("trace_steps", "engine.run"),
        "engine.cs_times.calls": span("engine.cs_times", "calls"),
        "engine.cs_times.self_s": span("engine.cs_times", "self_s"),
        "engine.is_cs.calls": span("engine.is_cs", "calls"),
        "engine.cycle_starts": counter("cycle_starts", "engine.cs_times"),
        "schedules.check_legal.calls": span("schedules.check_legal", "calls"),
        "schedules.check_legal.self_s": span("schedules.check_legal", "self_s"),
        "algorithms.enumerate_graphs.s": span("algorithms.enumerate_graphs", "self_s"),
        "algorithms.structural_check.self_s": span("algorithms.structural_check", "self_s"),
        "trace.overhead_frac": traced_wall / untraced_wall - 1,
        "trace.coverage": tracer.root_seconds() / traced_wall,
    }
    return values
