"""Command-line surface: run traces, verify algorithms, enumerate classes,
replay the published counterexamples, and validate certificates.

Exit codes mirror verdicts: 0 rendezvous, 2 divergence, 3 inconclusive,
1 usage or validation error.  Each command takes only the flags it reads.
Output is byte-deterministic for identical flags; `verify --timestamp`
stamps the report (at the cost of reproducibility).  Rationals on the
command line are p/q strings; decimals are rejected.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import schedules as sched
from .algorithms import (
    BUILTIN_NAMES,
    builtin,
    classify_shape,
    count_graphs,
    enumerate_graphs,
)
from .core import (
    ASYNC,
    FSYNC,
    SSYNC,
    LightGraph,
    MovementModel,
    SchedulerClass,
    format_rational,
    json_value,
    rational,
)
from .engine import EngineError, run
from .verify import (
    Diverges,
    Inconclusive,
    Rendezvous,
    ScalingLoopCertificate,
    SearchConfig,
    check_rendezvous,
    classify_stabilization,
    counterexample_names,
    detect_scaling_loop,
    replay_paper_counterexample,
    search_one,
    structural_check,
    validate_certificate,
)

DEFAULT_HORIZON = 64
SEARCH_CLASS = "async,lc-atomic"
ENUMERATE_LIMIT = 1000

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGES = 2
EXIT_INCONCLUSIVE = 3


def _parse_class(text: str) -> SchedulerClass:
    kind = ASYNC
    lc = mv = False
    for part in filter(None, (p.strip() for p in text.split(","))):
        if part in (FSYNC, SSYNC, ASYNC):
            kind = part
        elif part == "lc-atomic":
            lc = True
        elif part == "move-atomic":
            mv = True
        else:
            raise ValueError(f"unknown scheduler class part {part!r}")
    if kind in (FSYNC, SSYNC):
        return SchedulerClass(kind, True, True)
    return SchedulerClass(kind, lc, mv)


def _movement(args) -> MovementModel:
    if args.rigid and args.nonrigid:
        raise ValueError("--rigid and --nonrigid exclude each other")
    if args.nonrigid:
        if not args.delta:
            raise ValueError("--nonrigid requires --delta p/q")
        return MovementModel.non_rigid(rational(args.delta))
    if args.delta:
        raise ValueError("--delta requires --nonrigid")
    return MovementModel.rigid()


def _graph(args) -> LightGraph:
    name = args.alg
    if Path(name).suffix == ".json":
        if args.lam:
            raise ValueError(f"{name} takes no coefficient")
        return LightGraph.from_json(Path(name).read_text())
    return builtin(name, rational(args.lam) if args.lam else None)


def _schedule(name: str, horizon: int) -> sched.Schedule:
    """The named or file schedule, cut at `horizon`."""
    if name == "alt":
        return sched.alt(horizon)
    if name == "sim":
        return sched.sim(horizon)
    return sched.Schedule.from_json_dict(json.loads(Path(name).read_text()), horizon)


def _parse_init(text: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError("--init takes two colors, e.g. A,A")
    return (parts[0], parts[1])


def _verdict_dict(v) -> dict:
    if isinstance(v, Rendezvous):
        return {"kind": "rendezvous", "time": v.time}
    if isinstance(v, Diverges):
        return {"kind": "diverges", "certificate": json.loads(v.certificate.to_json())}
    return {"kind": "inconclusive", "horizon": v.horizon, "reason": v.reason}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    g = _graph(args)
    scheduler = _parse_class(args.scheduler_class)
    movement = _movement(args)
    if args.horizon < 1:
        raise ValueError("horizon must be at least 1")
    schedule = _schedule(args.schedule, args.horizon)
    init = _parse_init(args.init)
    trace = run(g, schedule, init, rational(args.dist), scheduler, movement)
    _emit(trace.to_csv() if args.format == "csv" else trace.to_jsonl(), args.out)
    verdict = check_rendezvous(trace)
    if isinstance(verdict, Rendezvous):
        return EXIT_OK
    cert = detect_scaling_loop(trace)
    if cert is not None:
        payload = cert.to_json() + "\n"
        if args.cert_out:
            Path(args.cert_out).write_text(payload)
        else:
            sys.stderr.write(payload)
        return EXIT_DIVERGES
    return EXIT_INCONCLUSIVE


def cmd_verify(args) -> int:
    g = _graph(args)
    scheduler = _parse_class(args.scheduler_class)
    movement = _movement(args)
    cfg = SearchConfig(args.horizon, scheduler, movement)
    report: dict = {"algorithm": args.alg, "horizon": args.horizon, "empirical": True}
    if args.timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    if args.init:
        init = _parse_init(args.init)
        verdict = search_one(g, cfg, init, rational(args.dist))
        report["initial"] = ",".join(init)
        report["verdict"] = _verdict_dict(verdict)
        _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
        if isinstance(verdict, Diverges):
            return EXIT_DIVERGES
        if isinstance(verdict, Inconclusive):
            return EXIT_INCONCLUSIVE
        return EXIT_OK
    result = classify_stabilization(g, cfg, rational(args.dist))
    report["classification"] = result.classification
    report["same_color"] = {c: _verdict_dict(v) for c, v in sorted(result.same_color.items())}
    report["mixed"] = {f"{a},{b}": _verdict_dict(v) for (a, b), v in sorted(result.mixed.items())}
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _survey_row(index: int, g: LightGraph, cfg: SearchConfig, dist: Fraction) -> list[str]:
    shape = classify_shape(g)
    struct = structural_check(g)
    edges = ";".join(f"{c}>{g.edges[c].target}:{format_rational(g.edges[c].lam)}" for c in g.colors)
    # labels contain '/', so a start's missing labels are separated by spaces
    missing = ";".join(
        f"{c}:{' '.join(format_rational(m) for m in miss)}"
        for c, miss in sorted(struct.per_start_missing.items())
        if miss
    )
    verdicts = []
    for c in g.colors:
        v = search_one(g, cfg, (c, c), dist)
        verdicts.append(f"{c},{c}:{v.kind}")
    return [
        str(index),
        edges,
        f"sccs={shape.scc_count}",
        f"selfloops={len(shape.self_loops)}",
        f"twocycles={len(shape.two_cycles)}",
        missing or "none",
        ";".join(verdicts),
    ]


def cmd_enumerate(args) -> int:
    labels = [rational(x) for x in args.labels.split(",")]
    total = count_graphs(args.colors, labels)
    if total > ENUMERATE_LIMIT and not args.force:
        sys.stderr.write(
            f"enumeration of {total} algorithms exceeds the limit of {ENUMERATE_LIMIT}; pass --force\n"
        )
        return EXIT_ERROR
    scheduler = _parse_class(args.scheduler_class)
    movement = _movement(args)
    cfg = SearchConfig(args.horizon, scheduler, movement)
    dist = rational(args.dist)
    rows = [_survey_row(i, g, cfg, dist) for i, g in enumerate(enumerate_graphs(args.colors, labels))]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "edges", "sccs", "selfloops", "twocycles", "missing_labels", "verdicts"])
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    inconclusive = sum(row[-1].count("inconclusive") for row in rows)
    sys.stderr.write(f"{inconclusive} inconclusive verdicts at horizon {args.horizon}\n")
    return EXIT_OK


def cmd_replay(args) -> int:
    if args.validate:
        # validation reads only the certificate and always reports on stdout
        unread = {"a counterexample name": args.name, "--lambda": args.lam, "--dist": args.dist, "--out": args.out}
        for what, value in unread.items():
            if value is not None:
                raise ValueError(f"--validate takes no {what}")
        cert = ScalingLoopCertificate.from_json(Path(args.validate).read_text())
        validate_certificate(cert)
        sys.stdout.write(
            f"certificate valid: pair {'/'.join(cert.entry_colors)}"
            f"{' swapped' if cert.swap else ''}, ratio {format_rational(cert.ratio)}\n"
        )
        return EXIT_DIVERGES
    if not args.name:
        raise ValueError("replay needs a counterexample name or --validate FILE")
    lam = rational(args.lam) if args.lam else None
    result = replay_paper_counterexample(args.name, lam, 1 if args.dist is None else rational(args.dist))
    cert = result.verdict.certificate
    _emit(cert.to_json() + "\n", args.out)
    return EXIT_DIVERGES


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: argparse's 2 is the verdict code for divergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lumirend",
        description="simulate and verify two-robot rendezvous algorithms with external lights",
    )
    parser.add_argument("--config", help="JSON file supplying default values for the command's flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def model(p, scheduler_class):
        p.add_argument("--class", dest="scheduler_class", default=scheduler_class,
                       help="scheduler class: fsync | ssync | async, plus lc-atomic, move-atomic "
                            f"(default: {scheduler_class})")
        p.add_argument("--rigid", action="store_true", help="rigid movement (default)")
        p.add_argument("--nonrigid", action="store_true", help="non-rigid movement; needs --delta")
        p.add_argument("--delta", help="minimum movement distance as p/q; needs --nonrigid")
        p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)

    def common(p, lam=True, dist="1"):
        p.add_argument("--dist", default=dist, help="initial distance as p/q (default: 1)")
        if lam:
            p.add_argument("--lambda", dest="lam", help="coefficient for parameterized algorithms")
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("run", help="execute one schedule and export the trace")
    model(p, "async")
    common(p)
    p.add_argument("--alg", required=True, help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or graph JSON file")
    p.add_argument("--schedule", required=True, help="alt | sim | schedule JSON file")
    p.add_argument("--init", required=True, help="initial colors, e.g. A,A")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--cert-out", help="file for a divergence certificate (default stderr)")
    p.set_defaults(func=cmd_run)

    # the search explores the LC-atomic fragment, so its commands default to it
    p = sub.add_parser("verify", help="classify stabilization by bounded adversary search")
    model(p, SEARCH_CLASS)
    common(p)
    p.add_argument("--timestamp", action="store_true",
                   help="stamp the report with the current time (breaks reproducibility)")
    p.add_argument("--alg", required=True)
    p.add_argument("--init", help="verify a single initial color pair instead of classifying")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="survey all k-color algorithms")
    model(p, SEARCH_CLASS)
    common(p, lam=False)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--labels", default="0,1/2,1", help="comma-separated rational labels")
    p.add_argument("--force", action="store_true",
                   help=f"allow enumerations of more than {ENUMERATE_LIMIT} algorithms")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("replay", help="replay a published counterexample schedule")
    common(p, dist=None)  # a --dist not given, which --validate checks
    p.add_argument("name", nargs="?", choices=counterexample_names(),
                   help="counterexample name")
    p.add_argument("--validate", help="re-run a certificate file instead of generating one")
    p.set_defaults(func=cmd_replay)

    parser.commands = sub.choices  # each command's own parser, by name
    return parser


def _install_config(parser: argparse.ArgumentParser, command: str, path: str) -> None:
    """Install a config file's values as defaults on `command`'s own parser,
    as subparsers parse into a fresh namespace; a key that is no flag of it is an error.
    A switch takes true or false; a valued flag, a string or a number read as its text."""
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        raise ValueError(f"{path} must hold a JSON object")
    p = parser.commands[command]
    actions = {action.dest: action for action in p._actions if action.dest != "help"}
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise ValueError(f"{path} sets unknown keys: {', '.join(unknown)}")
    for key, value in config.items():
        action = actions[key]
        if action.nargs == 0:
            json_value(value, bool, f"{path}: {key}")
        elif isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"{path}: {key} must be a string or a number, not {value!r}")
        else:
            try:
                config[key] = p._get_values(action, [str(value)])
            except argparse.ArgumentError as exc:
                raise ValueError(f"{path}: {exc}") from None
    p.set_defaults(**config)


def main(argv=None) -> int:
    parser = build_parser()
    args, _unknown = parser.parse_known_args(argv)
    try:
        if args.config:
            _install_config(parser, args.command, args.config)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, OSError, EngineError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
