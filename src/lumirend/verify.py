"""Verdicts, divergence certificates, counterexample replays, bounded
adversary-game search, and structural lower-bound checks.

A Diverges verdict is never bare: it carries a scaling-loop certificate, a
replayable schedule block under which a color pair recurs (possibly with the
robots' roles swapped) while the distance is multiplied by a fixed rational
ratio.  Certificates are re-validated by replay before being returned:
two replays of the block, or one when it restores the entry pair unswapped
at ratio 1, since a second replay would then run the first one again.

The adversary search explores the capped game fragment: at each integer time
the adversary activates one robot, the other, or both, and picks a move
fraction from a small set; moves are atomic events.  The reachable state
graph is explored to a depth bound, and the verdict comes from a fairness
analysis of its strongly connected components: a cycle in which both robots
complete cycles is a fair non-terminating execution, while a closed graph
without such a cycle sends every fair execution to rendezvous.  The analysis
also runs on the partial graph at depths 1, 2, 4, 8, ..., so a search stops
at the first of them whose fair cycle yields a certificate.

At the search level a round has one step function, `_step`: the search
expands states with it, and certificate extraction re-walks a fair cycle
with it.  Each robot's half-step at a state (its LC's new light and
destination, or the M of its pending destination) is worked out once, by
`_plan`, and `_step` combines the actors' plans for every adversary choice.
States are merged by `_canonical_key`, which translates, reflects and
scales in integers over a common denominator.  The engine (`run`) stays the
reference semantics: every certificate is validated by replaying its block
through the engine, so a search step that ever disagreed with the engine
would lose a certificate, never forge one.

A search reads only the colors on the forward orbits of its two start colors,
so its verdict does not change when colors are renamed.  `_search_core`
keeps each verdict under a key of the reached part of the graph with its
colors numbered in walk order (`_class_key`), and a relabeled search shares
it.  A shared `Diverges` is rebuilt on the caller's graph and colors and
replay-validated like a fresh one; `Inconclusive` verdicts are not shared.

The missing-label adversaries are policies over the lights, and the engine
is their only simulation.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable

from .algorithms import BadParameter, builtin, orbit
from .core import (
    ASYNC,
    FSYNC,
    NON_RIGID,
    RIGID,
    SSYNC,
    Edge,
    LightGraph,
    MovementModel,
    SchedulerClass,
    destination,
    format_rational,
    json_object,
    json_value,
    rational,
    rational_text,
    start_distance,
    transition,
    truncate_move,
    validate_graph,
)
from .engine import EngineError, Trace, check_lights, run
from .schedules import (
    ALT_ROWS,
    LOOK_OPS,
    OP_LC,
    OP_M,
    OP_NONE,
    ROBOTS,
    SIM_ROWS,
    Schedule,
    Slot,
    block,
    mirror,
    read_prefix,
    starved_robot,
)

# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Rendezvous:
    """The robots meet: at `time` on a trace; a search gives its horizon."""

    time: int
    kind: str = "rendezvous"


@dataclass(frozen=True)
class Diverges:
    """Some fair execution never meets, witnessed by a validated certificate."""

    certificate: "ScalingLoopCertificate"
    kind: str = "diverges"


@dataclass(frozen=True)
class Inconclusive:
    """Neither verdict was reached within `horizon`; `reason` says why."""

    horizon: int
    reason: str = ""
    kind: str = "inconclusive"


Verdict = Rendezvous | Diverges | Inconclusive


# ---------------------------------------------------------------------------
# Certificates


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class ScalingLoopCertificate:
    """Witness of non-termination: replaying `schedule_block` from the entry
    configuration reproduces the entry color pair (swapped when `swap` is
    set) with the distance multiplied by `ratio`."""

    graph: LightGraph
    scheduler: SchedulerClass
    movement: MovementModel
    entry_colors: tuple[str, str]
    entry_distance: Fraction
    schedule_block: Schedule
    ratio: Fraction
    swap: bool

    def to_json(self) -> str:
        """The certificate as the JSON object `from_json_dict` reads, byte
        for byte as `json.dumps(..., sort_keys=True, indent=2)` lays it out.
        It is written line by line: with `indent`, `json` runs its
        pure-Python encoder, several times slower.  Strings are escaped by
        `json`'s own ASCII encoder."""
        g, scheduler, delta = self.graph, self.scheduler, self.movement.delta
        edges = [_edge_json(c, e) for c, e in sorted(g.edges.items())]
        slots = [_slot_json(s) for s in self.schedule_block.prefix]
        return (
            "{\n"
            '  "algorithm": {\n'
            f'    "colors": {_json_strings(g.colors)},\n'
            f'    "edges": {_json_items(edges, "{}")}\n'
            "  },\n"
            '  "block": {\n'
            f'    "prefix": {_json_items(slots)}\n'
            "  },\n"
            '  "entry": {\n'
            f'    "colors": {_json_strings(self.entry_colors)},\n'
            f'    "distance": "{format_rational(self.entry_distance)}"\n'
            "  },\n"
            '  "movement": {\n'
            + ("" if delta is None else f'    "delta": "{format_rational(delta)}",\n')
            + f'    "kind": {_quote(self.movement.kind)}\n'
            "  },\n"
            f'  "ratio": "{format_rational(self.ratio)}",\n'
            '  "scheduler": {\n'
            f'    "kind": {_quote(scheduler.kind)},\n'
            f'    "lc_atomic": {_flag(scheduler.lc_atomic)},\n'
            f'    "move_atomic": {_flag(scheduler.move_atomic)}\n'
            "  },\n"
            f'  "swap": {_flag(self.swap)}\n'
            "}"
        )

    @staticmethod
    def from_json_dict(data: dict) -> "ScalingLoopCertificate":
        """Read a certificate file: exactly the keys `to_json` writes, each
        value with its JSON type, and a `"block"` of `"prefix"` slots alone.
        `SchedulerClass` and `MovementModel` check the kinds."""
        json_object(data, "a certificate", ("algorithm", "block", "entry", "movement", "ratio", "scheduler", "swap"))
        scheduler = json_object(data["scheduler"], "scheduler", ("kind", "lc_atomic", "move_atomic"))
        lc_atomic, move_atomic = (json_value(scheduler[k], bool, k) for k in ("lc_atomic", "move_atomic"))
        movement = json_object(data["movement"], "movement", ("kind",), ("delta",))
        delta = rational_text(movement["delta"]) if "delta" in movement else None
        entry = json_object(data["entry"], "entry", ("colors", "distance"))
        colors = entry["colors"]
        if not (isinstance(colors, list) and len(colors) == 2 and all(isinstance(c, str) for c in colors)):
            raise ValueError(f"entry colors must be two colors, not {colors!r}")
        return ScalingLoopCertificate(
            graph=LightGraph.from_json_dict(json_object(data["algorithm"], "algorithm", ("colors", "edges"))),
            scheduler=SchedulerClass(scheduler["kind"], lc_atomic, move_atomic),
            movement=MovementModel(movement["kind"], delta),
            entry_colors=tuple(colors),
            entry_distance=rational_text(entry["distance"]),
            schedule_block=read_prefix(json_object(data["block"], "block", ("prefix",))["prefix"]),
            ratio=rational_text(data["ratio"]),
            swap=json_value(data["swap"], bool, "swap"),
        )

    @staticmethod
    def from_json(text: str) -> "ScalingLoopCertificate":
        return ScalingLoopCertificate.from_json_dict(json.loads(text))


# The parts of `ScalingLoopCertificate.to_json` nested below its second
# level, one source line per output line.


def _edge_json(color: str, e: Edge) -> str:
    return (
        f"      {_quote(color)}: {{\n"
        f'        "lambda": "{format_rational(e.lam)}",\n'
        f'        "next": {_quote(e.target)}\n'
        "      }"
    )


def _slot_json(s: Slot) -> str:
    (o0, o1), (f0, f1) = s.ops, s.fractions
    return (
        "      {\n"
        '        "fractions": [\n'
        f"          {_fraction(f0)},\n"
        f"          {_fraction(f1)}\n"
        "        ],\n"
        '        "ops": [\n'
        f"          {_quote(o0)},\n"
        f"          {_quote(o1)}\n"
        "        ],\n"
        f'        "t": {s.time}\n'
        "      }"
    )


def _json_items(items: list[str], brackets: str = "[]") -> str:
    """A JSON array (or object) of items already indented to the third
    level, as `json.dumps(..., indent=2)` lays it out at the second."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n    {brackets[1]}"


def _json_strings(values) -> str:
    return _json_items([f"      {_quote(v)}" for v in values])


def _fraction(f: Fraction | None) -> str:
    return "null" if f is None else f'"{format_rational(f)}"'


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _replay_block(cert: ScalingLoopCertificate, schedule: Schedule, colors, distance, check) -> Trace:
    """Run a block, checked for legality when `check` is set; it must end at
    a clean cycle start with no rendezvous."""
    try:
        trace = run(cert.graph, schedule, colors, distance, cert.scheduler, cert.movement, check=check)
    except EngineError as exc:
        raise CertificateError(f"the engine rejects the block: {exc}") from exc
    if trace.rendezvous_time is not None:
        raise CertificateError("block reaches rendezvous; not a divergence witness")
    if not trace.is_cs(trace.end_time):
        raise CertificateError("block does not end at a clean cycle start")
    return trace


def validate_certificate(cert: ScalingLoopCertificate) -> None:
    """Replay the block through the engine, twice unless the second replay
    would repeat the first, and check the recurrence it claims; raises
    CertificateError if any obligation fails, also when the engine rejects
    the block.

    The first replay, from the entry colors at the entry distance d, checks
    the block's legality and must end at a clean cycle start (`Trace.is_cs`)
    with the recurring pair at distance ratio * d; the second, of the block
    (mirrored for a swap) from there, must restore the entry pair at
    ratio^2 * d, with no rendezvous in either.  The mirror needs no check of
    its own: every legality rule treats the two robots alike.  With ratio 1
    and no swap the second replay is the first one again: the same block
    from the same colors at the same distance, and a run is deterministic.
    So it would pass as the first did, and it is not run.

    The block then repeats at the distances ratio^n * d > 0, so a fair
    execution never meets, when the run scaled by ratio is one the adversary
    may choose again.  A rigid block is free of scale: every destination is
    an affine combination of the two robots' positions, so from distance
    s * d the block runs as from d, scaled by s.  Under non-rigid movement
    the three cases of the ratio differ:

    - ratio = 1: the block repeats exactly;
    - ratio > 1: the run scaled by s >= 1 is one the adversary may choose: a
      full move always is, and a cut that moves at least delta still does so
      at any larger scale;
    - ratio < 1: a cut travels max(delta, f * len) (`core.truncate_move`),
      a floor that does not scale: at distance ratio^n * d the cut would
      have to travel less than delta.  So the first replay may cut no move
      short.  A move it does not cut is taken in full or no longer than
      delta, and stays so at every smaller scale.
    """
    if cert.ratio <= 0:
        raise CertificateError(f"ratio {cert.ratio} is not positive")
    if cert.entry_distance <= 0:
        raise CertificateError("entry distance must be positive")
    if starved_robot(cert.schedule_block.prefix) is not None:
        raise CertificateError("block is unfair: a robot completes no cycle")
    c_r, c_s = cert.entry_colors
    d0 = cert.entry_distance
    # first traversal from the entry configuration
    schedule = cert.schedule_block
    first = _replay_block(cert, schedule, (c_r, c_s), d0, check=True)
    end1 = first.configuration_at(first.end_time)
    want1 = (c_s, c_r) if cert.swap else (c_r, c_s)
    if end1.pair != want1 or end1.d != cert.ratio * d0:
        raise CertificateError(
            f"first replay gave {end1.pair} at {end1.d}, expected {want1} at {cert.ratio * d0}"
        )
    if cert.movement.kind == NON_RIGID and cert.ratio < 1 and first.cuts_a_move():
        raise CertificateError("a move cut short cannot repeat at a smaller scale")
    if cert.ratio == 1 and not cert.swap:
        return
    # second traversal closes the loop: mirrored block for a swap recurrence
    if cert.swap:
        schedule = mirror(schedule)
    second = _replay_block(cert, schedule, end1.pair, end1.d, check=False)
    end2 = second.configuration_at(second.end_time)
    if end2.pair != (c_r, c_s):
        raise CertificateError("second replay does not restore the entry pair")
    if end2.d != cert.ratio * end1.d:
        raise CertificateError(
            f"second replay gave distance {end2.d}, expected {cert.ratio * end1.d}"
        )


# ---------------------------------------------------------------------------
# Rendezvous check and scaling-loop detection on traces


def check_rendezvous(trace: Trace) -> Verdict:
    """Rendezvous at the meeting `run` stopped at (`Trace.rendezvous_time`;
    none with `stop_at_rendezvous=False`), else inconclusive."""
    if trace.rendezvous_time is not None:
        return Rendezvous(trace.rendezvous_time)
    return Inconclusive(trace.end_time)


def _sanitize_block(slots: list[Slot]) -> tuple[Slot, ...]:
    """Strip each robot's leading no-effect ops (they precede its first Look
    and can be normalized out), then drop empty slots and rebase times, in
    one pass: the first kept slot holds the earlier first Look.  Empty when
    a robot takes no Look: such a block is unfair."""
    first0 = next((s.time for s in slots if s.ops[0] in LOOK_OPS), None)
    first1 = next((s.time for s in slots if s.ops[1] in LOOK_OPS), None)
    if first0 is None or first1 is None:
        return ()
    shift, late = min(first0, first1) - 1, max(first0, first1)
    cleaned = []
    for s in slots:
        t, ops, fracs = s.time, s.ops, s.fractions
        if t < late:
            if t < first0 and ops[0] != OP_NONE:
                ops, fracs = (OP_NONE, ops[1]), (None, fracs[1])
            if t < first1 and ops[1] != OP_NONE:
                ops, fracs = (ops[0], OP_NONE), (fracs[0], None)
        if ops != _IDLE_PAIR:
            cleaned.append(Slot(t - shift, ops, fracs))
    return tuple(cleaned)


_IDLE_PAIR = (OP_NONE, OP_NONE)


def detect_scaling_loop(trace: Trace) -> ScalingLoopCertificate | None:
    """Find a replay-validated scaling loop among the trace's cycle-start
    configurations: a color-pair recurrence (up to robot swap) with the
    distance scaled by a constant rational ratio in (0, 1].

    Pairs (i, j) of cycle starts are tried in order.  Colors are compared
    first; a distance is computed only for the cycle starts of a pair whose
    colors recur."""
    cs = trace.cs_times()
    pairs = trace.cs_lights()
    distances: list[Fraction | None] = [None] * len(cs)

    def distance(k: int) -> Fraction:
        if distances[k] is None:
            distances[k] = trace.distance_at(cs[k])
        return distances[k]

    slots = trace.slots
    slot_time = attrgetter("time")
    for i, ti in enumerate(cs):
        pi = pairs[i]
        mirrored = (pi[1], pi[0])
        for j in range(i + 1, len(cs)):
            pj = pairs[j]
            swap = pj == mirrored and pi[0] != pi[1]
            if not (swap or pj == pi):
                continue
            di = distance(i)
            if di <= 0:
                break
            dj = distance(j)
            if dj <= 0 or dj > di:
                continue
            lo = bisect_left(slots, ti, key=slot_time)
            hi = bisect_left(slots, cs[j], lo, key=slot_time)
            blk = _sanitize_block(slots[lo:hi])
            if not blk:
                continue
            cert = ScalingLoopCertificate(
                graph=trace.graph,
                scheduler=trace.scheduler,
                movement=trace.movement,
                entry_colors=pi,
                entry_distance=di,
                schedule_block=Schedule(blk),
                ratio=dj / di,
                swap=swap,
            )
            try:
                validate_certificate(cert)
                return cert
            except CertificateError:
                continue
    return None


# ---------------------------------------------------------------------------
# Replays of the published counterexample schedules

# one robot slips in an extra no-move cycle against the other's stale snapshot
_EXT5 = (("-", "LC"), ("LC", "-"), ("-", "LC"), ("M", "-"), ("-", "M"))
# the second robot completes a full extra cycle mid-block
_EXT6 = (("-", "LC"), ("LC", "-"), ("-", "M"), ("-", "LC"), ("M", "-"), ("-", "M"))


@dataclass(frozen=True)
class ReplayResult:
    """A replayed published counterexample: its inputs, verdict and trace."""

    graph: LightGraph
    schedule: Schedule
    initial: tuple[tuple[str, str], Fraction]
    verdict: Verdict
    trace: Trace


_COUNTEREXAMPLES = ("lemma6_alg_a", "lemma7_alg_b") + tuple(f"lemma9_{i}" for i in range(1, 7))


def counterexample_names() -> tuple[str, ...]:
    return _COUNTEREXAMPLES


def replay_paper_counterexample(name: str, lam=None, distance=1) -> ReplayResult:
    """Reconstruct a published counterexample's initial configuration and
    schedule, run it, and return a Diverges verdict with a validated
    scaling-loop certificate."""
    d = start_distance(distance)
    if d == 0:
        raise ValueError("initial distance must be positive")
    scheduler = SchedulerClass.asynchronous(lc_atomic=True, move_atomic=True)
    movement = MovementModel.rigid()

    if name in ("lemma6_alg_a", "lemma7_alg_b"):
        if lam is not None:
            raise BadParameter(f"{name} takes no coefficient")
        g, init = builtin(name.split("_", 1)[1]), ("B", "C")
        # the alternate and simultaneous rows, then again with the roles exchanged
        half = block(ALT_ROWS + SIM_ROWS)
        rows = [s.ops for s in half + mirror(Schedule(prefix=half)).prefix]
    elif name == "lemma9_1":
        lam = rational(lam if lam is not None else 0)
        g = builtin("alg1", lam)
        if lam == 0:
            init, rows = ("A", "C"), SIM_ROWS + SIM_ROWS
        else:
            init, rows = ("D", "A"), ALT_ROWS + ALT_ROWS
    elif name == "lemma9_2":
        lam = rational(lam if lam is not None else 1)
        g = builtin("alg2", lam)
        if lam == 1:
            init, rows = ("A", "B"), SIM_ROWS + _EXT5
        else:
            init, rows = ("B", "C"), ALT_ROWS + ALT_ROWS
    elif name in ("lemma9_3", "lemma9_4", "lemma9_5", "lemma9_6"):
        if lam is None:
            raise ValueError(f"{name} requires a coefficient")
        lam = rational(lam)
        g = builtin("alg" + name[-1], lam)
        init = ("A", "B")
        rows = ALT_ROWS + _EXT6 if name == "lemma9_3" else ALT_ROWS + ALT_ROWS
    else:
        raise KeyError(f"unknown counterexample {name!r}")

    # the block twice, so that its cycle start recurs
    schedule = Schedule(block(rows * 2))
    trace = run(g, schedule, init, d, scheduler, movement)
    cert = detect_scaling_loop(trace)
    if cert is None:
        raise CertificateError(f"{name}: no scaling loop found (unexpected)")
    return ReplayResult(g, schedule, (init, d), Diverges(cert), trace)


# ---------------------------------------------------------------------------
# Bounded adversary-game search

# a search stops exploring, capped, once its graph holds more states than this
MAX_STATES = 200_000

# the adversary's move fractions for a non-rigid move longer than delta: a cut
# to delta, or the full move
FRACTION_CHOICES = (Fraction(0), Fraction(1))


@dataclass(frozen=True)
class SearchConfig:
    """Settings of the bounded adversary-game search."""

    horizon: int
    scheduler: SchedulerClass
    movement: MovementModel

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.scheduler.kind == ASYNC and not self.scheduler.lc_atomic:
            raise ValueError("the game search explores the LC-atomic fragment only")


# an abstract search state: visible lights, per-robot pending destination
# (None when idle), absolute positions
_State = tuple[tuple[str, str], tuple[Fraction | None, Fraction | None], tuple[Fraction, Fraction]]

# the fraction of every rigid or short move: a full move, which lands on its
# destination under either movement model
_FULL = Fraction(1)


def _is_rendezvous_state(state: _State) -> bool:
    _lights, pendings, positions = state
    return positions[0] == positions[1] and all(p is None or p == positions[0] for p in pendings)


def _key_movement(g: LightGraph, movement: MovementModel) -> MovementModel | None:
    """The movement model `_canonical_key` may normalise distances by, decided
    once per search.  Rigid states are free of scale.  A non-rigid state whose
    span is at most delta behaves the same at any such span only while no move
    can leave the span, which holds when every label lies in [0, 1]; with any
    other label keys keep their scale (None)."""
    if movement.kind == RIGID or all(0 <= lam <= 1 for lam in g.labels()):
        return movement
    return None


def _canonical_key(state: _State, movement: MovementModel | None):
    """The state up to translation, reflection and scale, as
    (lights, pending 0, pending 1, position 1) with each coordinate a reduced
    (numerator, denominator) pair or None.

    The coordinates are brought to a common denominator, so translating,
    reflecting and scaling are integer operations, and each coordinate is
    reduced with one gcd at the end."""
    lights, pendings, (p0, p1) = state
    q0, q1 = pendings
    den = lcm(
        p0.denominator,
        p1.denominator,
        1 if q0 is None else q0.denominator,
        1 if q1 is None else q1.denominator,
    )
    base = p0.numerator * (den // p0.denominator)
    pos1 = p1.numerator * (den // p1.denominator) - base
    pend = [None if q is None else q.numerator * (den // q.denominator) - base for q in pendings]
    # reflect so that the first nonzero coordinate is positive
    for c in (pos1, *pend):
        if c:
            if c < 0:
                pos1 = -pos1
                pend = [None if p is None else -p for p in pend]
            break
    # each coordinate c becomes c * mul / div
    mul, div = 1, den
    if movement is None:
        pass
    elif movement.kind == RIGID and pos1 > 0:
        div = pos1
    else:
        everything = [0, pos1] + [p for p in pend if p is not None]
        span = max(everything) - min(everything)
        if movement.kind == RIGID:
            if span > 0:
                div = span
        elif span > 0:
            # span / den <= delta, then divide by span / delta
            delta = movement.delta
            if span * delta.denominator <= delta.numerator * den:
                mul, div = delta.numerator, span * delta.denominator

    def enc(c):
        if c is None:
            return None
        c *= mul
        k = gcd(c, div)
        return (c // k, div // k)

    return (lights, enc(pend[0]), enc(pend[1]), enc(pos1))


def _plan(state: _State, g: LightGraph, i: int) -> tuple[str | None, Fraction | None]:
    """Robot i's half-step, should it act at the next time instant:
    (new light, destination).

    An idle robot performs LC: the new light is its edge's target and the
    destination that edge's move, None when it stays put.  A robot with a
    pending destination, which only the LC-atomic asynchronous class leaves
    between steps, performs its M: the light is None and the destination the
    pending one."""
    lights, pendings, positions = state
    if pendings[i] is None:
        light, lam = transition(g, lights[1 - i])
        dest = destination(positions[i], positions[1 - i], lam)
        return light, None if dest == positions[i] else dest
    return None, pendings[i]


def _step(state: _State, g: LightGraph, cfg: SearchConfig, frac_of: dict, plans=None):
    """One adversary choice at the next time instant: the robots keyed in
    `frac_of` act, each move stopped by its fraction (None or `_FULL` is a
    full move).  `plans` holds each actor's `_plan`; it is worked out here
    when not given.

    Under FSYNC/SSYNC an actor runs a whole round, an LC row then, if it
    moves, an M row.  Under the LC-atomic asynchronous class an idle actor
    performs LC and a robot with a pending destination performs its M.
    Returns (slots, completions, child_state), slots as (ops, fractions) rows.
    """
    lights, pendings, positions = state
    rounds = cfg.scheduler.kind in (FSYNC, SSYNC)
    if plans is None:
        plans = [_plan(state, g, i) if i in frac_of else None for i in ROBOTS]
    new_lights = list(lights)
    new_pend = list(pendings)
    new_pos = list(positions)
    completions = []
    ops = [OP_NONE, OP_NONE]
    move_row = [OP_NONE, OP_NONE]
    move_fracs: list[Fraction | None] = [None, None]
    for i, frac in frac_of.items():
        light, dest = plans[i]
        if light is not None:
            new_lights[i] = light
            ops[i] = OP_LC
            if dest is None:
                completions.append(i)
                continue
            if not rounds:
                new_pend[i] = dest
                continue
        else:
            new_pend[i] = None
        if frac is None or frac is _FULL:
            new_pos[i] = dest
        else:
            new_pos[i] = truncate_move(positions[i], dest, cfg.movement, frac)
        (move_row if rounds else ops)[i] = OP_M
        move_fracs[i] = frac
        completions.append(i)
    if not rounds:
        slots = [(tuple(ops), tuple(move_fracs))]
    else:
        slots = [(tuple(ops), (None, None))]
        if move_row != [OP_NONE, OP_NONE]:
            slots.append((tuple(move_row), tuple(move_fracs)))
    child = (tuple(new_lights), tuple(new_pend), tuple(new_pos))
    return slots, frozenset(completions), child


def _timed(rows) -> tuple[Slot, ...]:
    """Slots at times 1, 2, ... from `_step`'s (ops, fractions) rows."""
    return tuple(Slot(t, ops, fracs) for t, (ops, fracs) in enumerate(rows, 1))


def _search_children(state: _State, g: LightGraph, cfg: SearchConfig):
    """Yield `_step`'s (slots, completions, child_state) for every adversary
    choice at the next time instant: every actor set, and every fraction
    choice for each actor whose non-rigid move at this instant is longer
    than delta.  Each robot's `_plan` is worked out once and shared by all
    the choices."""
    positions = state[2]
    rounds = cfg.scheduler.kind in (FSYNC, SSYNC)
    movement = cfg.movement
    plans = [_plan(state, g, i) for i in ROBOTS]
    choices = [(_FULL,), (_FULL,)]
    if movement.kind != RIGID:
        for i, (light, dest) in enumerate(plans):
            # an asynchronous LC only sets the pending destination
            moves = dest is not None and (rounds or light is None)
            if moves and abs(dest - positions[i]) > movement.delta:
                choices[i] = FRACTION_CHOICES
    actor_sets = ((0, 1),) if cfg.scheduler.kind == FSYNC else ((0,), (1,), (0, 1))
    for actors in actor_sets:
        for fracs in product(*(choices[i] for i in actors)):
            yield _step(state, g, cfg, dict(zip(actors, fracs)), plans)


@dataclass
class _Node:
    """One canonical search state and its explored out-edges."""

    index: int
    rep: _State
    depth: int
    rendezvous: bool
    expanded: bool = False
    edges: list = field(default_factory=list)  # (slots, completions, child_key)


class SearchGraph:
    """Depth-bounded reachable state graph for one initial configuration.

    By default the graph is explored to the horizon (or the state cap).  With
    `stop_at_certificate`, exploration also runs the fair-SCC test each time
    the BFS frontier reaches depth 1, 2, 4, 8, ... and stops as soon as that
    SCC yields a validated certificate, kept in `certificate`.  The partial
    graph is a subgraph of the full one, so a fair loop in it is one in the
    full graph too; a graph stopped early is never read for `Rendezvous`.
    """

    def __init__(
        self, g: LightGraph, cfg: SearchConfig, initial: _State, stop_at_certificate: bool = False
    ):
        self.g = g
        self.cfg = cfg
        self.nodes: dict = {}
        self.capped = False  # set when exploration stops at MAX_STATES
        self.certificate: ScalingLoopCertificate | None = None  # set on an early stop
        self._explore(initial, stop_at_certificate)

    def _explore(self, initial: _State, stop_at_certificate: bool) -> None:
        cfg = self.cfg
        key_movement = _key_movement(self.g, cfg.movement)
        self.root = _canonical_key(initial, key_movement)
        self.nodes[self.root] = _Node(0, initial, 0, _is_rendezvous_state(initial))
        frontier = [self.root]
        depth, milestone = 0, 1
        while frontier:
            next_frontier = []
            for key in frontier:
                node = self.nodes[key]
                if node.rendezvous or node.depth >= cfg.horizon:
                    continue
                if len(self.nodes) > MAX_STATES:
                    self.capped = True
                    return
                node.expanded = True
                for slots, completions, child in _search_children(node.rep, self.g, cfg):
                    ckey = _canonical_key(child, key_movement)
                    if ckey not in self.nodes:
                        self.nodes[ckey] = _Node(
                            len(self.nodes), child, node.depth + 1, _is_rendezvous_state(child)
                        )
                        next_frontier.append(ckey)
                    node.edges.append((slots, completions, ckey))
            frontier = next_frontier
            depth += 1
            # a complete graph (closed, or at the horizon) is tested once, by the caller
            if stop_at_certificate and frontier and depth == milestone and depth < cfg.horizon:
                milestone *= 2
                # a fair loop without a certificate: explore on
                verdict = self.fair_loop_verdict()
                if isinstance(verdict, Diverges):
                    self.certificate = verdict.certificate
                    return

    # -- strongly connected components over non-rendezvous nodes ------------

    def _sccs(self):
        """Yield the strongly connected components in Tarjan's order."""
        index: dict = {}
        low: dict = {}
        on_stack: set = set()
        stack: list = []
        work: list = []

        def visit(v):
            index[v] = low[v] = len(index)
            stack.append(v)
            on_stack.add(v)
            work.append((v, iter(self._succ(v))))

        for start in self.nodes:
            if start in index or self.nodes[start].rendezvous:
                continue
            visit(start)
            while work:
                v, it = work[-1]
                for w in it:
                    if w not in index:
                        visit(w)
                        break
                    if w in on_stack:
                        low[v] = min(low[v], index[w])
                else:
                    work.pop()
                    if work:
                        low[work[-1][0]] = min(low[work[-1][0]], low[v])
                    if low[v] == index[v]:
                        comp = []
                        while True:
                            w = stack.pop()
                            on_stack.discard(w)
                            comp.append(w)
                            if w == v:
                                break
                        yield comp

    def _succ(self, key):
        return [c for _slots, _comp, c in self.nodes[key].edges if not self.nodes[c].rendezvous]

    def fair_scc(self) -> list | None:
        """A strongly connected set of non-rendezvous states whose internal
        edges include a cycle completion for each robot, if one exists."""
        for comp in self._sccs():
            members = set(comp)
            seen: set[int] = set()
            for k in comp:
                for _slots, completions, child in self.nodes[k].edges:
                    if child in members:
                        seen |= completions
            if seen == {0, 1}:
                return sorted(members, key=lambda k: self.nodes[k].index)
        return None

    def fair_loop_verdict(self) -> Verdict | None:
        """The verdict of the first fair SCC, if there is one: Diverges with
        its certificate, or Inconclusive when it yields none."""
        comp = self.fair_scc()
        if comp is None:
            return None
        try:
            cert = self.certificate_from_scc(comp)
        except CertificateError as exc:
            return Inconclusive(self.cfg.horizon, f"fair loop found but its certificate is rejected: {exc}")
        if cert is None:
            return Inconclusive(self.cfg.horizon, "fair loop found but no clean certificate entry")
        return Diverges(cert)

    def open_frontier(self) -> bool:
        return any(not n.expanded and not n.rendezvous for n in self.nodes.values())

    # -- certificate extraction ---------------------------------------------

    def certificate_from_scc(self, comp: list) -> ScalingLoopCertificate | None:
        """A certificate from the shortest closed walk, through the earliest
        clean member of `comp`, on which both robots complete a cycle.

        The walk joins canonical states, so it is re-walked concretely from
        the member's state with `_search_children`, each time following the
        child whose slots are the walk's; the end state gives the ratio.
        `validate_certificate` then replays the block through the engine, so
        a search step that disagreed with the engine would reject the
        certificate, never accept a wrong one.

        Returns None when `comp` has no clean member or no such walk, and
        raises CertificateError when validation rejects the walk's
        certificate.
        """
        members = set(comp)
        clean = [
            k
            for k in comp
            if all(p is None for p in self.nodes[k].rep[1])
            and self.nodes[k].rep[2][0] != self.nodes[k].rep[2][1]
        ]
        if not clean:
            return None
        n0 = min(clean, key=lambda k: self.nodes[k].index)
        # shortest closed walk from n0 back to n0 collecting both completions
        start, goal = (n0, frozenset()), (n0, frozenset(ROBOTS))
        parents: dict = {start: None}
        queue = [start]
        while queue and goal not in parents:
            nxt = []
            for cur in queue:
                key, flags = cur
                for slots, completions, child in self.nodes[key].edges:
                    new = (child, flags | completions)
                    if child in members and new not in parents:
                        parents[new] = (cur, slots)
                        nxt.append(new)
            queue = nxt
        if goal not in parents:
            return None
        path = []
        node = goal
        while parents[node] is not None:
            node, slots = parents[node]
            path.append(slots)
        path.reverse()
        rep = state = self.nodes[n0].rep
        for slots in path:
            children = _search_children(state, self.g, self.cfg)
            state = next((child for s, _c, child in children if s == slots), None)
            if state is None:
                return None
        rows = [row for slots in path for row in slots]
        d0 = abs(rep[2][1] - rep[2][0])
        cert = ScalingLoopCertificate(
            graph=self.g,
            scheduler=self.cfg.scheduler,
            movement=self.cfg.movement,
            entry_colors=rep[0],
            entry_distance=d0,
            schedule_block=Schedule(_timed(rows)),
            ratio=abs(state[2][1] - state[2][0]) / d0,
            swap=False,
        )
        validate_certificate(cert)
        return cert


# Verdicts of finished searches by `_class_key`.  A Rendezvous is held as it
# is; a Diverges as (entry color numbers, entry distance, block, ratio, swap),
# rebuilt on the caller's graph and replay-validated at each hit.  An
# Inconclusive is not held: a rejected certificate's reason may name colors.
_MEMO: dict = {}


def _numbering(g: LightGraph, colors: tuple[str, str]) -> dict[str, int]:
    """The colors a search from `colors` can show, numbered in the order the
    out-edges reach them from colors[0], then from colors[1].  Out-degree one
    makes the order canonical: relabeled graphs number alike."""
    number: dict[str, int] = {}
    for c in colors:
        while c not in number:
            number[c] = len(number)
            c = g.edges[c].target
    return number


def _class_key(g: LightGraph, cfg: SearchConfig, colors: tuple[str, str], d: Fraction, number: dict):
    """What a search's verdict depends on, free of color names: the reached
    edges and starts by number, the config, the distance, and whether keys
    keep their scale (the one place the search reads unreached labels)."""
    edges = tuple((number[g.edges[c].target], g.edges[c].lam) for c in number)
    starts = (number[colors[0]], number[colors[1]])
    return edges, starts, cfg, d, _key_movement(g, cfg.movement) is None


def _search_core(g: LightGraph, cfg: SearchConfig, colors: tuple[str, str], distance) -> Verdict:
    """One search's verdict, shared by every relabeling of the part of the
    graph it reaches (`_MEMO`).  A shared certificate is rebuilt with the
    caller's graph and colors and validated again; a rejection there is a
    fault of the sharing and propagates as CertificateError."""
    d = start_distance(distance)
    check_lights(g, colors)
    number = _numbering(g, colors)
    key = _class_key(g, cfg, colors, d, number)
    held = _MEMO.get(key)
    if isinstance(held, Rendezvous):
        return held
    if held is not None:
        (i, j), d0, blk, ratio, swap = held
        order = list(number)
        cert = ScalingLoopCertificate(
            g, cfg.scheduler, cfg.movement, (order[i], order[j]), d0, blk, ratio, swap
        )
        validate_certificate(cert)
        return Diverges(cert)
    verdict = _search_fresh(g, cfg, colors, d)
    if isinstance(verdict, Rendezvous):
        _MEMO[key] = verdict
    elif isinstance(verdict, Diverges):
        c = verdict.certificate
        entry = (number[c.entry_colors[0]], number[c.entry_colors[1]])
        _MEMO[key] = (entry, c.entry_distance, c.schedule_block, c.ratio, c.swap)
    return verdict


def _search_fresh(g: LightGraph, cfg: SearchConfig, colors: tuple[str, str], d: Fraction) -> Verdict:
    initial: _State = ((colors[0], colors[1]), (None, None), (Fraction(0), d))
    graph = SearchGraph(g, cfg, initial, stop_at_certificate=True)
    if graph.certificate is not None:
        return Diverges(graph.certificate)
    verdict = graph.fair_loop_verdict()
    if verdict is not None:
        return verdict
    if graph.capped:
        return Inconclusive(cfg.horizon, f"open branches remain; state cap of {MAX_STATES} reached")
    if graph.open_frontier():
        return Inconclusive(cfg.horizon, "open branches remain; horizon too small")
    return Rendezvous(cfg.horizon)


def search_one(g: LightGraph, cfg: SearchConfig, colors: tuple[str, str], distance) -> Verdict:
    """Explore the adversary game from one initial configuration.

    For asynchronous classes a synchronous-rounds pre-pass runs first: round
    schedules form a subclass of any LC-atomic asynchronous class, so a
    divergence certificate found there is already a witness for the larger
    class, and it is far cheaper to find.  A rendezvous answer from the
    pre-pass proves nothing and falls through to the full search.
    """
    if cfg.scheduler.kind == ASYNC:
        pre = _search_core(g, SearchConfig(cfg.horizon, SchedulerClass.ssync(), cfg.movement), colors, distance)
        if isinstance(pre, Diverges):
            return pre
    return _search_core(g, cfg, colors, distance)


def reachable_cs_color_pairs(
    g: LightGraph, starts: Iterable[str], cfg: SearchConfig, distance=1
) -> set[frozenset]:
    """All unordered color pairs visible at clean cycle-start states across
    the bounded adversary tree from the given same-color starts."""
    pairs: set[frozenset] = set()
    for c in starts:
        initial: _State = ((c, c), (None, None), (Fraction(0), start_distance(distance)))
        graph = SearchGraph(g, cfg, initial)
        for node in graph.nodes.values():
            lights, pendings, _positions = node.rep
            if all(p is None for p in pendings):
                pairs.add(frozenset(lights))
    return pairs


# ---------------------------------------------------------------------------
# Stabilization classification


@dataclass(frozen=True)
class StabilizationReport:
    """Classification of an algorithm from its verdicts per ordered start."""

    classification: str
    same_color: dict
    mixed: dict
    horizon: int


SELF_STABILIZING = "self-stabilizing"
QUASI_SELF_STABILIZING = "quasi-self-stabilizing"
NON_QUASI_SELF_STABILIZING = "non-quasi-self-stabilizing"
NOT_SOLVING = "not-solving"


def classify_stabilization(g: LightGraph, cfg: SearchConfig, distance=1) -> StabilizationReport:
    """Empirical, horizon-bounded classification from search verdicts over all
    ordered color-pair starts."""
    same = {c: search_one(g, cfg, (c, c), distance) for c in g.colors}
    mixed = {
        (a, b): search_one(g, cfg, (a, b), distance)
        for a in g.colors
        for b in g.colors
        if a != b
    }
    all_same_ok = all(isinstance(v, Rendezvous) for v in same.values())
    all_mixed_ok = all(isinstance(v, Rendezvous) for v in mixed.values())
    if all_same_ok and all_mixed_ok:
        cls = SELF_STABILIZING
    elif all_same_ok and any(isinstance(v, Diverges) for v in mixed.values()):
        cls = QUASI_SELF_STABILIZING
    elif any(isinstance(v, Diverges) for v in same.values()) and any(
        isinstance(v, Rendezvous) for v in same.values()
    ):
        cls = NON_QUASI_SELF_STABILIZING
    else:
        cls = NOT_SOLVING
    return StabilizationReport(cls, same, mixed, cfg.horizon)


# ---------------------------------------------------------------------------
# Structural (label) necessities and the matching adversaries


@dataclass(frozen=True)
class StructuralReport:
    """Presence of the three structurally necessary labels, per same-color
    start orbit, with the adversary family that defeats each absence."""

    per_start_missing: dict  # start color -> tuple of missing labels

    def missing_anywhere(self) -> bool:
        return any(self.per_start_missing.values())


_REQUIRED = (Fraction(1, 2), Fraction(1), Fraction(0))
_REQUIRED_PAIRS = tuple((x, (x.numerator, x.denominator)) for x in _REQUIRED)


def structural_check(g: LightGraph) -> StructuralReport:
    """Per same-color start, the required labels (1/2, 1, 0) missing from
    its orbit.

    Orbit labels are compared as (numerator, denominator) pairs, which
    determine a reduced Fraction: hashing the Fraction costs a modular
    inverse."""
    validate_graph(g)
    pair_of = {c: (e.lam.numerator, e.lam.denominator) for c, e in g.edges.items()}
    per_start = {}
    for c in g.colors:
        labels = {pair_of[o] for o in orbit(g, c)}
        per_start[c] = tuple(x for x, pair in _REQUIRED_PAIRS if pair not in labels)
    return StructuralReport(per_start)


def missing_label_adversary(
    g: LightGraph, start: str, missing: Fraction, horizon: int = 40, distance=1
) -> tuple[Schedule, Trace, ScalingLoopCertificate | None]:
    """Build and run the defeating SSYNC schedule for a missing label.

    Missing 1/2 on the start's orbit: keep both robots synchronous; their
    colors stay equal and no round can close the gap.  Missing 1: alternate
    single activations; no robot can ever land on the other.  Missing 0:
    alternate, but activate both robots in any round whose mover would follow
    a full-jump edge, so the jump is always answered by a departure.

    The adversary is a policy over the lights alone, since an algorithm's
    next color and label depend only on the color its robot observes.  One
    table, built per call, gives for each color a robot may observe its next
    light, whether it moves (label non-zero) and whether it jumps onto the
    other robot (label 1).  A round is an LC row for its actors, then an M
    row for each actor that moves: the robots stand apart at every round
    start, so exactly these move.  Every actor reads the lights before the
    round's writes.  Each row is one of six constant op pairs, and its slot
    is built once, at its final time.  The engine is the only simulation:
    it runs all `horizon` rounds once, stopping at rendezvous, and the
    trace's executed slots are the returned schedule (empty for robots that
    start together).  `detect_scaling_loop` then looks for a certificate on
    the trace.
    """
    if missing not in _REQUIRED:
        raise ValueError(f"missing must be one of the labels 1/2, 1 and 0, not {missing}")
    # the policy reads the edges before the engine could reject them
    validate_graph(g)
    check_lights(g, (start,))
    table = {c: (e.target, e.lam != 0, e.lam == 1) for c, e in g.edges.items()}
    together, answer_jumps = missing == Fraction(1, 2), missing == 0
    light0 = light1 = start
    slots: list[Slot] = []
    t = 0
    parity = 0
    for _round in range(horizon):
        # each robot's edge, read from the other's light before any write
        next0, moves0, jumps0 = table[light1]
        next1, moves1, jumps1 = table[light0]
        if together:
            act0 = act1 = True
        elif parity == 0:
            act0, act1 = True, answer_jumps and jumps0
        else:
            act0, act1 = answer_jumps and jumps1, True
        parity = 1 - parity
        if act0:
            light0 = next0
        if act1:
            light1 = next1
        t += 1
        slots.append(Slot(t, _LC_ROWS[act0, act1]))
        move0, move1 = act0 and moves0, act1 and moves1
        if move0 or move1:
            t += 1
            slots.append(Slot(t, _M_ROWS[move0, move1]))
    trace = run(g, Schedule(tuple(slots)), (start, start), distance, SchedulerClass.ssync(), MovementModel.rigid())
    return Schedule(prefix=tuple(trace.slots)), trace, detect_scaling_loop(trace)


# a round's op pairs, keyed by which robots act (LC) or move (M)
_LC_ROWS = {(True, False): (OP_LC, OP_NONE), (False, True): (OP_NONE, OP_LC), (True, True): (OP_LC, OP_LC)}
_M_ROWS = {(True, False): (OP_M, OP_NONE), (False, True): (OP_NONE, OP_M), (True, True): (OP_M, OP_M)}
