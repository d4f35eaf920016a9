"""The engine and legality check as they were before a step read the present
state from the newest history entries, cycle starts came from one walk over
the histories and legality from one pass over the slots.  A robot's state at
t is a bisect over its histories, and `check_legal` reads per-robot lists,
one window scan per robot and kind, and the rounds.  Kept as the reference of
the differential tests; `_reference_run` is the former `engine.run`.

`validate_certificate_twice` is `verify.validate_certificate` as it was
before a block that restores its entry pair unswapped at ratio 1 was
replayed once: it replays every block twice, through the present engine.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from lumirend import engine
from lumirend.core import (
    FSYNC,
    NON_RIGID,
    SSYNC,
    LightGraph,
    MovementModel,
    SchedulerClass,
    format_rational,
    start_distance,
    transition,
    truncate_move,
    validate_graph,
)
from lumirend.engine import (
    AtomicityViolation,
    EngineError,
    IllegalOp,
    IllegalSchedule,
    TraceStep,
    check_lights,
)
from lumirend.schedules import (
    ALL_OPS,
    COMPUTED,
    IDLE,
    LOOK_OPS,
    LOOKED,
    MOVING,
    OP_COMP,
    OP_LC,
    OP_LOOK,
    OP_M,
    OP_MB,
    OP_ME,
    OP_NONE,
    ROBOTS,
    Schedule,
    Slot,
    Violation,
    mirror,
    starved_robot,
)
from lumirend.verify import CertificateError

def destination(me: Fraction, other: Fraction, lam: Fraction) -> Fraction:
    """`core.destination` as it was, in three `Fraction` operations."""
    if lam == 0:
        return me
    if lam == 1:
        return other
    return me + lam * (other - me)


# Per-robot operation pattern: the cyclic order Look -> Comp -> MB -> ME, with
# LC merging Look+Comp, M merging MB+ME (end implied at t+1), and a cycle whose
# movement turns out empty allowed to omit its move ops entirely.
_NEXT_PHASE = {
    (IDLE, OP_LOOK): LOOKED,
    (IDLE, OP_LC): COMPUTED,
    (LOOKED, OP_COMP): COMPUTED,
    (COMPUTED, OP_MB): MOVING,
    (COMPUTED, OP_M): IDLE,
    (COMPUTED, OP_LOOK): LOOKED,  # declared no-move cycle
    (COMPUTED, OP_LC): COMPUTED,  # declared no-move cycle
    (MOVING, OP_ME): IDLE,
}

# The checks below, except `windows`, read one robot's (time, op) list, its ops
# other than '-' in time order.


# No spacing check is needed: a Schedule's times strictly increase, so one
# robot's ops are at least the one tick apart that Comp and M effects need.
def _check_pattern(ops: list[tuple[int, str]], robot: int) -> list[Violation]:
    phase = IDLE
    for t, op in ops:
        key = (phase, op)
        if key not in _NEXT_PHASE:
            return [
                Violation("cycle-order", robot, (t,), f"robot {robot}: op {op} illegal in phase {phase} at t={t}")
            ]
        phase = _NEXT_PHASE[key]
    return []


def windows(slots, robot: int, begin_op: str, end_op: str) -> dict[int, int]:
    """Begin time -> end time of each of `robot`'s `begin_op`..`end_op`
    windows in `slots`: an end closes the latest open begin."""
    spans = {}
    open_t = None
    for slot in slots:
        op = slot.ops[robot]
        if op == begin_op:
            open_t = slot.time
        elif op == end_op and open_t is not None:
            spans[open_t] = slot.time
            open_t = None
    return spans


def _check_rounds(ops: tuple[list, list], cls: SchedulerClass) -> list[Violation]:
    """FSYNC/SSYNC structure: cycles are instantaneous rounds.

    Encoded on the integer timeline as an LC at round time t with the move (if
    any) at t+1; no Look may coincide with a pending move tick, and FSYNC
    activates both robots in every round.
    """
    split = []  # (t, robot, op) of the ops that rounds forbid
    lc_times = ([], [])
    m_times = ([], [])
    for robot in ROBOTS:
        for t, op in ops[robot]:
            if op == OP_LC:
                lc_times[robot].append(t)
            elif op == OP_M:
                m_times[robot].append(t)
            elif op in (OP_LOOK, OP_COMP, OP_MB, OP_ME):
                split.append((t, robot, op))
    # the violations of one kind are reported in time order, robot 0 first
    problems = [
        Violation("round-structure", robot, (t,), f"{op} not allowed under {cls.kind}: cycles are atomic rounds")
        for t, robot, op in sorted(split)
    ]
    for robot in ROBOTS:
        lc_set = set(lc_times[robot])
        for t in m_times[robot]:
            if t - 1 not in lc_set:
                problems.append(Violation("round-structure", robot, (t,), f"M at t={t} is not adjacent to its LC"))
    move_ticks = set(m_times[0]) | set(m_times[1])
    for t, robot in sorted((t, robot) for robot in ROBOTS for t in lc_times[robot] if t in move_ticks):
        problems.append(Violation("round-structure", robot, (t,), f"Look at t={t} coincides with a move tick"))
    if cls.kind == FSYNC and lc_times[0] != lc_times[1]:
        problems.append(Violation("round-structure", None, (), "FSYNC requires both robots in every round"))
    return problems


def check_legal(s: Schedule, cls: SchedulerClass) -> list[Violation]:
    """Structural legality of a schedule under a scheduler class.

    Returns the list of violations (empty means legal): per-robot cycle order,
    atomic-op permissions, no foreign Look strictly inside a
    Look..Comp window (LC-atomic) or an MB..ME window (Move-atomic), and round
    structure for FSYNC/SSYNC.
    """
    problems: list[Violation] = []
    ops: tuple[list, list] = ([], [])  # per robot: (time, op), ops other than '-'
    for slot in s.prefix:
        t = slot.time
        for robot in ROBOTS:
            op = slot.ops[robot]
            if op == OP_NONE:
                continue
            ops[robot].append((t, op))
            if op not in ALL_OPS:
                problems.append(Violation("unknown-op", robot, (t,), f"unknown op {op!r}"))
            elif op == OP_LC and not cls.lc_atomic:
                problems.append(
                    Violation("atomicity", robot, (t,), "LC op requires an LC-atomic scheduler class")
                )
            # an atomic M spans (t, t+1): no integer-time Look can land inside,
            # so the shorthand is acceptable under every class

    for robot in ROBOTS:
        problems.extend(_check_pattern(ops[robot], robot))

    look_times = [[t for t, op in ops[r] if op in LOOK_OPS] for r in ROBOTS]
    atomic = []
    if cls.lc_atomic:
        atomic.append(("lc-window", OP_LOOK, OP_COMP, "Look..Comp window"))
    if cls.move_atomic:
        atomic.append(("move-window", OP_MB, OP_ME, "move window"))
    for kind, begin_op, end_op, name in atomic:
        for robot in ROBOTS:
            for a, b in windows(s.prefix, robot, begin_op, end_op).items():
                for t in look_times[1 - robot]:
                    if a < t < b:
                        problems.append(
                            Violation(kind, 1 - robot, (a, t, b), f"Look at t={t} lands inside robot {robot}'s {name} ({a},{b})")
                        )
    if cls.kind in (FSYNC, SSYNC):
        problems.extend(_check_rounds(ops, cls))
    return problems


@dataclass
class _Robot:
    """One robot's run-time state and append-only histories."""

    light_writes: list  # [(write_time, color)]; visible from write_time+1
    moves: list  # [(tb, te, start, land)]
    initial_pos: Fraction
    phase: str = IDLE
    snapshot: tuple[str, Fraction] | None = None
    pending: Fraction | None = None  # the destination Compute chose
    # one entry per cycle: its Look time, and the last instant at which the
    # cycle still changes the robot's color or position (the Look time while
    # it has changed neither)
    looks: list = field(default_factory=list)
    effective_until: list = field(default_factory=list)

    # Both histories are in time order.  Most queries are at the current
    # time and are answered from the newest write or move; an earlier time
    # bisects over the write or move-begin times.

    def light_at(self, t) -> str:
        writes = self.light_writes
        # the writes visible at t: made before t
        k = len(writes) if writes[-1][0] < t else bisect_left(writes, t, key=itemgetter(0))
        return writes[k - 1][1] if k else writes[0][1]

    def position_at(self, t) -> Fraction:
        moves = self.moves
        # the moves begun before t; the newest of them decides
        k = len(moves) if moves and moves[-1][0] < t else bisect_left(moves, t, key=itemgetter(0))
        if not k:
            return self.initial_pos
        tb, te, start, land = moves[k - 1]
        if t >= te:
            return land
        return start + (land - start) * Fraction(t - tb, te - tb)

    def committed(self, g: LightGraph, t) -> bool:
        """True if at time t the robot is moving, or has looked and will move,
        away from where it stands."""
        if self.phase == IDLE:
            return False
        here = self.position_at(t)
        if self.phase == MOVING:
            return self.moves[-1][3] != here
        if self.phase == COMPUTED:
            return self.pending != here
        _nl, lam = transition(g, self.snapshot[0])
        return destination(here, self.snapshot[1], lam) != here

    def mid_cycle(self, g: LightGraph, t) -> bool:
        """At a trace's end t: `committed`, or owing a Compute that changes its color."""
        owes_color = self.phase == LOOKED and transition(g, self.snapshot[0])[0] != self.light_at(t)
        return owes_color or self.committed(g, t)


class Trace:
    """A completed execution: the executed slots and each robot's histories,
    with exact state queries over them.

    `steps` holds one row per executed slot, derived on first read from the
    histories: they are append-only, so the writes and moves that began at or
    before a slot's time still give the state at the instant after it."""

    def __init__(self, graph, scheduler, movement, robots, slots, rendezvous_time):
        self.graph = graph
        self.scheduler = scheduler
        self.movement = movement
        self._robots = robots
        self.slots: list[Slot] = slots
        self.rendezvous_time = rendezvous_time
        self.end_time = slots[-1].time + 1 if slots else 0
        self._open_at_end = tuple(r.mid_cycle(graph, self.end_time) for r in robots)

    @cached_property
    def steps(self) -> list[TraceStep]:
        r0, r1 = self._robots
        rows = []
        for slot in self.slots:
            after = slot.time + 1
            p0, p1 = r0.position_at(after), r1.position_at(after)
            lights = (r0.light_at(after), r1.light_at(after))
            rows.append(TraceStep(slot.time, slot.ops, slot.fractions, lights, (p0, p1), abs(p0 - p1)))
        return rows

    # -- state queries -------------------------------------------------

    def light_at(self, robot: int, t: int) -> str:
        return self._robots[robot].light_at(t)

    def position_at(self, robot: int, t) -> Fraction:
        return self._robots[robot].position_at(t)

    # -- cycle start times ----------------------------------------------

    def is_cs(self, t: int) -> bool:
        """Whether t is a cycle start time (see `cs_times`)."""
        for r, open_end in zip(self._robots, self._open_at_end):
            k = bisect_left(r.looks, t)  # cycles whose Look came before t
            if k and (t <= r.effective_until[k - 1] or (open_end and k == len(r.looks))):
                return False
        return True

    def cs_times(self) -> list[int]:
        """All cycle start times: instants where both robots' next performed
        operations are Looks, after normalizing away operations that neither
        change a color nor move a robot.

        For each robot, the cycle whose Look came last before t decides: t is
        no cycle start if it is at or before that cycle's last effective
        instant.  That instant is the Compute time if the Compute changed the
        color, and the move's last instant if the move displaced the robot:
        the time of an atomic M, the ME of a split move, or, for a split move
        cut off by the rendezvous, the instant before its ME was due.  A last
        cycle still open at the trace's end has none if it leaves the robot
        committed to a displacing move or owing a Compute that changes the
        color; a Compute that changes nothing normalizes away."""
        candidates = {0, self.end_time}
        candidates.update(s.time for s in self.slots)
        return [t for t in sorted(candidates) if self.is_cs(t)]

    # -- export ----------------------------------------------------------

    def to_jsonl(self) -> str:
        lines = []
        for s in self.steps:
            lines.append(
                json.dumps(
                    {
                        "t": s.time,
                        "ops": list(s.ops),
                        "lights": list(s.lights_after),
                        "positions": [format_rational(p) for p in s.positions_after],
                        "distance": format_rational(s.distance_after),
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


class Simulation:
    """Mutable execution state driven one timed operation pair at a time."""

    def __init__(
        self,
        g: LightGraph,
        scheduler: SchedulerClass,
        movement: MovementModel,
        lights: Sequence[str],
        positions: Sequence[Fraction],
    ):
        validate_graph(g)
        check_lights(g, lights)
        self.g = g
        self.scheduler = scheduler
        self.movement = movement
        self.robots = [
            _Robot(light_writes=[(-1, lights[i])], moves=[], initial_pos=Fraction(positions[i]))
            for i in ROBOTS
        ]
        self.now = 0

    # -- observation helpers ----------------------------------------------

    def light_at(self, robot: int, t) -> str:
        return self.robots[robot].light_at(t)

    def position_at(self, robot: int, t) -> Fraction:
        return self.robots[robot].position_at(t)

    # -- the step relation -------------------------------------------------

    def step(
        self,
        t: int,
        ops: tuple[str, str],
        fractions: tuple[Fraction | None, Fraction | None] = (None, None),
        move_ends: tuple[int | None, int | None] = (None, None),
    ) -> None:
        """Apply one time instant's operation pair.

        `move_ends` supplies, for an MB op, the time its ME will occur, which
        fixes how the robot is observed mid-flight.
        """
        if t < self.now:
            raise EngineError("times must be non-decreasing")
        # all Looks read the state before any of this instant's writes
        observed = {}
        for i in ROBOTS:
            if ops[i] in (OP_LOOK, OP_LC):
                other = 1 - i
                observed[i] = (self.light_at(other, t), self.position_at(other, t))
        for i in ROBOTS:
            op = ops[i]
            if op == OP_NONE:
                continue
            r = self.robots[i]
            if op in (OP_LOOK, OP_LC):
                # a computed cycle that needs no move ends at the next Look
                if r.phase == COMPUTED and r.pending == r.position_at(t):
                    r.phase, r.pending, r.snapshot = IDLE, None, None
                if r.phase != IDLE:
                    raise IllegalOp(i, op, r.phase, t)
                r.snapshot = observed[i]
                r.looks.append(t)
                r.effective_until.append(t)
                r.phase = LOOKED
                if op == OP_LC:
                    if not self.scheduler.lc_atomic:
                        raise AtomicityViolation(f"LC op at t={t} needs an LC-atomic class")
                    self._do_comp(i, t)
            elif op == OP_COMP:
                if r.phase != LOOKED:
                    raise IllegalOp(i, op, r.phase, t)
                self._do_comp(i, t)
            elif op in (OP_MB, OP_M):
                if r.phase != COMPUTED:
                    raise IllegalOp(i, op, r.phase, t)
                te = t + 1 if op == OP_M else move_ends[i]
                if te is None or te <= t:
                    raise EngineError(f"robot {i}: MB at t={t} without a later ME")
                pos, dest, frac = r.position_at(t), r.pending, fractions[i]
                # a full move lands on its destination under either movement model
                land = dest if frac is None else truncate_move(pos, dest, self.movement, frac)
                r.moves.append((t, te, pos, land))
                if land != pos:
                    # in flight up to the instant before the move ends
                    r.effective_until[-1] = te - 1
                if op == OP_M:
                    # an atomic move ends in its own slot
                    r.phase, r.pending, r.snapshot = IDLE, None, None
                else:
                    r.phase = MOVING
            elif op == OP_ME:
                if r.phase != MOVING or r.moves[-1][1] != t:
                    raise IllegalOp(i, op, r.phase, t)
                if r.moves[-1][3] != r.moves[-1][2]:
                    r.effective_until[-1] = t
                r.phase, r.pending, r.snapshot = IDLE, None, None
            else:
                raise EngineError(f"unknown op {op!r}")
        self.now = t

    def _do_comp(self, i: int, t: int) -> None:
        r = self.robots[i]
        seen_color, seen_pos = r.snapshot
        next_light, lam = transition(self.g, seen_color)
        dest = destination(r.position_at(t), seen_pos, lam)
        if next_light != r.light_at(t):
            r.effective_until[-1] = t
        r.light_writes.append((t, next_light))
        r.pending = dest
        r.phase = COMPUTED


def _reference_run(
    g: LightGraph,
    schedule: Schedule,
    initial_colors: tuple[str, str],
    initial_distance,
    scheduler: SchedulerClass,
    movement: MovementModel,
    positions: tuple[Fraction, Fraction] | None = None,
    check: bool = True,
    stop_at_rendezvous: bool = True,
) -> Trace:
    """Execute a schedule deterministically and return the full trace.

    The robots start at positions 0 and `initial_distance` unless explicit
    positions are given.  The run executes every slot of the schedule and
    stops after the last one, or at the first instant at which the robots
    share a point with no robot committed to a displacing move: the trace's
    `rendezvous_time` (None with `stop_at_rendezvous=False`).
    """
    if check:
        violations = check_legal(schedule, scheduler)
        if violations:
            raise IllegalSchedule(violations)
    if positions is None:
        positions = (Fraction(0), start_distance(initial_distance))
    simstate = Simulation(g, scheduler, movement, list(initial_colors), positions)
    r0, r1 = simstate.robots
    slots = list(schedule.prefix)
    # per robot, the ME time of each split move by its MB time
    ends = [windows(slots, r, OP_MB, OP_ME) for r in ROBOTS]

    def met(t) -> bool:
        # rendezvous: one point, and no robot committed to a displacing move
        return r0.position_at(t) == r1.position_at(t) and not (r0.committed(g, t) or r1.committed(g, t))

    if stop_at_rendezvous and met(0):
        return Trace(g, scheduler, movement, simstate.robots, [], 0)
    for k, slot in enumerate(slots):
        t = slot.time
        simstate.step(t, slot.ops, slot.fractions, (ends[0].get(t), ends[1].get(t)))
        if stop_at_rendezvous and met(t + 1):
            return Trace(g, scheduler, movement, simstate.robots, slots[: k + 1], t + 1)
    return Trace(g, scheduler, movement, simstate.robots, slots, None)


def _replay_twice_block(cert, schedule, colors, distance, check):
    try:
        trace = engine.run(cert.graph, schedule, colors, distance, cert.scheduler, cert.movement, check=check)
    except EngineError as exc:
        raise CertificateError(f"the engine rejects the block: {exc}") from exc
    if trace.rendezvous_time is not None:
        raise CertificateError("block reaches rendezvous; not a divergence witness")
    if not trace.is_cs(trace.end_time):
        raise CertificateError("block does not end at a clean cycle start")
    return trace


def validate_certificate_twice(cert) -> None:
    """Replay the block twice, whatever the ratio and swap, with the checks
    and error texts of `verify.validate_certificate`."""
    if cert.ratio <= 0:
        raise CertificateError(f"ratio {cert.ratio} is not positive")
    if cert.entry_distance <= 0:
        raise CertificateError("entry distance must be positive")
    if starved_robot(cert.schedule_block.prefix) is not None:
        raise CertificateError("block is unfair: a robot completes no cycle")
    c_r, c_s = cert.entry_colors
    d0 = cert.entry_distance
    schedule = cert.schedule_block
    first = _replay_twice_block(cert, schedule, (c_r, c_s), d0, check=True)
    end1 = first.configuration_at(first.end_time)
    want1 = (c_s, c_r) if cert.swap else (c_r, c_s)
    if end1.pair != want1 or end1.d != cert.ratio * d0:
        raise CertificateError(
            f"first replay gave {end1.pair} at {end1.d}, expected {want1} at {cert.ratio * d0}"
        )
    if cert.movement.kind == NON_RIGID and cert.ratio < 1 and first.cuts_a_move():
        raise CertificateError("a move cut short cannot repeat at a smaller scale")
    if cert.swap:
        schedule = mirror(schedule)
    second = _replay_twice_block(cert, schedule, end1.pair, end1.d, check=False)
    end2 = second.configuration_at(second.end_time)
    if end2.pair != (c_r, c_s):
        raise CertificateError("second replay does not restore the entry pair")
    if end2.d != cert.ratio * end1.d:
        raise CertificateError(
            f"second replay gave distance {end2.d}, expected {cert.ratio * end1.d}"
        )
