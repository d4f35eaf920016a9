"""Event-timeline execution: integer-time Look/Comp/Move operations with stale
snapshots, delayed color visibility, and move interpolation.

Timing rules, all on the integer timeline:

* A Look at time t reads the other robot's color and position as of t.
* A Compute (or the LC composite) at time t sets the robot's new color and
  pending destination; both become observable from t+1 on.  A Look that lands
  exactly at the Compute time still sees the former color.
* A move spans [t_B, t_E]; an observer inside the window sees the position
  interpolated linearly, with the endpoints giving the pre- and post-move
  positions.  An atomic M at t is MB at t with the ME implied at t+1, and
  the robot is idle again once the M has run.
* When several operations share one time instant, every Look reads the state
  before any of that instant's writes apply.

A cycle whose computed destination equals the current position needs no Move:
the robot may take its next Look directly, and an explicitly scheduled M is a
no-op.  Executions are deterministic: one (graph, schedule, initial, fraction)
tuple yields exactly one trace.

A trace stores what the run did, not a snapshot per instant: the slots it
executed (cut at rendezvous) and each robot's append-only histories of light
writes and moves.  Step times strictly increase, so every write and move so
far was made before a step's instant: a step reads each robot's present
light and position from the newest history entries.  The run tests for a
meeting the same way: it compares the positions after a slot that moves a
robot (an M or MB), and asks whether a robot is still committed to a move
after every slot in which they agree.  A query about an earlier instant
bisects the histories.  The trace rows (`TraceStep`, the state effective
at t+1 after each executed slot) are derived from them on first read, and
the cycle starts with their color pairs come from one walk over the
histories.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import inf
from operator import itemgetter
from typing import Sequence

from .core import (
    LightGraph,
    MovementModel,
    SchedulerClass,
    destination,
    format_rational,
    start_distance,
    transition,
    truncate_move,
    validate_graph,
)
from . import schedules as sched
from .schedules import (
    COMPUTED,
    IDLE,
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
)


class EngineError(RuntimeError):
    pass


class IllegalOp(EngineError):
    def __init__(self, robot: int, op: str, phase: str, time: int):
        self.robot, self.op, self.phase, self.time = robot, op, phase, time
        super().__init__(f"robot {robot}: op {op} at t={time} illegal in phase {phase}")


class AtomicityViolation(EngineError):
    pass


class IllegalSchedule(EngineError):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


@dataclass(frozen=True)
class ConfigurationView:
    """The (c_r, c_s; d) abstraction: both colors plus exact distance."""

    c_r: str
    c_s: str
    d: Fraction

    @property
    def pair(self) -> tuple[str, str]:
        return (self.c_r, self.c_s)


@dataclass
class _Robot:
    """One robot's run-time state and append-only histories."""

    light_writes: list  # [(write_time, color)]; visible from write_time+1
    # [(tb, te, start, land, cut)]; `cut` when the adversary stopped the
    # move short of its destination
    moves: list
    initial_pos: Fraction
    pos: Fraction  # where the newest move lands (the start before any): the position once it ends
    phase: str = IDLE
    snapshot: tuple[str, Fraction] | None = None
    pending: Fraction | None = None  # the destination Compute chose
    # one entry per cycle: its Look time, and the last instant at which the
    # cycle still changes the robot's color or position (the Look time while
    # it has changed neither)
    looks: list = field(default_factory=list)
    effective_until: list = field(default_factory=list)

    # Both histories are in time order.  An earlier time bisects over the
    # write or move-begin times; the present is read from the newest entries.

    def light_at(self, t) -> str:
        writes = self.light_writes
        # the writes visible at t: made before t
        k = len(writes) if writes[-1][0] < t else bisect_left(writes, t, key=itemgetter(0))
        return writes[k - 1][1] if k else writes[0][1]

    def position_at(self, t) -> Fraction:
        moves = self.moves
        # the moves begun before t; the newest of them decides
        k = len(moves) if moves and moves[-1][0] < t else bisect_left(moves, t, key=itemgetter(0))
        return _position_after(moves[k - 1], t) if k else self.initial_pos

    def position_now(self, t) -> Fraction:
        """The position at t, an instant after every move so far began."""
        return _position_after(self.moves[-1], t) if self.phase == MOVING else self.pos

    def committed(self, g: LightGraph, t) -> bool:
        """True if at t, an instant after the robot's last operation, it is
        moving, or has looked and will move, away from where it stands."""
        phase = self.phase
        if phase == IDLE:
            return False
        if phase == MOVING:
            # in flight up to the instant before the move ends
            _tb, te, start, land, _cut = self.moves[-1]
            return t < te and land != start
        if phase == COMPUTED:
            return self.pending != self.pos
        _nl, lam = transition(g, self.snapshot[0])
        return destination(self.pos, self.snapshot[1], lam) != self.pos

    def mid_cycle(self, g: LightGraph, t) -> bool:
        """At a trace's end t: `committed`, or owing a Compute that changes its color."""
        owes_color = self.phase == LOOKED and transition(g, self.snapshot[0])[0] != self.light_writes[-1][1]
        return owes_color or self.committed(g, t)


def _position_after(move, t) -> Fraction:
    """The position at t of a robot whose newest move begun before t is `move`:
    interpolated linearly inside the move window, landed from its end on."""
    tb, te, start, land, _cut = move
    if t >= te:
        return land
    return start + (land - start) * Fraction(t - tb, te - tb)


@dataclass(frozen=True)
class TraceStep:
    """One trace row: an executed slot and the state effective at t+1."""

    time: int
    ops: tuple[str, str]
    fractions: tuple[Fraction | None, Fraction | None]
    lights_after: tuple[str, str]
    positions_after: tuple[Fraction, Fraction]
    distance_after: Fraction


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

    def distance_at(self, t) -> Fraction:
        return abs(self.position_at(0, t) - self.position_at(1, t))

    def configuration_at(self, t) -> ConfigurationView:
        return ConfigurationView(self.light_at(0, t), self.light_at(1, t), self.distance_at(t))

    def cuts_a_move(self) -> bool:
        """Whether the adversary stopped some move short of its destination."""
        return any(move[4] for r in self._robots for move in r.moves)

    # -- cycle start times ----------------------------------------------

    @cached_property
    def _cycle_bounds(self) -> tuple[tuple[list, list], tuple[list, list]]:
        """Per robot, its Look times and the in-cycle rule over them: with k
        Looks before t, the robot is still in a cycle at t, so that t is no
        cycle start, exactly when t <= bounds[k].  bounds[0] is -inf (no
        cycle yet); bounds[k] is the k-th cycle's last effective instant
        (see `cs_times`), or +inf for a last cycle still open at the end."""
        out = []
        for r in self._robots:
            bounds = [-inf, *r.effective_until]
            if len(bounds) > 1 and r.mid_cycle(self.graph, self.end_time):
                bounds[-1] = inf
            out.append((r.looks, bounds))
        return tuple(out)

    def is_cs(self, t: int) -> bool:
        """Whether t is a cycle start time (see `cs_times`)."""
        return all(t > bounds[bisect_left(looks, t)] for looks, bounds in self._cycle_bounds)

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
        return list(self._cycle_starts[0])

    def cs_lights(self) -> list[tuple[str, str]]:
        """The color pair at each of the `cs_times`, in the same order."""
        return list(self._cycle_starts[1])

    @cached_property
    def _cycle_starts(self) -> tuple[list[int], list[tuple[str, str]]]:
        """The cycle starts and their color pairs, from one walk over the
        candidate instants (0, the slot times and the end) and the histories."""
        candidates = [0, *(s.time for s in self.slots), self.end_time] if self.slots else [0]
        times, pairs = [], []
        for t, c0, c1 in zip(candidates, self._free_lights(0, candidates), self._free_lights(1, candidates)):
            if c0 is not None and c1 is not None:
                times.append(t)
                pairs.append((c0, c1))
        return times, pairs

    def _free_lights(self, i: int, candidates: list[int]) -> list[str | None]:
        """Per candidate t, in increasing order: robot i's light at t, or None
        where it is still in a cycle.  The Looks and the light writes before t
        are counted by advancing through each history once."""
        looks, bounds = self._cycle_bounds[i]
        writes = self._robots[i].light_writes
        n_looks, n_writes = len(looks), len(writes)
        k, j = 0, 1  # the Looks and the writes before t; the initial light is always in
        out = []
        for t in candidates:
            while k < n_looks and looks[k] < t:
                k += 1
            if t <= bounds[k]:
                out.append(None)
                continue
            while j < n_writes and writes[j][0] < t:
                j += 1
            out.append(writes[j - 1][1])
        return out

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

    def to_csv(self) -> str:
        rows = ["t,op_r,op_s,light_r,light_s,position_r,position_s,distance"]
        for s in self.steps:
            rows.append(
                ",".join(
                    [
                        str(s.time),
                        s.ops[0],
                        s.ops[1],
                        s.lights_after[0],
                        s.lights_after[1],
                        format_rational(s.positions_after[0]),
                        format_rational(s.positions_after[1]),
                        format_rational(s.distance_after),
                    ]
                )
            )
        return "\n".join(rows) + "\n"


def check_lights(g: LightGraph, lights) -> None:
    """Reject a start whose initial lights are not all colors of `g`."""
    for c in lights:
        if c not in g.edges:
            raise ValueError(f"initial light {c} not in the color set")


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
        starts = [p if isinstance(p, Fraction) else Fraction(p) for p in positions]
        self.robots = [
            _Robot(light_writes=[(-1, lights[i])], moves=[], initial_pos=starts[i], pos=starts[i]) for i in ROBOTS
        ]
        self.now = -1  # the time of the latest step

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
        fixes how the robot is observed mid-flight.  Times strictly increase,
        so every write and move so far was made before t, and a robot's light
        and position at t are read from its newest history entries.
        """
        if t <= self.now:
            raise EngineError("times must increase")
        r0, r1 = self.robots
        op0, op1 = ops
        # all Looks read the state before any of this instant's writes
        seen0 = (r1.light_writes[-1][1], r1.position_now(t)) if op0 == OP_LC or op0 == OP_LOOK else None
        seen1 = (r0.light_writes[-1][1], r0.position_now(t)) if op1 == OP_LC or op1 == OP_LOOK else None
        if op0 != OP_NONE:
            self._act(0, r0, op0, t, seen0, fractions[0], move_ends[0])
        if op1 != OP_NONE:
            self._act(1, r1, op1, t, seen1, fractions[1], move_ends[1])
        self.now = t

    def _act(self, i: int, r: _Robot, op: str, t: int, seen, frac, move_end) -> None:
        """Robot i performs `op` at t; a Look records `seen`, an MB lands by
        `frac` and ends at `move_end`.  The robot stands at `r.pos` unless it
        is moving, and only an ME is legal then."""
        if op == OP_LOOK or op == OP_LC:
            # a computed cycle that needs no move ends at the next Look
            if r.phase == COMPUTED and r.pending == r.pos:
                r.phase, r.pending, r.snapshot = IDLE, None, None
            if r.phase != IDLE:
                raise IllegalOp(i, op, r.phase, t)
            r.snapshot = seen
            r.looks.append(t)
            r.effective_until.append(t)
            r.phase = LOOKED
            if op == OP_LC:
                if not self.scheduler.lc_atomic:
                    raise AtomicityViolation(f"LC op at t={t} needs an LC-atomic class")
                self._do_comp(r, t)
        elif op == OP_COMP:
            if r.phase != LOOKED:
                raise IllegalOp(i, op, r.phase, t)
            self._do_comp(r, t)
        elif op == OP_MB or op == OP_M:
            if r.phase != COMPUTED:
                raise IllegalOp(i, op, r.phase, t)
            te = t + 1 if op == OP_M else move_end
            if te is None or te <= t:
                raise EngineError(f"robot {i}: MB at t={t} without a later ME")
            pos, dest = r.pos, r.pending
            # a full move lands on its destination under either movement model
            if frac is None or frac == 1:
                land, cut = dest, False
            else:
                try:
                    land = truncate_move(pos, dest, self.movement, frac)
                except ValueError as exc:
                    raise EngineError(f"robot {i}: {op} at t={t}: {exc}") from None
                cut = land != dest
            r.moves.append((t, te, pos, land, cut))
            r.pos = land
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
            if r.pos != r.moves[-1][2]:
                r.effective_until[-1] = t
            r.phase, r.pending, r.snapshot = IDLE, None, None
        else:
            raise EngineError(f"unknown op {op!r}")

    def _do_comp(self, r: _Robot, t: int) -> None:
        seen_color, seen_pos = r.snapshot
        edge = self.g.edges[seen_color]
        if edge.target != r.light_writes[-1][1]:
            r.effective_until[-1] = t
        r.light_writes.append((t, edge.target))
        r.pending = destination(r.pos, seen_pos, edge.lam)
        r.phase = COMPUTED


def _move_end(slots, k: int, robot: int) -> int | None:
    """The time of the ME that ends `robot`'s MB in slot k: its next MB or
    ME decides, and an MB first leaves the move without an end."""
    for slot in slots[k + 1 :]:
        op = slot.ops[robot]
        if op == OP_ME:
            return slot.time
        if op == OP_MB:
            return None
    return None


def run(
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
        violations = sched.check_legal(schedule, scheduler)
        if violations:
            raise IllegalSchedule(violations)
    if positions is None:
        positions = (_ORIGIN, start_distance(initial_distance))
    simstate = Simulation(g, scheduler, movement, list(initial_colors), positions)
    r0, r1 = simstate.robots
    slots = list(schedule.prefix)
    # rendezvous: one point, and no robot committed to a displacing move; a
    # robot stands at `pos` unless it is in flight on a displacing move, and
    # then it is committed.  Only an M or MB sets a `pos`, so the positions
    # are compared after those slots alone; `committed` is asked after every
    # slot in which they agree, since an ME or a Look may end the commitment
    met = stop_at_rendezvous and r0.pos == r1.pos
    if met and not (r0.committed(g, 0) or r1.committed(g, 0)):
        return Trace(g, scheduler, movement, simstate.robots, [], 0)
    step = simstate.step
    for k, slot in enumerate(slots):
        t, ops = slot.time, slot.ops
        begins = OP_MB in ops
        # per robot, the ME time of an MB in this slot
        ends = (_move_end(slots, k, 0), _move_end(slots, k, 1)) if begins else _NO_ENDS
        step(t, ops, slot.fractions, ends)
        if begins or OP_M in ops:
            met = stop_at_rendezvous and r0.pos == r1.pos
        if met and not (r0.committed(g, t + 1) or r1.committed(g, t + 1)):
            return Trace(g, scheduler, movement, simstate.robots, slots[: k + 1], t + 1)
    return Trace(g, scheduler, movement, simstate.robots, slots, None)


_NO_ENDS = (None, None)
_ORIGIN = Fraction(0)
