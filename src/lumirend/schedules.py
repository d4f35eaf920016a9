"""Timed operation schedules: representation, the named `alt`/`sim` schedules,
legality under a scheduler class, and fairness over repeating loops.

A schedule is data, not callbacks, so that verdicts can embed schedules as
replayable witnesses.  Times are positive integers; an infinite schedule is a
finite prefix plus a repeating loop block, unrolled lazily up to a horizon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import FSYNC, SSYNC, SchedulerClass, format_rational, rational

OP_LOOK = "LOOK"
OP_COMP = "COMP"
OP_LC = "LC"
OP_MB = "MB"
OP_ME = "ME"
OP_M = "M"
OP_NONE = "-"

ALL_OPS = (OP_LOOK, OP_COMP, OP_LC, OP_MB, OP_ME, OP_M, OP_NONE)
LOOK_OPS = (OP_LOOK, OP_LC)
ROBOTS = (0, 1)

# a robot's phase within its Look-Compute-Move cycle
IDLE = "idle"
LOOKED = "looked"
COMPUTED = "computed"
MOVING = "moving"


@dataclass(frozen=True)
class Slot:
    """One integer time instant: the op each robot performs (or '-') and the
    adversary's move fraction for M/MB ops (None means full movement)."""

    time: int
    ops: tuple[str, str]
    fractions: tuple[Fraction | None, Fraction | None] = (None, None)


@dataclass(frozen=True)
class LoopBlock:
    """Repeating block; offsets are 1..period relative to the block start."""

    period: int
    slots: tuple[Slot, ...]  # slot.time holds the offset within the block


@dataclass(frozen=True)
class Schedule:
    """A finite prefix of slots, then an optional loop repeated to `horizon`."""

    prefix: tuple[Slot, ...] = ()
    loop: LoopBlock | None = None
    horizon: int | None = None

    def __post_init__(self):
        last = 0
        for slot in self.prefix:
            if slot.time <= last:
                raise ValueError("prefix times must be strictly increasing")
            last = slot.time
        if self.loop is not None:
            off = 0
            for slot in self.loop.slots:
                if slot.time <= off:
                    raise ValueError("loop offsets must be strictly increasing")
                off = slot.time
            if off > self.loop.period:
                raise ValueError("loop offsets exceed the period")
            if self.horizon is None:
                raise ValueError("a horizon is required when a loop is present")

    def unroll(self, horizon: int | None = None) -> Iterator[Slot]:
        """Yield concrete slots in time order up to the horizon (inclusive)."""
        limit = horizon if horizon is not None else self.horizon
        for slot in self.prefix:
            if limit is not None and slot.time > limit:
                return
            yield slot
        if self.loop is None:
            return
        if limit is None:
            raise ValueError("cannot unroll an infinite schedule without a horizon")
        base = self.prefix[-1].time if self.prefix else 0
        while True:
            for slot in self.loop.slots:
                t = base + slot.time
                if t > limit:
                    return
                yield Slot(t, slot.ops, slot.fractions)
            base += self.loop.period

    def to_json_dict(self) -> dict:
        def frac(f):
            return None if f is None else format_rational(f)

        data: dict = {
            "prefix": [
                {"t": s.time, "ops": list(s.ops), "fractions": [frac(f) for f in s.fractions]}
                for s in self.prefix
            ]
        }
        if self.loop is not None:
            data["loop"] = {
                "period": self.loop.period,
                "ops": [
                    {"dt": s.time, "ops": list(s.ops), "fractions": [frac(f) for f in s.fractions]}
                    for s in self.loop.slots
                ],
            }
        if self.horizon is not None:
            data["horizon"] = self.horizon
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict) -> "Schedule":
        def frac(v):
            return None if v is None else rational(v)

        prefix = tuple(
            Slot(e["t"], tuple(e["ops"]), tuple(frac(f) for f in e.get("fractions", [None, None])))
            for e in data.get("prefix", [])
        )
        loop = None
        if data.get("loop"):
            loop = LoopBlock(
                data["loop"]["period"],
                tuple(
                    Slot(e["dt"], tuple(e["ops"]), tuple(frac(f) for f in e.get("fractions", [None, None])))
                    for e in data["loop"]["ops"]
                ),
            )
        return Schedule(prefix, loop, data.get("horizon"))

    @staticmethod
    def from_json(text: str) -> "Schedule":
        return Schedule.from_json_dict(json.loads(text))


def block(op_rows: list[tuple], fractions: list[tuple] | None = None) -> tuple[Slot, ...]:
    """Build consecutive slots from rows of (op_r, op_s), starting at time 1."""
    slots = []
    for i, ops in enumerate(op_rows):
        fr = fractions[i] if fractions else (None, None)
        slots.append(Slot(1 + i, tuple(ops), tuple(fr)))
    return tuple(slots)


def loop_schedule(op_rows: list[tuple], horizon: int) -> Schedule:
    """A pure loop schedule over consecutive integer times."""
    return Schedule(loop=LoopBlock(len(op_rows), block(op_rows)), horizon=horizon)


# the rows of the published alternate and simultaneous schedules
ALT_ROWS = ((OP_LC, OP_NONE), (OP_NONE, OP_LC), (OP_M, OP_NONE), (OP_NONE, OP_M))
SIM_ROWS = ((OP_LC, OP_LC), (OP_M, OP_M))


def alt(horizon: int = 64) -> Schedule:
    """Alternate schedule: ([LC,-],[-,LC],[M,-],[-,M]) repeating."""
    return loop_schedule(ALT_ROWS, horizon)


def sim(horizon: int = 64) -> Schedule:
    """Simultaneous schedule: ([LC,LC],[M,M]) repeating."""
    return loop_schedule(SIM_ROWS, horizon)


def mirror(s: Schedule) -> Schedule:
    """Exchange the two robots' roles (swap op and fraction columns)."""

    def flip(slots):
        return tuple(
            Slot(x.time, (x.ops[1], x.ops[0]), (x.fractions[1], x.fractions[0])) for x in slots
        )

    loop = LoopBlock(s.loop.period, flip(s.loop.slots)) if s.loop else None
    return Schedule(flip(s.prefix), loop, s.horizon)


@dataclass(frozen=True)
class Violation:
    """One way a schedule breaks the rules of a scheduler class."""

    kind: str
    robot: int | None
    times: tuple[int, ...]
    message: str


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


# Loops are checked over this many unrolled periods, which covers every window
# shape a longer unrolling can produce.
_CHECK_PERIODS = 3


def check_legal(s: Schedule, cls: SchedulerClass) -> list[Violation]:
    """Structural legality of a schedule under a scheduler class.

    Returns the list of violations (empty means legal): per-robot cycle order,
    atomic-op permissions, no foreign Look strictly inside a
    Look..Comp window (LC-atomic) or an MB..ME window (Move-atomic), and round
    structure for FSYNC/SSYNC.  Loops are checked over `_CHECK_PERIODS`
    unrolled periods.
    """
    if s.loop is not None:
        limit = (s.prefix[-1].time if s.prefix else 0) + _CHECK_PERIODS * s.loop.period
    else:
        limit = s.prefix[-1].time if s.prefix else 0
    problems: list[Violation] = []
    ops: tuple[list, list] = ([], [])  # per robot: (time, op), ops other than '-'
    slots = list(s.unroll(horizon=limit))
    for slot in slots:
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
            for a, b in windows(slots, robot, begin_op, end_op).items():
                for t in look_times[1 - robot]:
                    if a < t < b:
                        problems.append(
                            Violation(kind, 1 - robot, (a, t, b), f"Look at t={t} lands inside robot {robot}'s {name} ({a},{b})")
                        )
    if cls.kind in (FSYNC, SSYNC):
        problems.extend(_check_rounds(ops, cls))
    return problems


def random_lc_atomic_schedule(rng, horizon: int = 64, fractions=None) -> Schedule:
    """A random legal LC-atomic (not Move-atomic) schedule up to `horizon`.

    Cycles are LC followed by a split MB..ME whose window another robot's
    Look may legally land inside.  A robot never idles more than a few ticks,
    so both robots keep cycling.  `fractions` optionally supplies the
    adversary's move-fraction pool for MB ops.
    """
    phase = [IDLE, IDLE]
    me_due = [0, 0]
    idle_for = [0, 0]
    rows = []
    for t in range(1, horizon + 1):
        ops = [OP_NONE, OP_NONE]
        fr: list = [None, None]
        for robot in ROBOTS:
            if phase[robot] == MOVING:
                if me_due[robot] == t:
                    ops[robot] = OP_ME
                    phase[robot] = IDLE
                    idle_for[robot] = 0
            elif phase[robot] == COMPUTED:
                ops[robot] = OP_MB
                if fractions:
                    fr[robot] = rng.choice(fractions)
                phase[robot] = MOVING
                me_due[robot] = t + rng.randint(1, 3)
            elif t + 4 <= horizon and (rng.random() < 0.5 or idle_for[robot] >= 3):
                # leave room for the cycle's MB..ME to finish by the horizon
                ops[robot] = OP_LC
                phase[robot] = COMPUTED
                idle_for[robot] = 0
            else:
                idle_for[robot] += 1
        if ops != [OP_NONE, OP_NONE]:
            rows.append(Slot(t, tuple(ops), tuple(fr)))
    return Schedule(prefix=tuple(rows))


def starved_robot(slots) -> int | None:
    """The first robot that starts no cycle (no Look or LC) in `slots`, or
    None when both do."""
    for robot in ROBOTS:
        if not any(slot.ops[robot] in LOOK_OPS for slot in slots):
            return robot
    return None


def check_fair(s: Schedule) -> int | None:
    """Fairness over the repeating loop: each robot must get at least one
    complete cycle per period.  Returns the starved robot, or None if fair."""
    if s.loop is None:
        raise ValueError("fairness is a property of infinite schedules; no loop present")
    return starved_robot(s.loop.slots)
