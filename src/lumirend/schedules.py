"""Timed operation schedules: representation, the named `alt`/`sim` schedules,
legality under a scheduler class, and fairness of a block of slots.

A schedule is data, not callbacks, so that verdicts can embed schedules as
replayable witnesses.  It is the finite tuple of slots a run executes, at
strictly increasing positive integer times.  A periodic schedule is shown to
run forever by a scaling-loop certificate (one block and a ratio), not by the
schedule.  A schedule file may still give a repeating loop block:
`Schedule.from_json_dict` repeats it up to a horizon as it reads the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .core import FSYNC, SSYNC, SchedulerClass, format_rational, json_object, json_value, rational_text

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
class Schedule:
    """The slots a run executes, at strictly increasing times."""

    prefix: tuple[Slot, ...] = ()

    def __post_init__(self):
        _last_time(self.prefix, "prefix times")

    def to_json(self) -> str:
        slots = [
            {"t": s.time, "ops": list(s.ops),
             "fractions": [None if f is None else format_rational(f) for f in s.fractions]}
            for s in self.prefix
        ]
        return json.dumps({"prefix": slots}, sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict, horizon: int | None = None) -> "Schedule":
        """Read a schedule file: its `"prefix"` slots, then its `"loop"` block
        (slots at offsets `"dt"` in 1..`"period"`) repeated after the prefix,
        all cut at `horizon`, or at the file's own `"horizon"` if none is given.
        A key that is missing or that the format lacks is an error naming it,
        and so is a key present with the wrong JSON type."""
        json_object(data, "a schedule", (), ("prefix", "loop", "horizon"))
        if "horizon" in data:
            json_value(data["horizon"], int, "horizon")
            if horizon is None:
                horizon = data["horizon"]
        slots = [_read_slot(e, "t") for e in json_value(data.get("prefix", []), list, "prefix")]
        base = _last_time(slots, "prefix times")
        if "loop" in data:
            loop_data = json_object(data["loop"], "a loop", ("period", "ops"))
            period = json_value(loop_data["period"], int, "period")
            if period < 1:
                raise ValueError("the loop period must be at least 1")
            loop = [_read_slot(e, "dt") for e in json_value(loop_data["ops"], list, "ops")]
            if _last_time(loop, "loop offsets") > period:
                raise ValueError("loop offsets exceed the period")
            if horizon is None:
                raise ValueError("a horizon is required when a loop is present")
            # each pass adds at least one time unit, so this ends
            while loop and base < horizon:
                slots.extend(Slot(base + s.time, s.ops, s.fractions) for s in loop)
                base += period
        if horizon is not None:
            slots = [s for s in slots if s.time <= horizon]
        return Schedule(tuple(slots))

    @staticmethod
    def from_json(text: str) -> "Schedule":
        return Schedule.from_json_dict(json.loads(text))


def _last_time(slots, what: str) -> int:
    """The last time of `slots`, 0 if none; their times must strictly
    increase from 1."""
    last = 0
    for slot in slots:
        if slot.time <= last:
            raise ValueError(f"{what} must be strictly increasing")
        last = slot.time
    return last


def _read_slot(entry: dict, key: str) -> Slot:
    """One slot of a schedule file, timed by its `key` ("t" or "dt")."""
    ops = json_object(entry, "a slot", (key, "ops"), ("fractions",))["ops"]
    fractions = entry.get("fractions", [None, None])
    if not (isinstance(ops, list) and len(ops) == 2 and all(isinstance(op, str) for op in ops)):
        raise ValueError(f"ops must be two op names, not {ops!r}")
    if not (isinstance(fractions, list) and len(fractions) == 2):
        raise ValueError(f"fractions must be two entries, not {fractions!r}")
    return Slot(
        json_value(entry[key], int, key),
        tuple(ops),
        tuple(None if f is None else rational_text(f) for f in fractions),
    )


def read_prefix(entries) -> Schedule:
    """A schedule read from a `"prefix"` list of slots alone, as
    `Schedule.to_json` writes it: no loop and no horizon."""
    return Schedule(tuple(_read_slot(e, "t") for e in json_value(entries, list, "prefix")))


def block(op_rows: list[tuple], fractions: list[tuple] | None = None) -> tuple[Slot, ...]:
    """Build consecutive slots from rows of (op_r, op_s), starting at time 1."""
    slots = []
    for i, ops in enumerate(op_rows):
        fr = fractions[i] if fractions else (None, None)
        slots.append(Slot(1 + i, tuple(ops), tuple(fr)))
    return tuple(slots)


# the rows of the published alternate and simultaneous schedules
ALT_ROWS = ((OP_LC, OP_NONE), (OP_NONE, OP_LC), (OP_M, OP_NONE), (OP_NONE, OP_M))
SIM_ROWS = ((OP_LC, OP_LC), (OP_M, OP_M))


def alt(horizon: int = 64) -> Schedule:
    """Alternate schedule: ([LC,-],[-,LC],[M,-],[-,M]) repeating to `horizon`."""
    return Schedule(block((ALT_ROWS * horizon)[:horizon]))


def sim(horizon: int = 64) -> Schedule:
    """Simultaneous schedule: ([LC,LC],[M,M]) repeating to `horizon`."""
    return Schedule(block((SIM_ROWS * horizon)[:horizon]))


def mirror(s: Schedule) -> Schedule:
    """Exchange the two robots' roles (swap op and fraction columns)."""
    return Schedule(
        tuple(Slot(x.time, (x.ops[1], x.ops[0]), (x.fractions[1], x.fractions[0])) for x in s.prefix)
    )


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

_KNOWN_OPS = frozenset(ALL_OPS)
# the ops that open or close a Look..Comp or move window: the split ops, which rounds forbid
_WINDOW_OPS = frozenset((OP_LOOK, OP_COMP, OP_MB, OP_ME))


# No spacing check is needed: a Schedule's times strictly increase, so one
# robot's ops are at least the one tick apart that Comp and M effects need.
def check_legal(s: Schedule, cls: SchedulerClass) -> list[Violation]:
    """Structural legality of a schedule under a scheduler class.

    Returns the list of violations (empty means legal): per-robot cycle order,
    atomic-op permissions, no foreign Look strictly inside a
    Look..Comp window (LC-atomic) or an MB..ME window (Move-atomic), and round
    structure for FSYNC/SSYNC.  One pass over the slots collects each rule's
    violations apart, and they are reported rule by rule: unknown ops and LC
    permissions in time order (robot 0 first), each robot's first cycle-order
    fault, the Looks inside each robot's Look..Comp windows and then inside
    its move windows, and the round-structure faults.

    Round structure encodes a cycle on the integer timeline as an LC at round
    time t with the move (if any) at t+1: no split op is allowed, no Look may
    coincide with a move tick, and FSYNC activates both robots in every round.
    An atomic M spans (t, t+1), so no integer-time Look lands inside it: the
    shorthand is acceptable under every class.
    """
    rounds = cls.kind in (FSYNC, SSYNC)
    ops_faults: list[Violation] = []
    order_faults: list[Violation | None] = [None, None]
    phase = [IDLE, IDLE]
    looks: tuple[list, list] = ([], [])  # per robot, its Look times
    # per window's end op and robot: the begin of the open window, and the
    # (begin, Look, end) of each foreign Look inside a closed one
    open_at = {OP_COMP: [None, None], OP_ME: [None, None]}
    window_faults = {OP_COMP: ([], []), OP_ME: ([], [])}
    split, far_moves, coinciding = [], ([], []), []
    last_lc = [None, None]
    unequal_rounds = False
    for slot in s.prefix:
        t, pair = slot.time, slot.ops
        for robot in ROBOTS:
            op = pair[robot]
            if op == OP_NONE:
                continue
            if op not in _KNOWN_OPS:
                ops_faults.append(Violation("unknown-op", robot, (t,), f"unknown op {op!r}"))
            elif op == OP_LC and not cls.lc_atomic:
                ops_faults.append(Violation("atomicity", robot, (t,), "LC op requires an LC-atomic scheduler class"))
            if order_faults[robot] is None:
                nxt = _NEXT_PHASE.get((phase[robot], op))
                if nxt is None:
                    order_faults[robot] = Violation(
                        "cycle-order", robot, (t,), f"robot {robot}: op {op} illegal in phase {phase[robot]} at t={t}"
                    )
                else:
                    phase[robot] = nxt
            if op in LOOK_OPS:
                looks[robot].append(t)
            if op in _WINDOW_OPS:
                # an end closes the robot's latest open begin; the other
                # robot's Looks between them land inside the window
                if op == OP_LOOK:
                    open_at[OP_COMP][robot] = t
                elif op == OP_MB:
                    open_at[OP_ME][robot] = t
                elif open_at[op][robot] is not None:
                    a, open_at[op][robot] = open_at[op][robot], None
                    window_faults[op][robot].extend((a, x, t) for x in looks[1 - robot] if a < x < t)
                if rounds:
                    split.append(
                        Violation("round-structure", robot, (t,), f"{op} not allowed under {cls.kind}: cycles are atomic rounds")
                    )
            elif not rounds:
                continue
            elif op == OP_M:
                if last_lc[robot] != t - 1:
                    far_moves[robot].append(
                        Violation("round-structure", robot, (t,), f"M at t={t} is not adjacent to its LC")
                    )
            elif op == OP_LC:
                last_lc[robot] = t
                other = pair[1 - robot]
                if other == OP_M:
                    coinciding.append(Violation("round-structure", robot, (t,), f"Look at t={t} coincides with a move tick"))
                unequal_rounds = unequal_rounds or other != OP_LC
    problems = ops_faults + [v for v in order_faults if v is not None]
    for end_op, atomic, kind, name in (
        (OP_COMP, cls.lc_atomic, "lc-window", "Look..Comp window"),
        (OP_ME, cls.move_atomic, "move-window", "move window"),
    ):
        if atomic:
            for robot in ROBOTS:
                problems.extend(
                    Violation(kind, 1 - robot, (a, x, b), f"Look at t={x} lands inside robot {robot}'s {name} ({a},{b})")
                    for a, x, b in window_faults[end_op][robot]
                )
    if rounds:
        problems += split + far_moves[0] + far_moves[1] + coinciding
        if cls.kind == FSYNC and unequal_rounds:
            problems.append(Violation("round-structure", None, (), "FSYNC requires both robots in every round"))
    return problems


def starved_robot(slots) -> int | None:
    """The first robot that starts no cycle (no Look or LC) in `slots`, or
    None when both do."""
    for robot in ROBOTS:
        if not any(slot.ops[robot] in LOOK_OPS for slot in slots):
            return robot
    return None
