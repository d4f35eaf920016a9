import json
import random
from fractions import Fraction

import pytest

from lumirend.core import SchedulerClass
from lumirend.schedules import (
    _NEXT_PHASE,
    ALL_OPS,
    ALT_ROWS,
    LOOK_OPS,
    OP_COMP,
    OP_LC,
    OP_LOOK,
    OP_M,
    OP_MB,
    OP_ME,
    OP_NONE,
    ROBOTS,
    SIM_ROWS,
    Schedule,
    Slot,
    Violation,
    alt,
    block,
    check_legal,
    mirror,
    sim,
    starved_robot,
)
from random_schedules import random_lc_atomic_schedule
import reference_engine


def test_alt_structure():
    slots = alt(horizon=4).prefix
    assert [s.ops for s in slots] == [("LC", "-"), ("-", "LC"), ("M", "-"), ("-", "M")]


def test_alt_unrolls_twice():
    slots = alt(horizon=8).prefix
    assert len(slots) == 8
    assert [s.time for s in slots] == list(range(1, 9))
    assert slots[4].ops == ("LC", "-")


def test_sim_structure():
    slots = sim(horizon=2).prefix
    assert slots[0].ops == ("LC", "LC")
    assert slots[1].ops == ("M", "M")


def test_sim_legal_fsync():
    assert check_legal(sim(), SchedulerClass.fsync()) == []


def test_alt_legal_lc_move_atomic_async():
    cls = SchedulerClass.asynchronous(lc_atomic=True, move_atomic=True)
    assert check_legal(alt(), cls) == []


def test_alt_legal_under_weaker_atomicity():
    # legality is monotone: dropping Move-atomicity never rejects more
    assert check_legal(alt(), SchedulerClass.asynchronous(lc_atomic=True)) == []


def test_alt_not_ssync():
    assert check_legal(alt(), SchedulerClass.ssync())


def test_lc_op_needs_lc_atomic_class():
    violations = check_legal(alt(), SchedulerClass.asynchronous())
    assert any(v.kind == "atomicity" for v in violations)


def test_foreign_look_inside_look_comp_window():
    rows = Schedule(
        prefix=(
            Slot(1, ("LOOK", "-")),
            Slot(2, ("-", "LOOK")),
            Slot(3, ("COMP", "-")),
            Slot(5, ("-", "COMP")),
        )
    )
    violations = check_legal(rows, SchedulerClass.asynchronous(lc_atomic=True))
    assert any(v.kind == "lc-window" and v.times == (1, 2, 3) for v in violations)
    # the same schedule is fine when Look..Compute need not be atomic
    assert check_legal(rows, SchedulerClass.asynchronous()) == []


def test_foreign_look_inside_move_window():
    rows = Schedule(
        prefix=(
            Slot(1, ("LOOK", "-")),
            Slot(2, ("COMP", "-")),
            Slot(3, ("MB", "-")),
            Slot(4, ("-", "LOOK")),
            Slot(5, ("ME", "-")),
            Slot(6, ("-", "COMP")),
        )
    )
    violations = check_legal(rows, SchedulerClass.asynchronous(move_atomic=True))
    assert any(v.kind == "move-window" and v.times == (3, 4, 5) for v in violations)
    assert check_legal(rows, SchedulerClass.asynchronous()) == []


def test_cycle_order_violation():
    rows = Schedule(prefix=(Slot(1, ("COMP", "-")),))
    violations = check_legal(rows, SchedulerClass.asynchronous())
    assert any(v.kind == "cycle-order" for v in violations)


def test_fairness():
    # one period of each published schedule starts a cycle of both robots
    assert starved_robot(alt(horizon=4).prefix) is None
    assert starved_robot(sim(horizon=2).prefix) is None
    assert starved_robot(block([(OP_LC, OP_NONE), (OP_M, OP_NONE)])) == 1
    assert starved_robot(block([(OP_NONE, OP_LOOK), (OP_NONE, OP_COMP)])) == 0
    # a split Look starts a cycle as an LC does; the other ops start none
    assert starved_robot(block([(OP_LOOK, OP_M), (OP_COMP, OP_MB), (OP_M, OP_ME)])) == 1
    assert starved_robot(()) == 0


def test_mirror_swaps_roles():
    m = mirror(alt(horizon=4))
    assert [s.ops for s in m.prefix] == [("-", "LC"), ("LC", "-"), ("-", "M"), ("M", "-")]


def test_schedule_json_roundtrip():
    s = alt(horizon=12)
    assert Schedule.from_json(s.to_json()) == s
    prefix = Schedule(
        prefix=(Slot(1, ("LC", "-"), (None, Fraction(1, 2))), Slot(3, ("M", "-")))
    )
    assert Schedule.from_json(prefix.to_json()) == prefix


def test_a_loop_is_repeated_after_the_prefix_when_read():
    data = {
        "prefix": [{"t": 2, "ops": ["LC", "-"]}],
        "loop": {"period": 3, "ops": [{"dt": 1, "ops": ["M", "LC"]}, {"dt": 3, "ops": ["-", "M"]}]},
        "horizon": 8,
    }
    times = [3, 5, 6, 8]
    assert [s.time for s in Schedule.from_json_dict(data).prefix] == [2, *times]
    # the caller's horizon takes precedence over the file's
    assert [s.time for s in Schedule.from_json_dict(data, 5).prefix] == [2, 3, 5]
    assert [s.time for s in Schedule.from_json_dict(data, 12).prefix] == [2, *times, 9, 11, 12]
    # a prefix is cut at a horizon too, and the read schedule is written as a prefix
    read = Schedule.from_json_dict({"prefix": data["prefix"] + [{"t": 9, "ops": ["M", "-"]}], "horizon": 8})
    assert json.loads(read.to_json()) == {"prefix": [{"t": 2, "ops": ["LC", "-"], "fractions": [None, None]}]}


def test_random_schedules_are_legal():
    cls = SchedulerClass.asynchronous(lc_atomic=True)
    for seed in range(25):
        s = random_lc_atomic_schedule(random.Random(seed), horizon=64)
        assert check_legal(s, cls) == []


def test_prefix_times_must_increase():
    with pytest.raises(ValueError):
        Schedule(prefix=(Slot(2, ("LC", "-")), Slot(2, ("-", "LC"))))


# -- check_legal against the per-slot implementation it replaced ---------------


def _ref_robot_ops(slots, robot):
    return [(s.time, s.ops[robot]) for s in slots if s.ops[robot] != OP_NONE]


def _ref_check_pattern(slots, robot):
    phase = "idle"
    for t, op in _ref_robot_ops(slots, robot):
        key = (phase, op)
        if key not in _NEXT_PHASE:
            return [
                Violation("cycle-order", robot, (t,), f"robot {robot}: op {op} illegal in phase {phase} at t={t}")
            ]
        phase = _NEXT_PHASE[key]
    return []


def _ref_windows(slots, robot, begin_op, end_op):
    spans = []
    open_t = None
    for t, op in _ref_robot_ops(slots, robot):
        if op == begin_op:
            open_t = t
        elif op == end_op and open_t is not None:
            spans.append((open_t, t))
            open_t = None
    return spans


def _ref_check_rounds(slots, cls):
    problems = []
    move_ticks = set()
    lc_times = {0: [], 1: []}
    for s in slots:
        for robot in ROBOTS:
            op = s.ops[robot]
            if op in (OP_LOOK, OP_COMP, OP_MB, OP_ME):
                problems.append(
                    Violation("round-structure", robot, (s.time,), f"{op} not allowed under {cls.kind}: cycles are atomic rounds")
                )
            elif op == OP_LC:
                lc_times[robot].append(s.time)
            elif op == OP_M:
                move_ticks.add(s.time)
    for robot in ROBOTS:
        lc_set = set(lc_times[robot])
        for t in (s.time for s in slots if s.ops[robot] == OP_M):
            if t - 1 not in lc_set:
                problems.append(Violation("round-structure", robot, (t,), f"M at t={t} is not adjacent to its LC"))
    for s in slots:
        for robot in ROBOTS:
            if s.ops[robot] == OP_LC and s.time in move_ticks:
                problems.append(
                    Violation("round-structure", robot, (s.time,), f"Look at t={s.time} coincides with a move tick")
                )
    if cls.kind == "fsync" and lc_times[0] != lc_times[1]:
        problems.append(Violation("round-structure", None, (), "FSYNC requires both robots in every round"))
    return problems


def _reference_check_legal(s, cls):
    """`check_legal` as it was before it read one (time, op) list per robot:
    every helper rescans the slots."""
    slots = s.prefix
    problems = []
    for slot in slots:
        for robot in ROBOTS:
            op = slot.ops[robot]
            if op not in ALL_OPS:
                problems.append(Violation("unknown-op", robot, (slot.time,), f"unknown op {op!r}"))
            if op == OP_LC and not cls.lc_atomic:
                problems.append(
                    Violation("atomicity", robot, (slot.time,), "LC op requires an LC-atomic scheduler class")
                )
    for robot in ROBOTS:
        problems.extend(_ref_check_pattern(slots, robot))
    look_times = {r: [t for t, op in _ref_robot_ops(slots, r) if op in LOOK_OPS] for r in ROBOTS}
    if cls.lc_atomic:
        for robot in ROBOTS:
            for a, b in _ref_windows(slots, robot, OP_LOOK, OP_COMP):
                for t in look_times[1 - robot]:
                    if a < t < b:
                        problems.append(
                            Violation("lc-window", 1 - robot, (a, t, b), f"Look at t={t} lands inside robot {robot}'s Look..Comp window ({a},{b})")
                        )
    if cls.move_atomic:
        for robot in ROBOTS:
            for a, b in _ref_windows(slots, robot, OP_MB, OP_ME):
                for t in look_times[1 - robot]:
                    if a < t < b:
                        problems.append(
                            Violation("move-window", 1 - robot, (a, t, b), f"Look at t={t} lands inside robot {robot}'s move window ({a},{b})")
                        )
    if cls.kind in ("fsync", "ssync"):
        problems.extend(_ref_check_rounds(slots, cls))
    return problems


ALL_CLASSES = (
    SchedulerClass.fsync(),
    SchedulerClass.ssync(),
    *(SchedulerClass.asynchronous(lc, mv) for lc in (False, True) for mv in (False, True)),
)


def _random_cycles(rng, horizon):
    """Random cycles of every shape: Look..Comp or LC, then MB..ME, M or none."""
    rows = {}
    for robot in ROBOTS:
        t = rng.randint(1, 3)
        while t + 6 <= horizon:
            if rng.random() < 0.5:
                rows.setdefault(t, ["-", "-"])[robot] = "LC"
            else:
                rows.setdefault(t, ["-", "-"])[robot] = "LOOK"
                t += rng.randint(1, 3)
                rows.setdefault(t, ["-", "-"])[robot] = "COMP"
            shape = rng.random()
            if shape < 0.4:
                t += rng.randint(1, 2)
                rows.setdefault(t, ["-", "-"])[robot] = "MB"
                t += rng.randint(1, 3)
                rows.setdefault(t, ["-", "-"])[robot] = "ME"
            elif shape < 0.8:
                t += 1
                rows.setdefault(t, ["-", "-"])[robot] = "M"
            t += rng.randint(1, 3)
    return [Slot(t, tuple(rows[t])) for t in sorted(rows)]


def _put(slots, t, robot, op):
    """Slots with robot's op at time t set to op (a slot is added if needed)."""
    by_time = {s.time: list(s.ops) for s in slots}
    by_time.setdefault(t, ["-", "-"])[robot] = op
    return [Slot(u, tuple(by_time[u])) for u in sorted(by_time) if by_time[u] != ["-", "-"]]


def _mutate(rng, slots):
    """One random fault: swapped ops, a foreign Look inside a Look..Comp or an
    MB..ME window, an M moved off its LC, or an unknown op."""
    robot = rng.choice(ROBOTS)
    mine = [s for s in slots if s.ops[robot] != "-"]
    kind = rng.randrange(4)
    if kind == 0 and len(mine) >= 2:
        a, b = rng.sample(mine, 2)
        return _put(_put(slots, a.time, robot, b.ops[robot]), b.time, robot, a.ops[robot])
    if kind == 1:
        windows = [
            (a, b)
            for begin, end in (("LOOK", "COMP"), ("MB", "ME"))
            for a, b in _ref_windows(slots, robot, begin, end)
            if b - a >= 2
        ]
        if windows:
            a, b = rng.choice(windows)
            return _put(slots, rng.randint(a + 1, b - 1), 1 - robot, rng.choice(("LOOK", "LC")))
    if kind == 2:
        ms = [s.time for s in mine if s.ops[robot] == "M"]
        if ms:
            t = rng.choice(ms)
            return _put(_put(slots, t, robot, "-"), t + rng.randint(1, 2), robot, "M")
    if mine:
        return _put(slots, rng.choice(mine).time, robot, rng.choice(("X", "LC", "M", "MB", "ME", "LOOK", "COMP")))
    return slots


def _legality_cases() -> list[Schedule]:
    """Random and published schedules, each with six random faults in turn."""
    rng = random.Random(0)
    schedules = [alt(horizon=16), sim(horizon=16), mirror(alt(horizon=16))]
    for seed in range(40):
        schedules.append(random_lc_atomic_schedule(random.Random(seed), 30))
        schedules.append(Schedule(prefix=tuple(_random_cycles(random.Random(seed), 30))))
    for s in list(schedules):
        slots = [x for x in s.prefix if x.time <= 30]
        for _ in range(6):
            slots = _mutate(rng, slots)
            schedules.append(Schedule(prefix=tuple(slots)))
    # a fault inside a repeating block, which a schedule file repeats as it is read
    for rows in (ALT_ROWS, SIM_ROWS, [x.ops for x in mirror(alt(horizon=4)).prefix]):
        period = len(rows)
        loop_slots = _mutate(rng, list(block(rows)))
        if loop_slots and loop_slots[-1].time <= period:
            loop = {"period": period, "ops": [{"dt": x.time, "ops": list(x.ops)} for x in loop_slots]}
            schedules.append(Schedule.from_json_dict({"loop": loop, "horizon": 16}))
    return schedules


# hand-made faults: illegal round rows (a split op, an M off its LC, a Look
# on a move tick, a lone robot), a Look of either robot inside the other's
# Look..Comp window or move window (twice in one), and unknown ops
_MADE_FAULTS = (
    [("LOOK", "LC"), ("COMP", "M")],
    [("LC", "-"), ("-", "-"), ("M", "LC")],
    [("LC", "LC"), ("M", "LC"), ("-", "M")],
    [("LC", "MB"), ("M", "ME")],
    [("LOOK", "-"), ("-", "LOOK"), ("COMP", "-"), ("-", "COMP")],
    [("-", "LOOK"), ("LC", "-"), ("-", "-"), ("-", "COMP")],
    [("LC", "-"), ("MB", "-"), ("-", "LC"), ("-", "M"), ("-", "LC"), ("ME", "-")],
    [("LC", "LC"), ("M", "MB"), ("LOOK", "-"), ("COMP", "ME")],
    [("X", "LC"), ("LC", "Y"), ("-", "lc")],
)


def test_check_legal_matches_the_reference():
    made = [Schedule(block(rows)) for rows in _MADE_FAULTS]
    schedules = _legality_cases() + made + [mirror(s) for s in made]
    round_rules = ("not allowed under", "not adjacent to its LC", "coincides with a move tick", "both robots")
    seen = set()
    for s in schedules:
        for cls in ALL_CLASSES:
            got = check_legal(s, cls)
            assert got == _reference_check_legal(s, cls) == reference_engine.check_legal(s, cls), (s.to_json(), cls)
            seen.update(v.kind for v in got)
            seen.update(rule for v in got for rule in round_rules if rule in v.message)
    # every kind of violation occurs, and so does each round-structure rule
    assert {"unknown-op", "atomicity", "cycle-order", "lc-window", "move-window", *round_rules} <= seen


def test_legality_is_symmetric_under_mirroring():
    # every rule treats the two robots alike, so certificate validation
    # checks a swap recurrence's block and not its mirror
    illegal = 0
    for s in _legality_cases():
        for cls in ALL_CLASSES:
            legal = not check_legal(s, cls)
            assert legal == (not check_legal(mirror(s), cls)), (s.to_json(), cls)
            illegal += not legal
    assert illegal
