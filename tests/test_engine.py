import random
from fractions import Fraction

import pytest

from lumirend.algorithms import builtin, enumerate_graphs
from lumirend.core import LightGraph, MovementModel, SchedulerClass, destination, transition
from lumirend.engine import IDLE, EngineError, IllegalOp, Simulation, TraceStep, run
from lumirend.schedules import (
    Schedule,
    Slot,
    alt,
    block,
    mirror,
    ROBOTS,
    sim,
)
from lumirend.verify import Inconclusive, Rendezvous, check_rendezvous
from random_schedules import random_lc_atomic_schedule
from trace_properties import next_op
import reference_engine

F = Fraction

ALT = [("LC", "-"), ("-", "LC"), ("M", "-"), ("-", "M")]
SIM = [("LC", "LC"), ("M", "M")]


def prefix(rows):
    return Schedule(prefix=block(rows))


def lcmv():
    return SchedulerClass.asynchronous(lc_atomic=True, move_atomic=True)


RIGID = MovementModel.rigid()


# -- the step relation -------------------------------------------------------


def test_lc_sets_pending_and_delays_color():
    simstate = Simulation(builtin("ss3"), lcmv(), RIGID, ["A", "A"], [F(0), F(1)])
    simstate.step(0, ("LC", "-"))
    robot = simstate.robots[0]
    assert robot.pending == F(1, 2)
    assert robot.light_writes[-1] == (0, "B")
    assert simstate.light_at(0, 0) == "A"  # not yet observable
    assert simstate.light_at(0, 1) == "B"  # effective from the next instant


def test_atomic_move_ends_in_its_own_slot():
    # LC@1, M@2: robot 0 is idle again once its M has run
    g = builtin("ss3")
    with pytest.raises(IllegalOp):  # no move left for an ME to end
        run(g, prefix([("LC", "-"), ("M", "-"), ("ME", "-")]), ("A", "A"), 1, lcmv(), RIGID, check=False)
    tr = run(g, prefix([("LC", "-"), ("M", "-"), ("LC", "-")]), ("A", "A"), 1, lcmv(), RIGID, check=False)
    assert tr.position_at(0, 3) == F(1, 2)
    simstate = Simulation(g, lcmv(), RIGID, ["A", "A"], [F(0), F(1)])
    simstate.step(1, ("LC", "-"))
    simstate.step(2, ("M", "-"))
    robot = simstate.robots[0]
    assert robot.phase == IDLE
    assert not robot.committed(g, 3)
    simstate.step(3, ("LC", "LC"))
    # robot 1 sees robot 0 landed; robot 0 computes from where it landed
    assert simstate.robots[1].snapshot == ("B", F(1, 2))
    assert robot.pending == F(3, 4)


def test_look_at_comp_time_sees_former_color():
    # split cycles under plain asynchrony: the observer's Look coincides with
    # the observed robot's Compute and must still see the old color
    rows = Schedule(
        prefix=(
            Slot(1, ("LOOK", "-")),
            Slot(3, ("COMP", "LOOK")),
            Slot(5, ("-", "COMP")),
        )
    )
    tr = run(builtin("ss3"), rows, ("A", "A"), 1, SchedulerClass.asynchronous(), RIGID)
    assert tr.light_at(1, 6) == "B"  # saw A, not the freshly written B


def test_look_one_tick_after_comp_sees_new_color():
    rows = Schedule(
        prefix=(
            Slot(1, ("LOOK", "-")),
            Slot(3, ("COMP", "-")),
            Slot(4, ("-", "LOOK")),
            Slot(6, ("-", "COMP")),
        )
    )
    tr = run(builtin("ss3"), rows, ("A", "A"), 1, SchedulerClass.asynchronous(), RIGID)
    assert tr.light_at(1, 7) == "C"  # saw the new B


def test_zero_length_move_is_a_noop():
    tr = run(builtin("ss3"), prefix([("-", "LC"), ("-", "M")]), ("B", "A"), 1, lcmv(), RIGID)
    # s observed B and keeps its position; its scheduled move displaces nothing
    assert tr.position_at(1, 3) == F(1)
    assert tr.light_at(1, 3) == "C"


def test_snapshot_staleness():
    # r's pending destination is computed from its own snapshot, taken before
    # the other robot moved away
    g = LightGraph.build("AB", {"A": ("B", "1/2"), "B": ("A", 1)})
    rows = Schedule(
        prefix=(
            Slot(1, ("-", "LC")),
            Slot(2, ("LOOK", "-")),
            Slot(3, ("-", "M")),
            Slot(4, ("COMP", "-")),
            Slot(5, ("M", "-")),
        )
    )
    tr = run(g, rows, ("A", "A"), 1, SchedulerClass.asynchronous(lc_atomic=True), RIGID)
    assert tr.position_at(1, 4) == F(1, 2)  # s moved to the midpoint
    assert tr.position_at(0, 6) == F(1)  # r went to s's old position


def test_mid_move_observation_interpolates():
    rows = Schedule(
        prefix=(
            Slot(1, ("LC", "-")),
            Slot(2, ("MB", "-")),
            Slot(4, ("-", "LC")),
            Slot(6, ("ME", "-")),
        )
    )
    tr = run(builtin("ss3"), rows, ("A", "A"), 1, SchedulerClass.asynchronous(lc_atomic=True), RIGID)
    assert tr.position_at(0, 2) == F(0)  # at move begin: not yet moved
    assert tr.position_at(0, 4) == F(1, 4)  # halfway through the window
    assert tr.position_at(0, 6) == F(1, 2)  # at move end: arrived
    assert tr.distance_at(4) == F(3, 4)


def test_illegal_look_while_move_pending():
    with pytest.raises(IllegalOp):
        run(
            builtin("ss3"),
            prefix([("LC", "-"), ("LC", "-")]),
            ("A", "A"),
            1,
            lcmv(),
            RIGID,
            check=False,
        )


def test_lc_op_rejected_without_lc_atomicity():
    from lumirend.engine import AtomicityViolation

    with pytest.raises(AtomicityViolation):
        run(
            builtin("ss3"),
            prefix([("LC", "-")]),
            ("A", "A"),
            1,
            SchedulerClass.asynchronous(),
            RIGID,
            check=False,
        )


# -- whole runs ---------------------------------------------------------------


def test_alt_block_from_same_color():
    tr = run(builtin("ss3"), alt(horizon=4), ("A", "A"), 1, lcmv(), RIGID)
    assert tr.configuration_at(5).pair == ("B", "C")
    assert tr.configuration_at(5).d == F(1, 2)


def test_sim_keeps_distance_on_no_move_colors():
    tr = run(builtin("ss3"), sim(horizon=2), ("B", "B"), 1, lcmv(), RIGID)
    assert tr.configuration_at(3).pair == ("C", "C")
    assert tr.configuration_at(3).d == F(1)


def test_sim_swaps_on_full_jumps():
    tr = run(builtin("ss3"), sim(horizon=2), ("C", "C"), 1, lcmv(), RIGID)
    assert tr.configuration_at(3).pair == ("A", "A")
    assert (tr.position_at(0, 3), tr.position_at(1, 3)) == (F(1), F(0))


def test_distance_zero_is_absorbing():
    for name in ("ss3", "nonqss3", "qss4", "ss5", "alg_b"):
        g = builtin(name)
        tr = run(g, sim(horizon=12), ("A", "A"), 0, SchedulerClass.fsync(), RIGID,
                 stop_at_rendezvous=False)
        assert all(step.distance_after == 0 for step in tr.steps)
        stopped = run(g, sim(horizon=12), ("A", "A"), 0, SchedulerClass.fsync(), RIGID)
        assert stopped.rendezvous_time == 0


# -- queries -------------------------------------------------------------------


def test_next_op():
    tr = run(builtin("ss3"), alt(horizon=8), ("A", "A"), 1, lcmv(), RIGID)
    assert next_op(tr, 0, "LC", 0) == 1
    assert next_op(tr, 1, "LC", 0) == 2
    assert next_op(tr, 0, "LOOK", 2) == 5  # LC counts as a Look
    assert next_op(tr, 0, "COMP", 1) == 1  # ... and as a Compute
    assert next_op(tr, 0, "LC", 9) is None
    assert next_op(tr, 0, "ME", 1) == 4  # implied end of the atomic move at 3
    assert next_op(tr, 0, "ME", 4) == 4
    assert next_op(tr, 0, "MB", 4) == 7  # the atomic move at 7 begins there
    assert next_op(tr, 0, "M", 4) == 7


def test_cs_times_alt():
    tr = run(builtin("ss3"), alt(horizon=4), ("A", "A"), 1, lcmv(), RIGID)
    assert tr.cs_times() == [0, 1, 4, 5]
    # t=4: s's scheduled move displaces nothing, so it normalizes away
    assert tr.configuration_at(4).pair == ("B", "C")
    # t=2,3: r is committed to an actual displacement
    assert not tr.is_cs(2) and not tr.is_cs(3)


def test_configuration_at_identity():
    tr = run(builtin("ss3"), alt(horizon=4), ("A", "A"), 1, lcmv(), RIGID)
    assert tr.configuration_at(0).pair == ("A", "A")
    assert tr.configuration_at(0).d == F(1)


def test_configuration_chain_three_color():
    rows = ALT + SIM
    tr = run(builtin("alg_a"), prefix(rows), ("B", "C"), 1, lcmv(), RIGID)
    assert tr.configuration_at(5) == tr.configuration_at(5).__class__("A", "B", F(1, 2))
    assert tr.configuration_at(7).pair == ("C", "B")
    assert tr.configuration_at(7).d == F(1, 4)


def test_configuration_chain_four_color():
    # the one-cycle four-color family member with a unit jump closing the loop
    ext5 = [("-", "LC"), ("LC", "-"), ("-", "LC"), ("M", "-"), ("-", "M")]
    tr = run(builtin("alg2", 1), prefix(SIM + ext5), ("A", "B"), 1, lcmv(), RIGID)
    assert tr.configuration_at(3).pair == ("C", "B")
    assert tr.configuration_at(3).d == F(1, 2)
    assert tr.configuration_at(8).pair == ("A", "B")
    assert tr.configuration_at(8).d == F(1, 4)


# -- global invariants ---------------------------------------------------------


def test_determinism_byte_identical():
    for seed in (3, 11):
        s = random_lc_atomic_schedule(random.Random(seed), horizon=40)
        runs = [
            run(builtin("nonqss3"), s, ("A", "A"), 1,
                SchedulerClass.asynchronous(lc_atomic=True), RIGID)
            for _ in range(2)
        ]
        assert runs[0].to_jsonl() == runs[1].to_jsonl()
        assert runs[0].to_csv() == runs[1].to_csv()


def test_rigid_scaling():
    base = run(builtin("ss3"), alt(horizon=12), ("A", "A"), 1, lcmv(), RIGID)
    for c in (F(3), F(5, 7)):
        scaled = run(builtin("ss3"), alt(horizon=12), ("A", "A"), c, lcmv(), RIGID)
        for a, b in zip(base.steps, scaled.steps):
            assert b.distance_after == c * a.distance_after


def test_swap_symmetry():
    s = alt(horizon=12)
    a = run(builtin("qss4"), s, ("B", "C"), 1, lcmv(), RIGID)
    b = run(builtin("qss4"), mirror(s), ("C", "B"), 1, lcmv(), RIGID)
    assert len(a.steps) == len(b.steps)
    for x, y in zip(a.steps, b.steps):
        assert x.lights_after == tuple(reversed(y.lights_after))
        assert x.distance_after == y.distance_after


def test_trace_export_shapes():
    tr = run(builtin("ss3"), sim(horizon=2), ("A", "A"), 1, SchedulerClass.fsync(), RIGID)
    import json

    lines = [json.loads(x) for x in tr.to_jsonl().splitlines()]
    assert lines[0]["ops"] == ["LC", "LC"]
    assert lines[0]["positions"] == ["0/1", "1/1"]
    assert lines[1]["distance"] == "0/1"
    assert tr.to_csv().splitlines()[0] == "t,op_r,op_s,light_r,light_s,position_r,position_s,distance"


def test_enumerated_graphs_run_cleanly():
    rng = random.Random(7)
    graphs = list(enumerate_graphs(2, (F(0), F(1, 2), F(1))))
    for g in rng.sample(graphs, 6):
        tr = run(g, alt(horizon=16), ("A", "A"), 1, lcmv(), RIGID)
        assert tr.steps


def _forward_light(robot, t):
    color = robot.light_writes[0][1]
    for wt, c in robot.light_writes:
        if wt < t:
            color = c
        else:
            break
    return color


def _forward_position(robot, t):
    pos = robot.initial_pos
    for tb, te, start, land, _cut in robot.moves:
        if t <= tb:
            return pos
        if t >= te:
            pos = land
        else:
            return start + (land - start) * Fraction(t - tb, te - tb)
    return pos


def test_history_lookups_match_a_forward_scan():
    lc = SchedulerClass.asynchronous(lc_atomic=True)
    mid_flight = 0
    for seed in range(6):
        s = random_lc_atomic_schedule(random.Random(seed), 40, [F(0), F(1, 3), F(1, 2), F(1)])
        for movement in (RIGID, MovementModel.non_rigid(F(1, 8))):
            tr = run(builtin("qss4"), s, ("A", "B"), 1, lc, movement)
            for robot in (tr._robots[i] for i in ROBOTS):
                for k in range(-2, 2 * tr.end_time + 3):
                    t = F(k, 2)
                    assert robot.position_at(t) == _forward_position(robot, t)
                    assert robot.light_at(t) == _forward_light(robot, t)
                    mid_flight += any(tb < t < te and a != b for tb, te, a, b, _cut in robot.moves)
    assert mid_flight > 0  # some queries land inside a displacing move: the interpolation branch


# -- cycle starts against a reference read from the steps ------------------------


def _reference_is_cs(trace, t):
    """Cycle starts by the definition in `Trace.cs_times`, read from the steps:
    for each robot, the operations from t on of the cycle it is in at t (the
    one whose Look came last before t) must neither change its color nor move
    it, and a cycle still open when the trace ends must not be bound to move,
    nor owe a Compute that changes its color."""
    for i in ROBOTS:
        mine = [s for s in trace.steps if s.ops[i] != "-"]
        looks = [s.time for s in mine if s.ops[i] in ("LOOK", "LC")]
        if not any(look < t for look in looks):
            continue
        look = max(x for x in looks if x < t)
        later = [x for x in looks if x > look]
        cycle = [s for s in mine if look <= s.time < (later[0] if later else trace.end_time + 1)]
        start = trace.position_at(i, look)
        moves = [s for s in cycle if s.ops[i] in ("MB", "M", "ME")]
        if moves and moves[-1].ops[i] != "MB":
            end = moves[-1].positions_after[i]
        else:  # no move yet, or one the rendezvous cut off before its ME
            end = trace.position_at(i, trace.end_time)
        for s in cycle:
            if s.time < t:
                continue
            if s.ops[i] == "COMP" and trace.light_at(i, s.time + 1) != trace.light_at(i, s.time):
                return False
            if s.ops[i] in ("MB", "M", "ME") and end != start:
                return False
        if moves and trace.position_at(i, t) != end:
            return False  # still in flight
        if not moves and not later:
            seen = (trace.light_at(1 - i, look), trace.position_at(1 - i, look))
            light, lam = transition(trace.graph, seen[0])
            if destination(start, seen[1], lam) != start:
                return False
            computed = any(s.ops[i] in ("COMP", "LC") for s in cycle)
            if not computed and light != trace.light_at(i, trace.end_time):
                return False
    return True


def _random_async_schedule(rng, horizon, fractions):
    """Random cycles under plain asynchrony: a split LOOK..COMP, then a split
    MB..ME, an atomic M or a declared no-move cycle (the next Look at once)."""
    phase, me_due, rows = ["idle", "idle"], [0, 0], []
    for t in range(1, horizon + 1):
        ops, fr = ["-", "-"], [None, None]
        for r in ROBOTS:
            if phase[r] == "moving":
                if t == me_due[r]:
                    ops[r], phase[r] = "ME", "idle"
            elif rng.random() < 0.4:
                continue
            elif phase[r] == "idle" or (phase[r] == "computed" and rng.random() < 0.2):
                ops[r], phase[r] = "LOOK", "looked"
            elif phase[r] == "looked":
                ops[r], phase[r] = "COMP", "computed"
            elif t + 3 <= horizon and rng.random() < 0.5:
                ops[r], fr[r], phase[r] = "MB", rng.choice(fractions), "moving"
                me_due[r] = t + rng.randint(1, 3)
            else:
                ops[r], fr[r], phase[r] = "M", rng.choice(fractions), "idle"
        if ops != ["-", "-"]:
            rows.append(Slot(t, tuple(ops), tuple(fr)))
    return Schedule(prefix=tuple(rows))


def _cs_traces():
    fractions = [F(0), F(1, 3), F(1, 2), F(1)]
    movements = (RIGID, MovementModel.non_rigid(F(1, 8)))
    for name in ("ss3", "qss4", "nonqss3", "ss5"):
        g = builtin(name)
        for cut in (True, False):
            for movement in movements:
                for sched in (alt(horizon=12), sim(horizon=12)):
                    yield run(g, sched, ("A", "A"), 1, lcmv(), movement, stop_at_rendezvous=cut)
            for seed in range(12):
                rng = random.Random(seed)
                movement = movements[seed % 2]
                init = (rng.choice(g.colors), rng.choice(g.colors))
                s = random_lc_atomic_schedule(rng, 30, fractions)
                yield run(g, s, init, 1, SchedulerClass.asynchronous(lc_atomic=True), movement,
                          stop_at_rendezvous=cut)
                try:
                    yield run(g, _random_async_schedule(rng, 30, fractions), init, 1,
                              SchedulerClass.asynchronous(), movement, stop_at_rendezvous=cut)
                except IllegalOp:
                    pass  # a declared no-move cycle whose robot had to move


def test_cycle_starts_match_the_reference():
    seen = {"split look": 0, "declared no-move": 0, "idle move": 0, "cut move": 0, "met": 0, "open at end": 0}
    for tr in _cs_traces():
        # the walk first, on a fresh trace: it reads which cycles are open at the end itself
        want = [t for t in sorted({0, tr.end_time, *(s.time for s in tr.steps)}) if _reference_is_cs(tr, t)]
        assert tr.cs_times() == want, tr.to_jsonl()
        assert tr.cs_lights() == [(tr.light_at(0, t), tr.light_at(1, t)) for t in want]
        for t in range(tr.end_time + 3):
            assert tr.is_cs(t) == _reference_is_cs(tr, t), (tr.to_jsonl(), t)
        seen["met"] += tr.rendezvous_time is not None
        seen["open at end"] += any(r.mid_cycle(tr.graph, tr.end_time) for r in tr._robots)
        for i in ROBOTS:
            ops = [s.ops[i] for s in tr.steps if s.ops[i] != "-"]
            seen["split look"] += "COMP" in ops
            seen["declared no-move"] += any(a == "COMP" and b == "LOOK" for a, b in zip(ops, ops[1:]))
            seen["idle move"] += any(start == land for _tb, _te, start, land, _cut in tr._robots[i].moves)
            seen["cut move"] += bool(ops) and ops[-1] == "MB" and tr.rendezvous_time is not None
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "g, cs",
    [
        # robot 0 sees B: ss5 would turn it to C without a move
        (builtin("ss5"), [0, 1]),
        # robot 0 sees B: this graph keeps it A and in place
        (LightGraph.build("AB", {"A": ("B", "1/2"), "B": ("A", 0)}), [0, 1, 2]),
    ],
)
def test_a_trace_ending_on_a_look_ends_mid_cycle_if_its_compute_changes_the_color(g, cs):
    tr = run(g, prefix([("LOOK", "-")]), ("A", "B"), 1, SchedulerClass.asynchronous(), RIGID)
    assert not any(r.committed(g, tr.end_time) for r in tr._robots)
    assert tr.cs_times() == cs


def _reference_check_rendezvous(trace):
    """`check_rendezvous` as it was when it scanned the cycle starts for the
    first one at distance zero."""
    for t in trace.cs_times():
        if trace.distance_at(t) == 0:
            return Rendezvous(t)
    return Inconclusive(trace.end_time)


def test_the_run_meets_where_the_cycle_start_scan_does():
    seen = {"met": 0, "owed color": 0}
    for tr in _cs_traces():
        if tr.rendezvous_time is None and any(st.distance_after == 0 for st in tr.steps):
            continue  # a run that went on past a meeting records none
        got, want = check_rendezvous(tr), _reference_check_rendezvous(tr)
        seen["met"] += tr.rendezvous_time is not None
        if got != want:
            # the one difference: the robots meet while a robot owes a Compute
            # that changes only its color, so the meeting is no cycle start
            end = tr.end_time
            assert got == Rendezvous(end) and not tr.is_cs(end), tr.to_jsonl()
            assert any(r.mid_cycle(tr.graph, end) and not r.committed(tr.graph, end) for r in tr._robots)
            seen["owed color"] += 1
    assert all(seen.values()), seen


# -- the rendezvous cut against a per-step reference -----------------------------


def _reference_run(g, s, colors, distance, cls, movement, cut):
    """`run` as it was when it built each row eagerly: after every step the
    row is read from the live simulation, the distance is read afresh, and
    the robots meet when it is zero and no robot is committed to a displacing
    move.  Returns the steps and the rendezvous time."""
    simstate = Simulation(g, cls, movement, list(colors), (F(0), F(distance)))
    slots = s.prefix
    me_time = {}  # (robot, MB time) -> the time of its ME
    for robot in ROBOTS:
        begun = None
        for slot in slots:
            if slot.ops[robot] == "MB":
                begun = slot.time
            elif slot.ops[robot] == "ME" and begun is not None:
                me_time[(robot, begun)], begun = slot.time, None

    def met(t):
        d = abs(simstate.position_at(0, t) - simstate.position_at(1, t))
        return d == 0 and not any(r.committed(g, t) for r in simstate.robots)

    steps = []
    if cut and met(0):
        return steps, 0
    for slot in slots:
        t = slot.time
        simstate.step(t, slot.ops, slot.fractions, tuple(me_time.get((r, t)) for r in ROBOTS))
        lights = tuple(simstate.light_at(i, t + 1) for i in ROBOTS)
        poss = tuple(simstate.position_at(i, t + 1) for i in ROBOTS)
        steps.append(TraceStep(t, slot.ops, slot.fractions, lights, poss, abs(poss[0] - poss[1])))
        if cut and met(t + 1):
            return steps, t + 1
    return steps, None


def test_rendezvous_cut_matches_the_reference():
    fractions = [F(0), F(1, 3), F(1, 2), F(1)]
    lc = SchedulerClass.asynchronous(lc_atomic=True)
    movements = (RIGID, MovementModel.non_rigid(F(1, 8)))
    cases = []
    for name in ("ss3", "qss4", "nonqss3", "ss5", "alg_b"):
        g = builtin(name)
        for colors in (("A", "A"), ("A", "B")):
            for distance in (1, 0):
                for movement in movements:
                    cases += [(g, alt(horizon=12), colors, distance, lcmv(), movement),
                              (g, sim(horizon=12), colors, distance, lcmv(), movement)]
        for seed in range(8):
            rng = random.Random(seed)
            s = random_lc_atomic_schedule(rng, 30, fractions)
            cases.append((g, s, (rng.choice(g.colors), rng.choice(g.colors)), 1, lc, movements[seed % 2]))
    met = {"at 0": 0, "later": 0, "zero but committed": 0, "split move": 0}
    for case in cases:
        for cut in (True, False):
            tr = run(*case, stop_at_rendezvous=cut)
            # the rows are derived from the histories on first read, here
            # after queries that read the same histories
            for t in tr.cs_times():
                tr.configuration_at(t)
            steps, when = _reference_run(*case, cut)
            assert (tr.steps, tr.rendezvous_time) == (steps, when), (case, cut)
            assert tr.slots == list(case[1].prefix[: len(steps)])
            met["split move"] += any("MB" in st.ops for st in steps)
            met["at 0"] += when == 0
            met["later"] += bool(when)
            # a cut run goes on past a step at distance zero only while a
            # robot is committed to a move
            met["zero but committed"] += cut and any(
                st.distance_after == 0 and st.time + 1 != when for st in steps
            )
    assert all(met.values()), met


@pytest.mark.parametrize("mover", ROBOTS)
@pytest.mark.parametrize("movement", [RIGID, MovementModel.non_rigid(F(1, 4))])
def test_a_split_move_onto_the_other_robot_meets_at_its_me(mover, movement):
    # the mover jumps (label 1) onto the idle robot in a split MB..ME: the
    # positions agree from the MB on, while the mover is committed, so the
    # meeting is at the ME slot, which sets no position
    g = LightGraph.build("AB", {"A": ("B", 1), "B": ("A", 0)})
    lc = SchedulerClass.asynchronous(lc_atomic=True)
    for rows in (
        ((1, "LC"), (2, "MB"), (4, "ME"), (5, "LC")),
        ((1, "LC"), (2, "MB"), (3, "-"), (5, "ME"), (6, "LC")),
    ):
        s = Schedule(tuple(Slot(t, (op, "-") if mover == 0 else ("-", op)) for t, op in rows))
        tr = run(g, s, ("A", "A"), 1, lc, movement)
        want = reference_engine._reference_run(g, s, ("A", "A"), 1, lc, movement)
        me = rows[-2][0]
        assert tr.rendezvous_time == want.rendezvous_time == me + 1
        assert tr.to_jsonl() == want.to_jsonl()
        assert tr.slots[-1].ops[mover] == "ME" and not {"M", "MB"} & set(tr.slots[-1].ops)
        # in flight the mover is seen short of its landing point
        assert [st.distance_after == 0 for st in tr.steps] == [False] * (len(rows) - 2) + [True]


@pytest.mark.parametrize("movement", [RIGID, MovementModel.non_rigid(F(1, 4))])
def test_a_move_fraction_outside_0_1_is_an_engine_error(movement):
    # the engine names the robot, op and time of the move it cannot run
    for fractions, message in (
        ((F(2), None), "robot 0: M at t=2: adversary fraction must lie in [0, 1]"),
        ((None, F(-1, 2)), "robot 1: M at t=2: adversary fraction must lie in [0, 1]"),
    ):
        s = Schedule(block([("LC", "LC"), ("M", "M")], [(None, None), fractions]))
        with pytest.raises(EngineError) as rejected:
            run(builtin("ss3"), s, ("A", "A"), 1, SchedulerClass.ssync(), movement)
        assert str(rejected.value) == message


# -- the engine against the former one ------------------------------------------


def _illegal_rows(rng, s: Schedule) -> Schedule:
    """`s` with one robot's op at a random slot replaced by another op, a
    known one or not."""
    slots = list(s.prefix)
    k, robot = rng.randrange(len(slots)), rng.choice(ROBOTS)
    ops = list(slots[k].ops)
    ops[robot] = rng.choice(("LC", "LOOK", "COMP", "M", "MB", "ME", "-", "X"))
    slots[k] = Slot(slots[k].time, tuple(ops), slots[k].fractions)
    return Schedule(tuple(slots))


def _differential_cases():
    fractions = [F(0), F(1, 3), F(1, 2), F(1)]
    movements = (RIGID, MovementModel.non_rigid(F(1, 8)), MovementModel.non_rigid(F(1, 4)))
    classes = (SchedulerClass.fsync(), SchedulerClass.ssync(), SchedulerClass.asynchronous(lc_atomic=True))
    rng = random.Random(21)
    for name in ("ss3", "qss4", "nonqss3", "ss5", "alg_b"):
        g = builtin(name)
        for movement in movements:
            for cls in classes:
                for s in (alt(horizon=12), sim(horizon=12)):
                    yield g, s, ("A", "A"), 1, cls, movement
            for _ in range(4):
                s = random_lc_atomic_schedule(rng, 30, fractions)
                start = (rng.choice(g.colors), rng.choice(g.colors))
                yield g, s, start, rng.choice((0, 1, F(1, 3))), classes[2], movement
                yield g, _illegal_rows(rng, s), start, 1, classes[2], movement
                yield g, _illegal_rows(rng, sim(horizon=12)), start, 1, classes[rng.randrange(3)], movement
                # start positions given as ints, or as an int and a Fraction
                positions = (rng.randint(-2, 2), rng.choice((rng.randint(-2, 2), F(rng.randint(-7, 7), 3))))
                yield g, s, start, 1, classes[2], movement, positions
            # every move in full, most of them longer than delta
            s = random_lc_atomic_schedule(rng, 30, [F(1)])
            yield g, s, (rng.choice(g.colors), rng.choice(g.colors)), 3, classes[2], movement


def _outcome(run_fn, case, check, cut):
    try:
        return run_fn(*case, check=check, stop_at_rendezvous=cut), None
    except Exception as exc:  # the error is compared by type and text
        return None, (type(exc), str(exc))


def test_the_engine_matches_the_former_engine():
    seen = {
        "met": 0, "cut move": 0, "split move": 0, "illegal schedule": 0, "engine error": 0,
        "int positions": 0, "full fraction on a move longer than delta": 0,
    }
    for case in _differential_cases():
        for check in (True, False):
            for cut in (True, False):
                got, error = _outcome(run, case, check, cut)
                want, want_error = _outcome(reference_engine._reference_run, case, check, cut)
                assert error == want_error, (case, check, cut)
                if error is not None:
                    seen["illegal schedule" if check else "engine error"] += 1
                    continue
                assert got.to_jsonl() == want.to_jsonl(), (case, check, cut)
                assert got.rendezvous_time == want.rendezvous_time
                assert got.cs_times() == want.cs_times()
                assert got.cs_lights() == [(want.light_at(0, t), want.light_at(1, t)) for t in want.cs_times()]
                assert [got.is_cs(t) for t in range(-1, got.end_time + 3)] == [
                    want.is_cs(t) for t in range(-1, want.end_time + 3)
                ]
                movement = case[5]
                for i in ROBOTS:
                    moves = got._robots[i].moves
                    assert [m[:4] for m in moves] == want._robots[i].moves
                    for tb, te, start, land, cut_short in moves:
                        frac = next(s.fractions[i] for s in got.slots if s.time == tb)
                        # a cut covers at least delta, and a move a fraction
                        # below 1 does not cut is no longer than delta
                        if cut_short:
                            assert movement.kind != "rigid" and frac < 1 and abs(land - start) >= movement.delta
                        elif frac is not None and frac < 1 and movement.kind != "rigid":
                            assert abs(land - start) <= movement.delta
                        elif frac == 1 and movement.kind != "rigid":
                            seen["full fraction on a move longer than delta"] += abs(land - start) > movement.delta
                        seen["cut move"] += cut_short
                        seen["split move"] += tb + 1 != te
                seen["met"] += got.rendezvous_time is not None
                seen["int positions"] += len(case) > 6 and isinstance(case[6][0], int)
    assert all(seen.values()), seen
