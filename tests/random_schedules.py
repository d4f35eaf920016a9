"""Random legal schedules for the tests: LC-atomic cycles whose moves are
split MB..ME windows.  The library does not use them, so they live beside
the tests.
"""

from __future__ import annotations

from lumirend.schedules import COMPUTED, IDLE, MOVING, OP_LC, OP_MB, OP_ME, OP_NONE, ROBOTS, Schedule, Slot


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
