"""The search's successor step agrees with the engine.

Every path of `_search_children` up to a small depth is replayed through
`run`: after each search step the engine shows the same lights and
positions, and it reports rendezvous exactly where the search does.  The
search builds its certificates by re-walking fair cycles with this step, so
a disagreement would cost certificates (the engine validates each one).
Non-rigid paths offer the adversary a third fraction, 1/2, through
`verify.FRACTION_CHOICES`."""

from fractions import Fraction

import pytest

from lumirend import verify
from lumirend.algorithms import builtin, enumerate_graphs
from lumirend.core import MovementModel, SchedulerClass
from lumirend.engine import run
from lumirend.schedules import Schedule
from lumirend.verify import SearchConfig, _is_rendezvous_state, _search_children, _timed

F = Fraction
LABELS = (F(0), F(1, 2), F(1))
TWO_COLOR = list(enumerate_graphs(2, LABELS))
GRAPHS = [builtin(n) for n in ("ss3", "nonqss3", "qss4", "ss5", "alg_b")] + [
    TWO_COLOR[i] for i in (5, 13, 22, 26, 31)
]
CLASSES = {
    "fsync": SchedulerClass.fsync(),
    "ssync": SchedulerClass.ssync(),
    "async-lc": SchedulerClass.asynchronous(lc_atomic=True),
}
MOVEMENTS = {
    "rigid": (MovementModel.rigid(), (F(0), F(1))),
    "nonrigid": (MovementModel.non_rigid(F(1, 4)), (F(0), F(1, 2), F(1))),
}
# search steps per path: a round step holds up to two slots and an
# asynchronous step one; sized so the whole test replays about 7000 paths
DEPTH = {
    ("fsync", "rigid"): 5,
    ("fsync", "nonrigid"): 4,
    ("ssync", "rigid"): 4,
    ("ssync", "nonrigid"): 2,
    ("async-lc", "rigid"): 4,
    ("async-lc", "nonrigid"): 3,
}


def _paths(state, g, cfg, depth):
    """Every maximal search path of at most `depth` steps, as a list of
    (slots, child_state) pairs; a path ends early at a rendezvous state."""
    if depth == 0 or _is_rendezvous_state(state):
        yield []
        return
    for slots, _completions, child in _search_children(state, g, cfg):
        for rest in _paths(child, g, cfg, depth - 1):
            yield [(slots, child)] + rest


@pytest.mark.parametrize("movement", sorted(MOVEMENTS))
@pytest.mark.parametrize("cls", sorted(CLASSES))
def test_search_paths_replay_through_engine(cls, movement, monkeypatch):
    model, fractions = MOVEMENTS[movement]
    monkeypatch.setattr(verify, "FRACTION_CHOICES", fractions)
    depth = DEPTH[cls, movement]
    cfg = SearchConfig(depth, CLASSES[cls], model)
    replayed = 0
    for g in GRAPHS:
        for colors in ((g.colors[0], g.colors[0]), (g.colors[0], g.colors[1])):
            initial = (colors, (None, None), (F(0), F(1)))
            for path in _paths(initial, g, cfg, depth):
                rows = [row for slots, _child in path for row in slots]
                trace = run(g, Schedule(prefix=_timed(rows)), colors, 1, cfg.scheduler, model)
                t = 1
                for slots, (lights, _pendings, positions) in path:
                    t += len(slots)
                    assert tuple(trace.light_at(i, t) for i in (0, 1)) == lights, (rows, t)
                    assert tuple(trace.position_at(i, t) for i in (0, 1)) == positions, (rows, t)
                end_state = path[-1][1] if path else initial
                meets = _is_rendezvous_state(end_state)
                assert trace.rendezvous_time == (t if meets else None), rows
                replayed += 1
    assert replayed > 0


@pytest.mark.parametrize("cls", ["fsync", "ssync"])
def test_round_states_hold_no_pending_destination(cls, monkeypatch):
    # `_plan` picks a robot's LC from `pendings[i] is None` alone, which
    # under rounds holds because a round step leaves no destination pending
    for model, fractions in MOVEMENTS.values():
        monkeypatch.setattr(verify, "FRACTION_CHOICES", fractions)
        cfg = SearchConfig(3, CLASSES[cls], model)
        for g in GRAPHS:
            initial = ((g.colors[0], g.colors[1]), (None, None), (F(0), F(1)))
            for path in _paths(initial, g, cfg, 3):
                assert all(pendings == (None, None) for _slots, (_l, pendings, _p) in path)
