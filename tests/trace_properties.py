"""Trace properties that the tests check on runs of the positive algorithms:
frozen partners, contraction from the {B, C} pair, and synchronous halving
rounds, with the operation query `next_op` they read.  The library does not
use them, so they live beside the tests.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import attrgetter

from lumirend.core import NON_RIGID, RIGID, LightGraph, transition
from lumirend.engine import Trace
from lumirend.schedules import OP_COMP, OP_LC, OP_LOOK, OP_M, OP_MB, OP_ME


def next_op(trace: Trace, robot: int, op: str, t: int) -> int | None:
    """First time >= t at which `robot` performs `op` in `trace`, if any.  A
    query for LOOK or COMP also matches the LC composite, one for MB an
    atomic M's begin, and one for ME the implied end of an atomic M."""
    also = {OP_LOOK: OP_LC, OP_COMP: OP_LC, OP_MB: OP_M, OP_ME: OP_M}.get(op)
    # start one instant early: an atomic M there ends at t
    slots = trace.slots
    for k in range(bisect_left(slots, t - 1, key=attrgetter("time")), len(slots)):
        slot = slots[k]
        done = slot.ops[robot]
        when = slot.time + 1 if op == OP_ME and done == OP_M else slot.time
        if (done == op or done == also) and when >= t:
            return when
    return None


def stationary_pairs(g: LightGraph) -> set[tuple[str, str]]:
    """Ordered pairs (alpha, beta) such that a robot showing beta freezes
    while its partner shows alpha: observing alpha rewrites beta to itself
    with no movement."""
    out = set()
    for alpha in g.colors:
        target, lam = transition(g, alpha)
        if lam == 0:
            out.add((alpha, target))
    return out


def check_stationary_partner(trace: Trace) -> list[tuple]:
    """Violations of the frozen-partner property: at any cycle start with an
    ordered pair (alpha, beta) from `stationary_pairs`, the beta robot must
    keep its color and position until the alpha robot's next Look."""
    g = trace.graph
    frozen = stationary_pairs(g)
    bad = []
    for t in trace.cs_times():
        for mover, holder in ((0, 1), (1, 0)):
            pair = (trace.light_at(mover, t), trace.light_at(holder, t))
            if pair not in frozen:
                continue
            until = next_op(trace, mover, OP_LOOK, t)
            if until is None:
                until = trace.end_time
            for u in range(t, until + 1):
                if (
                    trace.light_at(holder, u) != pair[1]
                    or trace.position_at(holder, u) != trace.position_at(holder, t)
                ):
                    bad.append((t, u, holder))
                    break
    return bad


def check_contraction_pattern(trace: Trace) -> tuple[bool, tuple]:
    """From the first cycle start showing the unordered pair {B, C}: some
    later cycle start must reach distance zero, or shrink the distance by at
    least delta while showing one of the two successor pairs."""
    g = trace.graph
    delta = trace.movement.delta if trace.movement.kind == NON_RIGID else Fraction(0)
    rho, _lam = transition(g, "C")
    allowed = {frozenset((rho, "C")), frozenset((rho, transition(g, rho)[0]))}
    cs = trace.cs_times()
    entry = None
    for t in cs:
        if frozenset((trace.light_at(0, t), trace.light_at(1, t))) == frozenset(("B", "C")):
            entry = t
            break
    if entry is None:
        return True, ()
    d0 = trace.distance_at(entry)
    for t in cs:
        if t <= entry:
            continue
        d = trace.distance_at(t)
        pair = frozenset((trace.light_at(0, t), trace.light_at(1, t)))
        if d == 0:
            return True, (entry, t)
        if d <= d0 - delta and pair in allowed:
            return True, (entry, t)
    return False, (entry,)


def check_synchronous_contraction(trace: Trace) -> list[tuple]:
    """Under simultaneous rounds, every round in which both robots observe the
    halving label must shrink the distance: to zero under rigid movement, by
    at least two delta (or to zero) otherwise.  Rounds are the slots where
    both robots perform LC at once; their effects land two ticks later."""
    g = trace.graph
    bad = []
    for slot in trace.slots:
        if slot.ops != (OP_LC, OP_LC):
            continue
        t = slot.time
        pair = (trace.light_at(0, t), trace.light_at(1, t))
        if pair[0] != pair[1]:
            continue
        _next, lam = transition(g, pair[0])
        if lam != Fraction(1, 2):
            continue
        d0, d1 = trace.distance_at(t), trace.distance_at(t + 2)
        if trace.movement.kind == RIGID:
            if d1 != 0:
                bad.append((t, d0, d1))
        else:
            delta = trace.movement.delta
            if d1 != 0 and d1 > d0 - 2 * delta:
                bad.append((t, d0, d1))
    return bad
