"""Acceptance suite: one test per acceptance criterion, every comparison
bit-exact on rationals.  Each test prints a single pass line; run with
`pytest -s tests/test_acceptance.py` to see them."""

import random
from fractions import Fraction

from lumirend.algorithms import builtin, enumerate_graphs
from lumirend.core import MovementModel, SchedulerClass
from lumirend.engine import run
from lumirend.schedules import (
    Schedule,
    Slot,
    alt,
    block,
    check_legal,
    mirror,
    sim,
)
from lumirend.verify import (
    Diverges,
    Rendezvous,
    SearchConfig,
    check_rendezvous,
    missing_label_adversary,
    reachable_cs_color_pairs,
    replay_paper_counterexample,
    search_one,
    structural_check,
    validate_certificate,
)
from random_schedules import random_lc_atomic_schedule
from trace_properties import check_contraction_pattern, check_stationary_partner, check_synchronous_contraction

F = Fraction
LCMV = SchedulerClass.asynchronous(lc_atomic=True, move_atomic=True)
LC = SchedulerClass.asynchronous(lc_atomic=True)
SSYNC = SchedulerClass.ssync()
RIGID = MovementModel.rigid()
NR4 = MovementModel.non_rigid(F(1, 4))
LABELS = (F(0), F(1, 2), F(1))
SAMPLES = (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))


def report(number, text):
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_01_three_color_swap_loop_replay():
    res = replay_paper_counterexample("lemma6_alg_a")
    trace, cert = res.trace, res.verdict.certificate
    assert trace.configuration_at(0).pair == ("B", "C")
    assert trace.configuration_at(0).d == F(1)
    # first block: the midpoint-and-freeze exchange halves the distance
    assert trace.configuration_at(5).pair == ("A", "B")
    assert trace.configuration_at(5).d == F(1, 2)
    # second block: the roles swap and the distance reaches one quarter
    assert trace.configuration_at(7).pair == ("C", "B")
    assert trace.configuration_at(7).d == F(1, 4)
    assert cert.swap and cert.ratio == F(1, 4)
    assert set(cert.entry_colors) == {"B", "C"}
    validate_certificate(cert)
    report(1, "swap-recurrence replay is bit-exact with a validated 1/4 certificate")


def test_criterion_02_four_color_family_replays():
    checked = 0
    for lam in SAMPLES:
        # family 1: entry and ratio depend on whether the free label is zero
        res = replay_paper_counterexample("lemma9_1", lam)
        cert = res.verdict.certificate
        if lam == 0:
            assert cert.entry_colors == ("A", "C") and cert.swap
            assert cert.ratio == F(1, 2)
            assert res.trace.configuration_at(3).pair == ("D", "B")
            assert res.trace.configuration_at(3).d == F(1, 2)
        else:
            assert cert.entry_colors == ("D", "A") and not cert.swap
            assert cert.ratio == lam / 2
            assert res.trace.configuration_at(5) == res.trace.configuration_at(5).__class__(
                "B", "C", F(1, 2)
            )
        checked += 1

        # family 2
        res = replay_paper_counterexample("lemma9_2", lam)
        cert = res.verdict.certificate
        if lam == 1:
            assert cert.entry_colors == ("A", "B")
            assert cert.ratio == F(1, 4)
            assert res.trace.configuration_at(3).d == F(1, 2)
        else:
            assert cert.entry_colors == ("B", "C")
            assert cert.ratio == (1 - lam) / 2
            assert res.trace.configuration_at(5).pair == ("D", "A")
            assert res.trace.configuration_at(5).d == 1 - lam
        checked += 1

        # families 3..6, each under its side condition
        if lam != 1:
            res = replay_paper_counterexample("lemma9_3", lam)
            cert = res.verdict.certificate
            assert cert.entry_colors == ("A", "B")
            assert cert.ratio == (1 - lam * lam) / 2
            assert res.trace.configuration_at(5).pair == ("C", "D")
            assert res.trace.configuration_at(5).d == 1 - lam
            checked += 1
        if lam != 0:
            res = replay_paper_counterexample("lemma9_4", lam)
            cert = res.verdict.certificate
            assert cert.entry_colors == ("A", "B") and cert.ratio == lam / 2
            assert res.trace.configuration_at(5).pair == ("C", "D")
            checked += 1
        if lam != 1:
            res = replay_paper_counterexample("lemma9_5", lam)
            cert = res.verdict.certificate
            assert cert.entry_colors == ("A", "B") and cert.ratio == (1 - lam) / 2
            checked += 1
        if lam != 0:
            res = replay_paper_counterexample("lemma9_6", lam)
            cert = res.verdict.certificate
            assert cert.entry_colors == ("A", "B") and cert.ratio == lam / 2
            assert res.trace.configuration_at(5).pair == ("C", "D")
            assert res.trace.configuration_at(5).d == lam
            checked += 1
        # every certificate above was validated by construction; revalidate one
        validate_certificate(cert)
    report(2, f"{checked} four-color family replays match the symbolic loop factors")


def test_criterion_03_positive_three_color_from_pivot_start():
    g = builtin("nonqss3")

    # simultaneous cycles: both robots meet at the midpoint showing the pair B,B
    tr = run(g, sim(horizon=4), ("A", "A"), 1, LCMV, RIGID)
    v = check_rendezvous(tr)
    assert isinstance(v, Rendezvous)
    assert tr.position_at(0, v.time) == tr.position_at(1, v.time) == F(1, 2)
    assert {tr.light_at(0, v.time), tr.light_at(1, v.time)} == {"B"}

    # simultaneous cycles with one robot slipping in an extra cycle mid-flight
    rows = Schedule(
        prefix=(
            Slot(1, ("LC", "LC")),
            Slot(2, ("MB", "MB")),
            Slot(3, ("-", "ME")),
            Slot(4, ("-", "LC")),
            Slot(6, ("ME", "-")),
        )
    )
    tr = run(g, rows, ("A", "A"), 1, LC, RIGID)
    v = check_rendezvous(tr)
    assert isinstance(v, Rendezvous)
    assert {tr.light_at(0, v.time), tr.light_at(1, v.time)} == {"B", "C"}
    assert tr.position_at(0, v.time) == F(1, 2)

    # strictly interleaved cycles: the late robot freezes and is caught
    rows = Schedule(prefix=block([("LC", "-"), ("M", "-"), ("-", "LC"), ("-", "M"), ("LC", "-"), ("M", "-")]))
    tr = run(g, rows, ("A", "A"), 1, LCMV, RIGID)
    v = check_rendezvous(tr)
    assert isinstance(v, Rendezvous)
    assert (tr.light_at(0, v.time), tr.light_at(1, v.time)) == ("B", "C")
    assert all(tr.position_at(1, u) == F(1) for u in range(0, v.time + 1))

    # randomized coverage: every legal LC-atomic rigid schedule converges
    pairs_seen = set()
    for seed in range(1000):
        s = random_lc_atomic_schedule(random.Random(seed), horizon=64)
        tr = run(g, s, ("A", "A"), 1, LC, RIGID)
        v = check_rendezvous(tr)
        assert isinstance(v, Rendezvous), f"seed {seed} did not converge"
        assert v.time <= 64
        pairs_seen.add(frozenset((tr.light_at(0, tr.end_time), tr.light_at(1, tr.end_time))))
    assert pairs_seen <= {frozenset({"B"}), frozenset({"B", "C"})}
    report(3, "1000 random schedules and both proof shapes converge with the predicted colors")


def test_criterion_04_positive_three_color_negative_starts():
    cfg = SearchConfig(horizon=40, scheduler=LC, movement=RIGID)
    for colors in (("B", "B"), ("C", "C")):
        verdict = search_one(builtin("nonqss3"), cfg, colors, 1)
        assert isinstance(verdict, Diverges)
        assert verdict.certificate.ratio == 1  # a fixed-distance position swap
        validate_certificate(verdict.certificate)
    report(4, "non-pivot starts admit fixed-distance swap loops at horizon 40")


def test_criterion_05_four_color_certification():
    g = builtin("qss4")
    cfg = SearchConfig(horizon=60, scheduler=LC, movement=NR4)
    for c in "ABCD":
        assert isinstance(search_one(g, cfg, (c, c), 1), Rendezvous)

    # frozen-partner and contraction properties hold on sampled adversarial traces
    for seed in range(10):
        s = random_lc_atomic_schedule(random.Random(1000 + seed), horizon=60, fractions=(F(0), F(1)))
        tr = run(g, s, ("B", "C"), 1, LC, NR4)
        assert check_stationary_partner(tr) == []
        ok, _ = check_contraction_pattern(tr)
        assert ok
    short = run(g, sim(horizon=16), ("B", "C"), F(1, 8), LCMV, NR4)
    ok, times = check_contraction_pattern(short)
    assert ok and short.distance_at(times[1]) == 0

    # synchronous rounds shrink by two delta per halving round when cut short
    rows = [(("LC", "LC"), (None, None)), (("M", "M"), (F(0), F(0)))] * 8
    cut = Schedule(prefix=block([r[0] for r in rows], [r[1] for r in rows]))
    tr = run(g, cut, ("A", "A"), 1, LCMV, NR4)
    assert check_synchronous_contraction(tr) == []
    assert isinstance(check_rendezvous(tr), Rendezvous)

    for colors in (("A", "C"), ("B", "D")):
        verdict = search_one(g, cfg, colors, 1)
        assert isinstance(verdict, Diverges)
        validate_certificate(verdict.certificate)
    report(5, "four-color search certifies all same-color starts and rejects the two mixed traps")


def test_criterion_06_five_color_certification():
    g = builtin("ss5")
    cfg = SearchConfig(horizon=80, scheduler=LC, movement=NR4)
    for a in "ABCDE":
        for b in "ABCDE":
            assert isinstance(search_one(g, cfg, (a, b), 1), Rendezvous), (a, b)
    pairs = reachable_cs_color_pairs(g, "ABCDE", cfg)
    for two_step in ("AC", "BD", "CE", "DA", "EB"):
        assert frozenset(two_step) not in pairs
    report(6, "all 25 five-color starts certify at horizon 80; two-step pairs unreachable")


def test_criterion_07_two_color_impossibility_and_label_necessities():
    cfg = SearchConfig(horizon=40, scheduler=SSYNC, movement=RIGID)
    survivors = 0
    for g in enumerate_graphs(2, LABELS):
        diverged = any(
            isinstance(search_one(g, cfg, (c, c), 1), Diverges) for c in g.colors
        )
        if not diverged:
            survivors += 1
    assert survivors == 0

    checked = 0
    for g in enumerate_graphs(3, LABELS):
        missing = structural_check(g).per_start_missing
        for start, labels in missing.items():
            for lam in labels:
                _s, _t, cert = missing_label_adversary(g, start, lam, horizon=40)
                assert cert is not None, (g.to_json(), start, lam)
                checked += 1
    assert checked > 0
    report(7, f"all 36 two-color algorithms defeated; {checked} missing-label adversaries succeeded")


def test_criterion_08_three_color_impossibility_bounded():
    cfg = SearchConfig(horizon=40, scheduler=LCMV, movement=RIGID)
    achievers = []
    for idx, g in enumerate(enumerate_graphs(3, LABELS)):
        if all(isinstance(search_one(g, cfg, (c, c), 1), Rendezvous) for c in g.colors):
            achievers.append(idx)
    assert achievers == []

    for name in ("lemma6_alg_a", "lemma7_alg_b"):
        cert = replay_paper_counterexample(name).verdict.certificate
        assert cert.swap and cert.ratio == F(1, 4)
    report(8, "none of 729 three-color algorithms achieves all-branch rendezvous at horizon 40")


def test_criterion_09_engine_invariant_suite():
    builtins = [builtin(n) for n in ("ss3", "nonqss3", "qss4", "ss5", "alg_b")]

    # determinism: byte-identical reruns across schedule shapes
    for s in (alt(horizon=16), sim(horizon=16), random_lc_atomic_schedule(random.Random(5), 40)):
        a = run(builtins[2], s, ("A", "A"), 1, LC, RIGID)
        b = run(builtins[2], s, ("A", "A"), 1, LC, RIGID)
        assert a.to_jsonl() == b.to_jsonl()

    # snapshot staleness: a pending destination uses the observer's own last look
    from lumirend.core import LightGraph

    g2 = LightGraph.build("AB", {"A": ("B", "1/2"), "B": ("A", 1)})
    rows = Schedule(
        prefix=(
            Slot(1, ("-", "LC")),
            Slot(2, ("LOOK", "-")),
            Slot(3, ("-", "M")),
            Slot(4, ("COMP", "-")),
            Slot(5, ("M", "-")),
        )
    )
    tr = run(g2, rows, ("A", "A"), 1, LC, RIGID)
    assert tr.position_at(0, 6) == F(1)

    # color-write visibility: a Look at the Compute instant sees the old color
    rows = Schedule(prefix=(Slot(1, ("LOOK", "-")), Slot(3, ("COMP", "LOOK")), Slot(5, ("-", "COMP"))))
    tr = run(builtin("ss3"), rows, ("A", "A"), 1, SchedulerClass.asynchronous(), RIGID)
    assert tr.light_at(1, 6) == "B"

    # rigid scaling across 50 random algorithm/schedule pairs
    rng = random.Random(99)
    three_color = list(enumerate_graphs(3, LABELS))
    for _ in range(50):
        g = rng.choice(three_color + builtins)
        s = random_lc_atomic_schedule(random.Random(rng.randrange(10**6)), horizon=24)
        base = run(g, s, ("A", "A"), 1, LC, RIGID, stop_at_rendezvous=False)
        scaled = run(g, s, ("A", "A"), F(5, 7), LC, RIGID, stop_at_rendezvous=False)
        for x, y in zip(base.steps, scaled.steps):
            assert y.distance_after == F(5, 7) * x.distance_after

    # swap symmetry: mirrored schedule and swapped roles give the mirrored trace
    for seed in range(5):
        s = random_lc_atomic_schedule(random.Random(seed), horizon=32)
        a = run(builtins[2], s, ("B", "C"), 1, LC, RIGID, stop_at_rendezvous=False)
        b = run(builtins[2], mirror(s), ("C", "B"), 1, LC, RIGID,
                positions=(F(1), F(0)), stop_at_rendezvous=False)
        for x, y in zip(a.steps, b.steps):
            assert x.lights_after == tuple(reversed(y.lights_after))
            assert x.positions_after == tuple(reversed(y.positions_after))

    # distance zero is absorbing for every built-in
    for g in builtins:
        tr = run(g, sim(horizon=12), ("A", "A"), 0, SchedulerClass.fsync(), RIGID,
                 stop_at_rendezvous=False)
        assert all(step.distance_after == 0 for step in tr.steps)
    report(9, "determinism, staleness, visibility, scaling, swap symmetry, absorption all hold")


def test_criterion_10_schedule_legality():
    assert check_legal(alt(), LCMV) == []

    inside_lc = Schedule(
        prefix=(
            Slot(1, ("LOOK", "-")),
            Slot(2, ("-", "LOOK")),
            Slot(3, ("COMP", "-")),
            Slot(5, ("-", "COMP")),
        )
    )
    violations = check_legal(inside_lc, LC)
    assert any(v.kind == "lc-window" and v.times == (1, 2, 3) for v in violations)

    inside_move = Schedule(
        prefix=(
            Slot(1, ("LOOK", "-")),
            Slot(2, ("COMP", "-")),
            Slot(3, ("MB", "-")),
            Slot(4, ("-", "LOOK")),
            Slot(5, ("ME", "-")),
            Slot(6, ("-", "COMP")),
        )
    )
    violations = check_legal(inside_move, SchedulerClass.asynchronous(move_atomic=True))
    assert any(v.kind == "move-window" and v.times == (3, 4, 5) for v in violations)
    report(10, "alternate schedule accepted; window intrusions rejected with their times")
