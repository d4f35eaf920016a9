import dataclasses
import functools
import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lumirend import engine, schedules, verify
from lumirend.algorithms import BadParameter, builtin, enumerate_graphs, orbit_labels
from lumirend.core import (
    FSYNC,
    SSYNC,
    LightGraph,
    MovementModel,
    SchedulerClass,
    destination,
    format_rational,
    transition,
    truncate_move,
)
from lumirend.engine import IllegalSchedule, run
from lumirend.schedules import (
    ROBOTS,
    Schedule,
    Slot,
    block,
    sim,
    starved_robot,
)
from lumirend.verify import (
    CertificateError,
    Diverges,
    Inconclusive,
    Rendezvous,
    ScalingLoopCertificate,
    SearchConfig,
    SearchGraph,
    StructuralReport,
    _canonical_key,
    _is_rendezvous_state,
    _key_movement,
    _sanitize_block,
    _search_children,
    _step,
    _timed,
    check_rendezvous,
    classify_stabilization,
    counterexample_names,
    detect_scaling_loop,
    missing_label_adversary,
    reachable_cs_color_pairs,
    replay_paper_counterexample,
    search_one,
    structural_check,
    validate_certificate,
)
from random_schedules import random_lc_atomic_schedule
from trace_properties import (
    check_contraction_pattern,
    check_stationary_partner,
    check_synchronous_contraction,
    stationary_pairs,
)
import reference_engine

F = Fraction
LCMV = SchedulerClass.asynchronous(lc_atomic=True, move_atomic=True)
LC = SchedulerClass.asynchronous(lc_atomic=True)
RIGID = MovementModel.rigid()
NR4 = MovementModel.non_rigid(F(1, 4))
# from A,A each SSYNC round moves both robots away by half the distance
EXPANDING = LightGraph.build("AB", {"A": ("A", "-1/2"), "B": ("A", "-1/2")})


# -- check_rendezvous ----------------------------------------------------------


def test_rendezvous_simultaneous_case():
    tr = run(builtin("nonqss3"), sim(horizon=4), ("A", "A"), 1, LCMV, RIGID)
    verdict = check_rendezvous(tr)
    assert isinstance(verdict, Rendezvous)
    assert tr.position_at(0, verdict.time) == tr.position_at(1, verdict.time) == F(1, 2)
    assert {tr.light_at(0, verdict.time), tr.light_at(1, verdict.time)} == {"B"}


def test_rendezvous_at_start_for_zero_distance():
    tr = run(builtin("ss3"), sim(horizon=4), ("A", "A"), 0, SchedulerClass.fsync(), RIGID)
    assert check_rendezvous(tr) == Rendezvous(0)


def test_diverging_trace_is_inconclusive_without_certificate():
    res = replay_paper_counterexample("lemma6_alg_a")
    verdict = check_rendezvous(res.trace)
    assert isinstance(verdict, Inconclusive)


# -- scaling loop detection -----------------------------------------------------


def test_detect_swap_loop_three_colors():
    res = replay_paper_counterexample("lemma6_alg_a")
    cert = detect_scaling_loop(res.trace)
    assert cert is not None
    assert cert.swap and cert.ratio == F(1, 4)
    assert set(cert.entry_colors) == {"B", "C"}


def test_detect_fixed_point_free_sim_loop():
    res = replay_paper_counterexample("lemma9_1", 0)
    cert = res.verdict.certificate
    assert cert.swap and cert.ratio == F(1, 2)
    assert cert.entry_colors == ("A", "C")


def test_no_certificate_on_converging_trace():
    tr = run(builtin("nonqss3"), sim(horizon=8), ("A", "A"), 1, LCMV, RIGID)
    assert detect_scaling_loop(tr) is None


def _reference_detect_scaling_loop(trace, dropped=None):
    """`detect_scaling_loop` as it was before it built configurations on
    demand: every cycle-start configuration up front, and each candidate
    block filtered from all steps.  `dropped` collects why a color recurrence
    it reached failed the distance filter: "zero" for a distance 0, "larger"
    for a later distance above the entry's."""
    configs = [(t, trace.configuration_at(t)) for t in trace.cs_times()]
    for i, (ti, ci) in enumerate(configs):
        for tj, cj in configs[i + 1 :]:
            swap = cj.pair == (ci.c_s, ci.c_r) and ci.c_r != ci.c_s
            if ci.d <= 0 or cj.d <= 0 or cj.d > ci.d:
                if dropped is not None and (swap or cj.pair == ci.pair):
                    dropped.add("larger" if cj.d > ci.d > 0 else "zero")
                continue
            if not (swap or cj.pair == ci.pair):
                continue
            raw = [Slot(s.time, s.ops, s.fractions) for s in trace.steps if ti <= s.time < tj]
            blk = _two_pass_sanitize_block(raw)
            if not blk or starved_robot(blk) is not None:
                continue
            cert = ScalingLoopCertificate(
                trace.graph, trace.scheduler, trace.movement, ci.pair, ci.d, Schedule(blk), cj.d / ci.d, swap
            )
            try:
                validate_certificate(cert)
                return cert
            except CertificateError:
                continue
    return None


def _two_pass_sanitize_block(slots):
    """`_sanitize_block` as it was before it made one pass: each kept slot
    built with its leading ops stripped, then built again at its rebased
    time."""
    first_look = []
    for r in ROBOTS:
        first = next((s.time for s in slots if s.ops[r] in ("LOOK", "LC")), None)
        if first is None:
            return ()
        first_look.append(first)
    cleaned = []
    for s in slots:
        ops = list(s.ops)
        fracs = list(s.fractions)
        for r in ROBOTS:
            if s.time < first_look[r] and ops[r] != "-":
                ops[r] = "-"
                fracs[r] = None
        if ops != ["-", "-"]:
            cleaned.append(Slot(s.time, tuple(ops), tuple(fracs)))
    shift = cleaned[0].time - 1
    return tuple(Slot(s.time - shift, s.ops, s.fractions) for s in cleaned)


def test_sanitize_block_matches_the_two_pass_version():
    rng = random.Random(7)
    ops = ("LC", "LOOK", "COMP", "M", "MB", "ME", "-", "-", "-")
    seen = {"leading ops": 0, "empty slot": 0, "robot without a Look": 0, "fraction beside no op": 0}
    for _ in range(3000):
        t, slots = 0, []
        for _k in range(rng.randint(0, 8)):
            t += rng.randint(1, 3)
            pair = (rng.choice(ops), rng.choice(ops))
            slots.append(Slot(t, pair, (rng.choice((None, F(1, 2))), rng.choice((None, F(1))))))
        want = _two_pass_sanitize_block(slots)
        assert _sanitize_block(slots) == want, slots
        looks = [[s.time for s in slots if s.ops[r] in ("LOOK", "LC")] for r in ROBOTS]
        seen["robot without a Look"] += not all(looks)
        if all(looks):
            seen["leading ops"] += any(s.time < looks[r][0] and s.ops[r] != "-" for s in slots for r in ROBOTS)
        seen["empty slot"] += any(s.ops == ("-", "-") for s in slots)
        seen["fraction beside no op"] += any(s.ops[0] == "-" and s.fractions[0] for s in slots)
    assert all(seen.values()), seen


def _detection_traces():
    fractions = [F(0), F(1, 3), F(1, 2), F(1)]
    lc = SchedulerClass.asynchronous(lc_atomic=True)
    for seed in range(16):
        g = builtin(("ss3", "qss4", "nonqss3", "ss5")[seed % 4])
        s = random_lc_atomic_schedule(random.Random(seed), 30, fractions)
        for movement in (RIGID, MovementModel.non_rigid(F(1, 8))):
            yield run(g, s, ("A", "B"), 1, lc, movement)
    for name in counterexample_names():
        # the lemma 6 and 7 algorithms take no coefficient
        lam = None if name in ("lemma6_alg_a", "lemma7_alg_b") else F(1, 2)
        yield replay_paper_counterexample(name, lam).trace
    yield replay_paper_counterexample("lemma9_1", 0).trace
    yield replay_paper_counterexample("lemma9_2", 1).trace
    jobs = [
        (g, start, lam)
        for g in enumerate_graphs(3, (F(0), F(1, 2), F(1)))
        for start, labels in structural_check(g).per_start_missing.items()
        for lam in labels
    ]
    for g, start, lam in random.Random(0).sample(jobs, 60):
        yield missing_label_adversary(g, start, lam)[1]
    # colors that recur at distance 0: after a meeting the run does not stop at
    yield run(builtin("nonqss3"), sim(horizon=12), ("A", "A"), 1, LCMV, RIGID, stop_at_rendezvous=False)
    # colors that recur at a larger distance: each round doubles the distance
    expanding = LightGraph.build("AB", {"A": ("A", "-1/2"), "B": ("A", "-1/2")})
    yield run(expanding, sim(horizon=8), ("A", "A"), 1, SchedulerClass.ssync(), RIGID)


def test_detect_scaling_loop_matches_the_reference():
    found = {True: 0, False: 0}  # by whether the trace has a split move
    traces = 0
    dropped: set[str] = set()
    for trace in _detection_traces():
        got, want = detect_scaling_loop(trace), _reference_detect_scaling_loop(trace, dropped)
        assert (got and got.to_json()) == (want and want.to_json()), trace.to_jsonl()
        traces += 1
        found[any("MB" in s.ops for s in trace.steps)] += got is not None
    # certificates on traces with and without split moves, and none on some
    assert found[True] and found[False] and sum(found.values()) < traces
    # color recurrences that the distance filter drops, of both kinds
    assert dropped == {"zero", "larger"}


# -- certificates ---------------------------------------------------------------


def test_certificate_roundtrip_and_tampering():
    cert = replay_paper_counterexample("lemma7_alg_b").verdict.certificate
    again = ScalingLoopCertificate.from_json(cert.to_json())
    validate_certificate(again)
    tampered = ScalingLoopCertificate(
        graph=cert.graph,
        scheduler=cert.scheduler,
        movement=cert.movement,
        entry_colors=cert.entry_colors,
        entry_distance=cert.entry_distance,
        schedule_block=cert.schedule_block,
        ratio=F(1, 3),
        swap=cert.swap,
    )
    with pytest.raises(CertificateError):
        validate_certificate(tampered)


def _reference_json_dict(cert) -> dict:
    """The certificate as a dict of the JSON types its file holds."""
    movement = {"kind": cert.movement.kind}
    if cert.movement.delta is not None:
        movement["delta"] = format_rational(cert.movement.delta)
    return {
        "algorithm": json.loads(cert.graph.to_json()),
        "scheduler": {
            "kind": cert.scheduler.kind,
            "lc_atomic": cert.scheduler.lc_atomic,
            "move_atomic": cert.scheduler.move_atomic,
        },
        "movement": movement,
        "entry": {"colors": list(cert.entry_colors), "distance": format_rational(cert.entry_distance)},
        "block": json.loads(cert.schedule_block.to_json()),
        "ratio": format_rational(cert.ratio),
        "swap": cert.swap,
    }


def _assert_json_matches_the_reference(cert):
    text = cert.to_json()
    assert text == json.dumps(_reference_json_dict(cert), sort_keys=True, indent=2)
    again = ScalingLoopCertificate.from_json(text)
    assert again == cert and again.to_json() == text


@functools.cache
def _survey_certificates() -> tuple[ScalingLoopCertificate, ...]:
    """The certificates of criterion 08's 2187 searches."""
    cfg = SearchConfig(40, LCMV, RIGID)
    certs = []
    for g in enumerate_graphs(3, (F(0), F(1, 2), F(1))):
        for c in g.colors:
            verdict = search_one(g, cfg, (c, c), 1)
            if verdict.kind == "diverges":
                certs.append(verdict.certificate)
    assert len(certs) == 2175
    return tuple(certs)


def test_certificate_json_matches_the_reference_on_the_sweeps():
    # criterion 08's 2187 searches, and a sample of criterion 07's adversaries
    certs = list(_survey_certificates())
    jobs = [
        (g, start, lam)
        for g in enumerate_graphs(3, (F(0), F(1, 2), F(1)))
        for start, labels in structural_check(g).per_start_missing.items()
        for lam in labels
    ]
    for g, start, lam in random.Random(1).sample(jobs, 150):
        certs.append(missing_label_adversary(g, start, lam)[2])
    for cert in certs:
        _assert_json_matches_the_reference(cert)


def test_certificate_json_matches_the_reference_on_made_cases():
    swapped = replay_paper_counterexample("lemma6_alg_a").verdict.certificate
    assert swapped.swap
    # non-rigid, with None and non-None fractions
    cut = ScalingLoopCertificate(
        EXPANDING, SchedulerClass.ssync(), NR4, ("A", "A"), F(1),
        Schedule(block([("LC", "LC"), ("M", "M")], [(None, None), (F(1, 2), F(1, 2))])), F(3, 2), False,
    )
    # color names that JSON escapes: a quote, a backslash, non-ASCII, a tab
    odd = LightGraph.build(
        ['A"', "\\", "é", "\t⊥"],
        {'A"': ("é", "-1/3"), "\\": ('A"', 0), "é": ("\t⊥", 1), "\t⊥": ("\\", "7/2")},
    )
    named = ScalingLoopCertificate(
        odd, LC, MovementModel.non_rigid(F(1, 8)), ("é", 'A"'), F(5, 3),
        Schedule(block([("LC", "-"), ("M", "LC"), ("-", "M")], [(None, None), (F(0), None), (None, F(1))])),
        F(2, 7), True,
    )
    empty = dataclasses.replace(named, schedule_block=Schedule())
    for cert in (swapped, cut, named, empty):
        _assert_json_matches_the_reference(cert)
    assert '"prefix": []' in empty.to_json()


def test_certificate_rejects_bad_ratio():
    cert = replay_paper_counterexample("lemma6_alg_a").verdict.certificate
    bad = ScalingLoopCertificate(
        cert.graph, cert.scheduler, cert.movement, cert.entry_colors,
        cert.entry_distance, cert.schedule_block, F(3, 2), cert.swap,
    )
    with pytest.raises(CertificateError):
        validate_certificate(bad)


def _count_check_legal(monkeypatch) -> list:
    calls = []
    check_legal = schedules.check_legal

    def counting(schedule, cls, *args):
        calls.append(schedule)
        return check_legal(schedule, cls, *args)

    monkeypatch.setattr(schedules, "check_legal", counting)
    return calls


def test_validation_checks_the_block_once(monkeypatch):
    swapped = replay_paper_counterexample("lemma6_alg_a").verdict.certificate
    plain = replay_paper_counterexample("lemma9_1", F(1, 2)).verdict.certificate
    assert swapped.swap and not plain.swap
    calls = _count_check_legal(monkeypatch)
    validate_certificate(plain)
    assert calls == [plain.schedule_block]
    calls.clear()
    # the second replay of a swap recurrence runs the mirrored block, which is
    # legal exactly when the block is (test_legality_is_symmetric_under_mirroring)
    validate_certificate(swapped)
    assert calls == [swapped.schedule_block]


def test_validation_rejects_an_illegal_block_as_the_engine_does():
    cert = replay_paper_counterexample("lemma6_alg_a").verdict.certificate
    # robot 0 moves before it has computed a destination
    blk = block([("M", "-"), ("LC", "LC"), ("M", "M")])
    with pytest.raises(IllegalSchedule) as engine:
        run(cert.graph, Schedule(prefix=blk), cert.entry_colors, cert.entry_distance,
            cert.scheduler, cert.movement)
    with pytest.raises(CertificateError) as rejected:
        validate_certificate(dataclasses.replace(cert, schedule_block=Schedule(blk)))
    assert str(rejected.value) == f"the engine rejects the block: {engine.value}"


def test_validation_rejects_a_fraction_outside_0_1_as_the_engine_does():
    cert = replay_paper_counterexample("lemma9_3", F(1, 2)).verdict.certificate
    slots = list(cert.schedule_block.prefix)
    assert slots[2].ops == ("M", "-")
    for fraction in (F(2), F(-1, 2)):
        slots[2] = Slot(3, ("M", "-"), (fraction, None))
        with pytest.raises(CertificateError) as rejected:
            validate_certificate(dataclasses.replace(cert, schedule_block=Schedule(tuple(slots))))
        assert str(rejected.value) == (
            "the engine rejects the block: robot 0: M at t=3: adversary fraction must lie in [0, 1]"
        )


# from (A, B), a round in which both robots look and compute swaps their
# colors and moves neither
SWAPPING = LightGraph.build("AB", {"A": ("A", 0), "B": ("B", 0)})


def _count_replays(monkeypatch) -> list:
    calls = []
    replay = verify.run

    def counting(g, schedule, *args, **kwargs):
        calls.append(schedule)
        return replay(g, schedule, *args, **kwargs)

    monkeypatch.setattr(verify, "run", counting)
    return calls


def test_only_a_block_back_at_its_entry_unswapped_at_ratio_1_is_replayed_once(monkeypatch):
    rounds = [("LC", "LC"), ("LC", "LC")]
    ssync = SchedulerClass.ssync()
    cases = [
        (next(c for c in _survey_certificates() if c.ratio == 1), 1),
        (ScalingLoopCertificate(SWAPPING, ssync, NR4, ("A", "B"), F(1), Schedule(block(rounds)), F(1), False), 1),
        # a swap at ratio 1, a swap at ratio 1/4, a ratio of 1/4 without one
        (ScalingLoopCertificate(SWAPPING, ssync, RIGID, ("A", "B"), F(1), Schedule(block(rounds[:1])), F(1), True), 2),
        (replay_paper_counterexample("lemma6_alg_a").verdict.certificate, 2),
        (replay_paper_counterexample("lemma9_1", F(1, 2)).verdict.certificate, 2),
        # non-rigid, ratio 3/2
        (ScalingLoopCertificate(
            EXPANDING, ssync, NR4, ("A", "A"), F(1),
            Schedule(block([("LC", "LC"), ("M", "M")], [(None, None), (F(1, 2), F(1, 2))])), F(3, 2), False,
        ), 2),
    ]
    calls = _count_replays(monkeypatch)
    for cert, replays in cases:
        calls.clear()
        validate_certificate(cert)
        blk = cert.schedule_block
        assert calls == [blk, schedules.mirror(blk) if cert.swap else blk][:replays], cert


def _mutants(cert: ScalingLoopCertificate, rng: random.Random):
    """`cert` with one part changed: the ratio, the entry distance, the entry
    colors, the swap flag, one op, and one move fraction."""
    replace = dataclasses.replace
    slots = list(cert.schedule_block.prefix)
    k, robot = rng.randrange(len(slots)), rng.choice(ROBOTS)

    def one_changed(slot_part: int, value) -> Schedule:
        parts = [list(slots[k].ops), list(slots[k].fractions)]
        parts[slot_part][robot] = value
        changed = slots[:k] + [Slot(slots[k].time, tuple(parts[0]), tuple(parts[1]))] + slots[k + 1 :]
        return Schedule(tuple(changed))

    yield replace(cert, ratio=rng.choice((F(1), F(1, 2), F(1, 4), F(2), cert.ratio * 2)))
    yield replace(cert, entry_distance=cert.entry_distance * rng.choice((F(1, 3), F(2), F(5))))
    yield replace(cert, entry_colors=(rng.choice(cert.graph.colors), rng.choice(cert.graph.colors)))
    yield replace(cert, swap=not cert.swap)
    yield replace(cert, schedule_block=one_changed(0, rng.choice(("LC", "LOOK", "COMP", "M", "MB", "ME", "-"))))
    yield replace(cert, schedule_block=one_changed(1, rng.choice((None, F(0), F(1, 2), F(1), F(2), F(-1, 2)))))


def _validation_outcome(validate, cert):
    try:
        validate(cert)
    except Exception as exc:  # the rejection is compared by type and text
        return type(exc), str(exc)
    return None


def test_validation_agrees_with_two_replays_on_the_survey_and_mutants():
    # a rigid block runs alike at any scale, so no survey certificate or
    # mutant fails in the second replay; of the two non-rigid blocks here,
    # the one that cuts its moves to delta does
    made = [
        ScalingLoopCertificate(
            EXPANDING, SchedulerClass.ssync(), NR4, ("A", "A"), F(1),
            Schedule(block([("LC", "LC"), ("M", "M")], [(None, None), (fraction, fraction)])), F(3, 2), False,
        )
        for fraction in (F(0), F(1, 2))
    ]
    rng = random.Random(22)
    seen = {"accepted at ratio 1": 0, "accepted otherwise": 0, "first replay": 0, "second replay": 0, "engine": 0}
    for cert in (*_survey_certificates(), *made):
        for case in (cert, *_mutants(cert, rng)):
            got = _validation_outcome(validate_certificate, case)
            assert got == _validation_outcome(reference_engine.validate_certificate_twice, case), case
            if got is None:
                seen["accepted at ratio 1" if case.ratio == 1 and not case.swap else "accepted otherwise"] += 1
            else:
                reason = got[1]
                kind = next((k for k in ("first replay", "second replay", "engine") if k in reason), None)
                if kind is not None:
                    seen[kind] += 1
    assert all(seen.values()), seen


def _count_trace_rows(monkeypatch) -> list:
    rows = []
    trace_step = engine.TraceStep

    def counting(*args):
        rows.append(args)
        return trace_step(*args)

    monkeypatch.setattr(engine, "TraceStep", counting)
    return rows


def test_adversary_validation_and_search_build_no_trace_rows(monkeypatch):
    rows = _count_trace_rows(monkeypatch)
    g = LightGraph.build("AB", {"A": ("B", "1/2"), "B": ("A", "1/2")})
    schedule, trace, cert = missing_label_adversary(g, "A", F(1))
    validate_certificate(cert)
    assert rows == []
    assert isinstance(search_one(builtin("ss3"), SearchConfig(16, LC, NR4), ("A", "A"), 1), Diverges)
    assert rows == []
    # the rows are built once, for a reader that asks for them
    assert len(trace.steps) == len(schedule.prefix) == len(rows) > 0
    assert trace.steps is trace.steps and len(rows) == len(schedule.prefix)


# -- published counterexamples ----------------------------------------------------


@pytest.mark.parametrize(
    "name, lam, entry, ratio",
    [
        ("lemma6_alg_a", None, ("B", "C"), F(1, 4)),
        ("lemma7_alg_b", None, ("B", "C"), F(1, 4)),
        ("lemma9_1", F(1, 2), ("D", "A"), F(1, 4)),
        ("lemma9_2", F(1), ("A", "B"), F(1, 4)),
        ("lemma9_2", F(1, 2), ("B", "C"), F(1, 4)),
        ("lemma9_3", F(1, 2), ("A", "B"), F(3, 8)),
        ("lemma9_4", F(1, 2), ("A", "B"), F(1, 4)),
        ("lemma9_5", F(1, 2), ("A", "B"), F(1, 4)),
        ("lemma9_6", F(1, 2), ("A", "B"), F(1, 4)),
    ],
)
def test_replay_counterexamples(name, lam, entry, ratio):
    res = replay_paper_counterexample(name, lam)
    cert = res.verdict.certificate
    assert cert.entry_colors == entry
    assert cert.ratio == ratio
    validate_certificate(cert)


def test_replay_side_conditions():
    with pytest.raises(BadParameter):
        replay_paper_counterexample("lemma9_3", 1)
    with pytest.raises(BadParameter):
        replay_paper_counterexample("lemma9_6", 0)


# -- adversary search -------------------------------------------------------------


def test_search_three_color_cycle_diverges():
    cfg = SearchConfig(horizon=40, scheduler=LCMV, movement=RIGID)
    for colors in (("A", "A"), ("B", "B"), ("C", "C")):
        verdict = search_one(builtin("ss3"), cfg, colors, 1)
        assert isinstance(verdict, Diverges)


def test_search_nonqss3_profile():
    cfg = SearchConfig(horizon=40, scheduler=LC, movement=RIGID)
    assert isinstance(search_one(builtin("nonqss3"), cfg, ("A", "A"), 1), Rendezvous)
    swap = search_one(builtin("nonqss3"), cfg, ("B", "B"), 1)
    assert isinstance(swap, Diverges)
    assert swap.certificate.ratio == 1


def test_search_qss4_mixed_start_diverges():
    cfg = SearchConfig(horizon=40, scheduler=LCMV, movement=RIGID)
    verdict = search_one(builtin("qss4"), cfg, ("A", "C"), 1)
    assert isinstance(verdict, Diverges)


def test_search_qss4_same_color_succeeds_nonrigid():
    cfg = SearchConfig(horizon=60, scheduler=LC, movement=NR4)
    for c in "ABCD":
        assert isinstance(search_one(builtin("qss4"), cfg, (c, c), 1), Rendezvous)


def test_search_fsync_full_moves_halve_from_pivot():
    cfg = SearchConfig(
        horizon=16,
        scheduler=SchedulerClass.fsync(),
        movement=RIGID,
    )
    verdict = search_one(builtin("ss3"), cfg, ("A", "A"), 1)
    assert isinstance(verdict, Rendezvous)


def test_search_state_cap_reports_its_own_reason(monkeypatch):
    # the graph closes without a cap (rendezvous); a cap of 111 states stops
    # it at depth 10, far below the horizon
    g = builtin("ss5")
    with monkeypatch.context() as m:
        m.setattr(verify, "MAX_STATES", 111)
        capped = search_one(g, SearchConfig(64, LC, NR4), ("A", "A"), 1)
    assert isinstance(capped, Inconclusive)
    assert capped.reason == "open branches remain; state cap of 111 reached"
    assert isinstance(search_one(g, SearchConfig(64, LC, NR4), ("A", "A"), 1), Rendezvous)
    short = search_one(g, SearchConfig(4, LC, NR4), ("A", "A"), 1)
    assert short.reason == "open branches remain; horizon too small"


NO_CLEAN_ENTRY = "fair loop found but no clean certificate entry"
REJECTED = "fair loop found but its certificate is rejected: "


def _reference_search(g, cfg, colors, distance):
    """The verdict of one search from the graph explored to the horizon: a
    default `SearchGraph`, its first fair SCC, and that SCC's certificate."""
    initial = (colors, (None, None), (F(0), F(distance)))
    graph = SearchGraph(g, cfg, initial)
    comp = graph.fair_scc()
    if comp is not None:
        try:
            cert = graph.certificate_from_scc(comp)
        except CertificateError as exc:
            return Inconclusive(cfg.horizon, REJECTED + str(exc))
        return Diverges(cert) if cert is not None else Inconclusive(cfg.horizon, NO_CLEAN_ENTRY)
    if graph.capped:
        return Inconclusive(cfg.horizon, f"open branches remain; state cap of {verify.MAX_STATES} reached")
    if graph.open_frontier():
        return Inconclusive(cfg.horizon, "open branches remain; horizon too small")
    return Rendezvous(cfg.horizon)


def _reference_fair_sccs(graph) -> list[frozenset]:
    """The fair components of a search graph by plain reachability: sets of
    non-rendezvous states that reach each other, where a one-state set needs
    a self-loop, and whose internal edges complete a cycle of each robot."""
    nodes = graph.nodes
    succ = {
        k: {c for _s, _c, c in n.edges if not nodes[c].rendezvous}
        for k, n in nodes.items()
        if not n.rendezvous
    }
    reach = {}
    for k in succ:
        seen, todo = {k}, [k]
        while todo:
            for c in succ[todo.pop()] - seen:
                seen.add(c)
                todo.append(c)
        reach[k] = seen
    fair = []
    for comp in {frozenset(u for u in reach[k] if k in reach[u]) for k in succ}:
        (first, *_rest) = comp
        if len(comp) == 1 and first not in succ[first]:
            continue
        done = set().union(*(cmp for k in comp for _s, cmp, c in nodes[k].edges if c in comp))
        if done == {0, 1}:
            fair.append(comp)
    return fair


def test_fair_scc_finds_a_fair_component_of_the_reference():
    # `fair_scc` states no one-state rule: a one-state component without a
    # self-loop has no internal edge, so it completes no cycle
    seen = {"fair": 0, "none fair": 0}
    graphs = list(enumerate_graphs(2, (F(0), F(1, 2), F(1)))) + [builtin("ss3"), builtin("qss4")]
    for g in graphs:
        for scheduler in (SchedulerClass.ssync(), LC):
            cfg = SearchConfig(4, scheduler, RIGID)
            for colors in ((a, b) for a in g.colors for b in g.colors):
                graph = SearchGraph(g, cfg, (colors, (None, None), (F(0), F(1))))
                want, got = _reference_fair_sccs(graph), graph.fair_scc()
                assert (got is None) == (not want), (g, cfg, colors)
                assert got is None or frozenset(got) in want
                seen["fair" if want else "none fair"] += 1
    assert all(seen.values()), seen


def test_early_stop_agrees_with_the_full_graph(monkeypatch):
    # a search may stop at a doubling depth only on a validated certificate:
    # every verdict of the full graph stands, except that a fair loop without
    # a clean entry, or with a rejected certificate, may give way to a
    # certificate found in a partial graph
    halves = (F(0), F(1, 2), F(1))
    graphs = list(enumerate_graphs(2, halves)) + [
        builtin(name) for name in ("ss3", "alg_b", "nonqss3", "qss4", "ss5")
    ]
    # from B,B under SSYNC, rigid: the fair SCC of the partial graph at depth
    # 2 yields no certificate, the one of the complete graph does
    graphs.append(LightGraph.build("AB", {"A": ("B", "-1/2"), "B": ("A", 1)}))
    settings = [
        (SearchConfig(3, scheduler, movement), fractions)
        for scheduler in (SchedulerClass.ssync(), LC, LCMV)
        for movement, fractions in ((RIGID, (F(0), F(1))), (NR4, halves))
    ]
    # the verdicts under the extra fraction 1/2 are kept out of the shared memo
    monkeypatch.setattr(verify, "_MEMO", {})
    for g in graphs:
        for cfg, fractions in settings:
            monkeypatch.setattr(verify, "FRACTION_CHOICES", fractions)
            for colors in ((a, b) for a in g.colors for b in g.colors):
                want = _reference_search(g, cfg, colors, 1)
                got = verify._search_core(g, cfg, colors, 1)
                if isinstance(got, Diverges):
                    validate_certificate(got.certificate)
                    if want.kind != "diverges":
                        assert want.reason == NO_CLEAN_ENTRY or want.reason.startswith(REJECTED), (
                            g, cfg, colors
                        )
                        continue
                assert (got.kind, getattr(got, "reason", None)) == (
                    want.kind, getattr(want, "reason", None)
                ), (g, cfg, colors)


def test_rejected_certificate_is_reported_as_such(monkeypatch):
    # every loop the search closes replays, so the search is handed a
    # validator that also rejects ratios above 1; the loop of EXPANDING from
    # its clean start state doubles the distance
    validate = verify.validate_certificate

    def shrinking_only(cert):
        if cert.ratio > 1:
            raise CertificateError(f"ratio {cert.ratio} above 1")
        validate(cert)

    monkeypatch.setattr(verify, "validate_certificate", shrinking_only)
    verdict = search_one(EXPANDING, SearchConfig(8, SchedulerClass.ssync(), RIGID), ("A", "A"), 1)
    assert verdict == Inconclusive(8, REJECTED + "ratio 2 above 1")


def test_expanding_rigid_loops_diverge():
    # every rigid search over the two-color graphs with labels outside
    # [0, 1] is decided: 450 of them by a certificate with a ratio above 1,
    # which replay validation once rejected (ratio 2 for EXPANDING)
    labels = (F(0), F(1, 2), F(1), F(-1, 2), F(2))
    verdict = search_one(EXPANDING, SearchConfig(8, SchedulerClass.ssync(), RIGID), ("A", "A"), 1)
    assert verdict.kind == "diverges" and verdict.certificate.ratio == 2
    kinds, expanding = set(), set()
    for scheduler in (SchedulerClass.ssync(), LC, LCMV):
        cfg = SearchConfig(6, scheduler, RIGID)
        for g in enumerate_graphs(2, labels):
            for colors in product(g.colors, repeat=2):
                verdict = verify._search_core(g, cfg, colors, 1)
                kinds.add(verdict.kind)
                if verdict.kind == "diverges" and verdict.certificate.ratio > 1:
                    validate_certificate(verdict.certificate)
                    expanding.add((g.to_json(), cfg.scheduler, colors))
    assert kinds == {"diverges", "rendezvous"}
    assert len(expanding) == 450


def test_expanding_non_rigid_loop_needs_cuts_that_scale():
    # one SSYNC round of EXPANDING from distance 1 under non-rigid delta=1/4:
    # each robot's move is 1/2 long.  Cut at fraction 1/2 it covers delta,
    # and at any larger distance half its move, at least delta again: the
    # run scales, ratio 3/2.  Cut at fraction 0 it covers delta whatever the
    # distance, so the second replay does not scale
    def cert(fraction, ratio):
        blk = Schedule(block([("LC", "LC"), ("M", "M")], [(None, None), (fraction, fraction)]))
        return ScalingLoopCertificate(
            EXPANDING, SchedulerClass.ssync(), NR4, ("A", "A"), F(1), blk, ratio, False
        )

    validate_certificate(cert(F(1, 2), F(3, 2)))
    with pytest.raises(CertificateError, match="second replay gave distance 2, expected 9/4"):
        validate_certificate(cert(F(0), F(3, 2)))
    # the search keeps the scale of non-rigid states with such labels, so it
    # closes no expanding loop there
    verdict = search_one(EXPANDING, SearchConfig(6, SchedulerClass.ssync(), NR4), ("A", "A"), 1)
    assert verdict == Inconclusive(6, "open branches remain; horizon too small")



def _repeat_holds(cert, n) -> bool:
    """Whether the block, repeated n times (mirrored in every other
    repetition of a swap recurrence), runs without meeting and ends each
    repetition at a cycle start with the claimed pair and distance."""
    span = cert.schedule_block.prefix[-1].time
    slots, ends, blk = [], [], cert.schedule_block
    for k in range(n):
        slots += [Slot(s.time + k * span, s.ops, s.fractions) for s in blk.prefix]
        ends.append((k + 1) * span + 1)
        if cert.swap:
            blk = schedules.mirror(blk)
    tr = run(cert.graph, Schedule(tuple(slots)), cert.entry_colors, cert.entry_distance,
             cert.scheduler, cert.movement)
    pair = cert.entry_colors
    for k, end in enumerate(ends, 1):
        if cert.swap:
            pair = pair[::-1]
        if tr.rendezvous_time is not None or not tr.is_cs(end) or tr.configuration_at(end) != (
            engine.ConfigurationView(*pair, cert.ratio**k * cert.entry_distance)
        ):
            return False
    return True


def test_a_shrinking_non_rigid_block_may_cut_no_move():
    # a cut travels at least delta whatever the distance, so a block with
    # ratio 1/2 that cuts a move runs only until the distance is too small
    g = LightGraph.build("ABC", {"A": ("A", "1/2"), "B": ("C", 0), "C": ("C", "1/2")})
    half = F(1, 2)
    blk = Schedule((
        Slot(1, ("-", "LC")), Slot(2, ("LC", "MB"), (None, half)), Slot(3, ("MB", "-"), (half, None)),
        Slot(4, ("-", "ME")), Slot(5, ("ME", "-")),
    ))
    cert = ScalingLoopCertificate(g, LC, MovementModel.non_rigid(F(1, 16)), ("C", "C"), F(1), blk, half, False)
    first = run(g, blk, ("C", "C"), 1, LC, cert.movement)
    assert first.cuts_a_move() and first.configuration_at(6).d == half
    assert not _repeat_holds(cert, 4)
    with pytest.raises(CertificateError, match="^a move cut short cannot repeat at a smaller scale$"):
        validate_certificate(cert)


def test_split_move_certificates_hold_when_repeated(monkeypatch):
    # seeded split-move runs of the paper's algorithms: every certificate of
    # ratio <= 1 that detection returns still holds over 8 repetitions
    reasons = []

    def recording(cert):
        try:
            validate(cert)
        except CertificateError as exc:
            reasons.append(str(exc))
            raise

    validate = verify.validate_certificate
    monkeypatch.setattr(verify, "validate_certificate", recording)
    rng = random.Random(3)
    fractions = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    found = {"rigid": 0, "non-rigid": 0}
    for k in range(240):
        name = ("qss4", "ss5")[k % 2]
        g = builtin(name)
        start = (rng.choice(g.colors), rng.choice(g.colors))
        s = random_lc_atomic_schedule(rng, 80, fractions)
        for movement in (RIGID, MovementModel.non_rigid((F(1, 4), F(1, 16), F(1, 64))[k % 3])):
            cert = detect_scaling_loop(run(g, s, start, 1, LC, movement))
            if cert is not None:
                assert cert.ratio <= 1 and _repeat_holds(cert, 8), cert.to_json()
                found[movement.kind] += 1
    # a certificate is found, and the rule rejects shrinking blocks on the way
    assert found["rigid"] and "a move cut short cannot repeat at a smaller scale" in reasons, found


def test_fair_loop_without_a_clean_entry_keeps_its_reason(monkeypatch):
    # no graph searched in the tests has a fair SCC without a clean member,
    # so the search is handed one: the non-rendezvous states with a move
    # pending, none of which is clean
    g = LightGraph.build("AB", {"A": ("A", "-1/2"), "B": ("A", "-1/2")})
    cfg = SearchConfig(4, LC, RIGID)

    def unclean(graph):
        return [k for k, n in graph.nodes.items() if not n.rendezvous and any(n.rep[1])]

    graph = SearchGraph(g, cfg, (("A", "A"), (None, None), (F(0), F(1))))
    assert unclean(graph) and graph.certificate_from_scc(unclean(graph)) is None
    monkeypatch.setattr(SearchGraph, "fair_scc", unclean)
    assert verify._search_core(g, cfg, ("A", "A"), 1) == Inconclusive(4, NO_CLEAN_ENTRY)


def test_search_stops_at_the_first_certified_depth(monkeypatch):
    # explored to the horizon, each of these graphs holds 1e5-2e5 states; a
    # fair loop in each certifies by depth 8
    built = []

    class RecordingGraph(SearchGraph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr("lumirend.verify.SearchGraph", RecordingGraph)
    jump = LightGraph.build("A", {"A": ("A", 2)})
    for g, horizon, d in ((jump, 16, F(1, 8)), (jump, 16, F(1, 4)), (builtin("ss3"), 64, 1)):
        built.clear()
        verdict = search_one(g, SearchConfig(horizon, LC, NR4), ("A", "A"), d)
        assert isinstance(verdict, Diverges)
        validate_certificate(verdict.certificate)
        assert built
        assert all(max(n.depth for n in graph.nodes.values()) <= 8 for graph in built)


# -- verdicts shared across relabelings ---------------------------------------


def _fresh(g, cfg, colors, distance=1):
    verify._MEMO.clear()
    return search_one(g, cfg, colors, distance)


def _same_verdict(got, want) -> bool:
    if isinstance(want, Diverges):
        return isinstance(got, Diverges) and got.certificate.to_json() == want.certificate.to_json()
    return got == want


def test_shared_verdicts_equal_fresh_searches_on_the_three_color_sweep():
    # criterion 08's 729 x 3 searches: a warm memo, filled in sweep order,
    # against a memo cleared before each search
    cfg = SearchConfig(horizon=40, scheduler=LCMV, movement=RIGID)
    jobs = [(g, (c, c)) for g in enumerate_graphs(3, (F(0), F(1, 2), F(1))) for c in g.colors]
    warm = [search_one(g, cfg, colors, 1) for g, colors in jobs]
    assert len(verify._MEMO) < len(jobs) // 10
    for (g, colors), got in zip(jobs, warm):
        assert _same_verdict(got, _fresh(g, cfg, colors)), (g, colors)


def test_shared_verdicts_equal_fresh_searches_on_the_ss3_relabelings():
    # the six relabelings of ss3/alg_b, from every start, under the class the
    # SSYNC pre-pass cannot decide
    cfg = SearchConfig(horizon=12, scheduler=LC, movement=NR4)
    graphs = list(enumerate_graphs(3, (F(0), F(1, 2), F(1))))
    jobs = [
        (graphs[idx], (a, b))
        for idx in (412, 416, 426, 518, 528, 532)
        for a in "ABC"
        for b in "ABC"
    ]
    warm = [search_one(g, cfg, colors, 1) for g, colors in jobs]
    assert any(isinstance(v, Diverges) for v in warm)
    for (g, colors), got in zip(jobs, warm):
        assert _same_verdict(got, _fresh(g, cfg, colors)), (g, colors)


def test_graphs_differing_in_an_unreached_label_do_not_share():
    # from A,A only A and B are reached; C's label decides whether states
    # keep their scale, and with it the verdict at this horizon
    cfg = SearchConfig(8, LC, NR4)
    jumps, halves = (
        LightGraph.build("ABC", {"A": ("B", "1/2"), "B": ("A", 0), "C": ("A", lam)})
        for lam in ("2", "1/2")
    )
    fresh = [(g, _fresh(g, cfg, ("A", "A"))) for g in (jumps, halves)]
    assert [v.kind for _g, v in fresh] == ["inconclusive", "diverges"]
    for order in (fresh, fresh[::-1]):
        verify._MEMO.clear()
        for g, want in order:
            assert _same_verdict(search_one(g, cfg, ("A", "A"), 1), want)


def test_a_relabeled_hit_carries_the_callers_colors_and_graph():
    # ss3 with A, B, C renamed C, A, B: its search from C,C is ss3's from A,A
    cfg = SearchConfig(horizon=40, scheduler=LCMV, movement=RIGID)
    renamed = LightGraph.build("ABC", {"C": ("A", "1/2"), "A": ("B", 0), "B": ("C", 1)})
    want = _fresh(renamed, cfg, ("C", "C"))
    verify._MEMO.clear()
    first = search_one(builtin("ss3"), cfg, ("A", "A"), 1)
    held = len(verify._MEMO)
    got = search_one(renamed, cfg, ("C", "C"), 1)
    assert len(verify._MEMO) == held  # a hit
    assert isinstance(got, Diverges)
    assert got.certificate.graph is renamed
    rename = dict(zip("ABC", "CAB"))
    assert got.certificate.entry_colors == tuple(rename[c] for c in first.certificate.entry_colors)
    assert got.certificate.to_json() == want.certificate.to_json()


@pytest.mark.parametrize(
    "colors, distance, message",
    [
        (("A", "A"), -1, "initial distance must be non-negative"),
        (("A", "Z"), 1, "initial light Z not in the color set"),
        (("Z", "Z"), 0, "initial light Z not in the color set"),
    ],
)
def test_search_rejects_a_bad_start(colors, distance, message):
    cfg = SearchConfig(horizon=8, scheduler=SchedulerClass.ssync(), movement=RIGID)
    for search in (search_one, verify._search_core):
        with pytest.raises(ValueError, match=message):
            search(builtin("ss3"), cfg, colors, distance)
    assert not verify._MEMO


def test_run_search_and_replay_read_the_distance_alike():
    cfg = SearchConfig(horizon=8, scheduler=SchedulerClass.ssync(), movement=RIGID)
    reads = (
        lambda d: run(builtin("ss3"), sim(horizon=4), ("A", "A"), d, LCMV, RIGID),
        lambda d: verify._search_core(builtin("ss3"), cfg, ("A", "A"), d),
        lambda d: replay_paper_counterexample("lemma9_1", distance=d),
    )
    for read in reads:
        with pytest.raises(TypeError, match="cannot interpret 0.1"):
            read(0.1)  # a float is not exact
        with pytest.raises(ValueError, match="initial distance must be non-negative"):
            read(F(-1))
        read("1/2")
    # robots that start together cannot show a divergence
    with pytest.raises(ValueError, match="initial distance must be positive"):
        replay_paper_counterexample("lemma9_1", distance=0)


def test_canonical_key_keeps_scale_when_a_label_leaves_the_span():
    # with lambda = 2 a robot jumps past its partner, to twice the distance:
    # from distance 1/8 the jump is at most delta and always completes, from
    # 1/4 the adversary may stop it on the partner, so the two must not merge
    def root(g, movement, d):
        initial = (("A", "A"), (None, None), (F(0), d))
        return SearchGraph(g, SearchConfig(1, LC, movement), initial).root

    jump = LightGraph.build("A", {"A": ("A", 2)})
    assert _key_movement(jump, NR4) is None
    assert root(jump, NR4, F(1, 8)) != root(jump, NR4, F(1, 4))
    # labels in [0, 1] keep every move inside the span: small spans still merge
    halve = LightGraph.build("A", {"A": ("A", "1/2")})
    assert root(halve, NR4, F(1, 8)) == root(halve, NR4, F(1, 4))
    # rigid states are free of scale whatever the labels
    assert root(jump, RIGID, F(1, 8)) == root(jump, RIGID, F(5))


def _reference_canonical_key(state, movement):
    """`_canonical_key` written formula by formula: translate, reflect by the
    first nonzero coordinate's sign, then multiply by the scale."""
    lights, pendings, positions = state
    base = positions[0]
    pos1 = positions[1] - base
    pend = [None if p is None else p - base for p in pendings]
    coords = [pos1] + [p for p in pend if p is not None]
    sign = 1
    for c in coords:
        if c != 0:
            sign = 1 if c > 0 else -1
            break
    pos1 *= sign
    pend = [None if p is None else p * sign for p in pend]
    everything = [F(0), pos1] + [p for p in pend if p is not None]
    span = max(everything) - min(everything)
    scale = F(1)
    if movement is None:
        pass
    elif movement.kind == "rigid":
        if pos1 > 0:
            scale = 1 / pos1
        elif span > 0:
            scale = 1 / span
    elif 0 < span <= movement.delta:
        scale = movement.delta / span
    pos1 *= scale
    pend = [None if p is None else p * scale for p in pend]

    def enc(q):
        return None if q is None else (q.numerator, q.denominator)

    return (lights, enc(pend[0]), enc(pend[1]), enc(pos1))


_coords = st.fractions(min_value=-2, max_value=2, max_denominator=16)
_states = st.tuples(
    st.tuples(st.sampled_from("AB"), st.sampled_from("AB")),
    st.tuples(st.none() | _coords, st.none() | _coords),
    st.tuples(_coords, _coords),
)


_KEY_MOVEMENTS = [RIGID, NR4, MovementModel.non_rigid(F(1, 8)), MovementModel.non_rigid(F(3, 7)), None]


@given(state=_states, movement=st.sampled_from(_KEY_MOVEMENTS))
@example(state=(("A", "B"), (F(1, 4), None), (F(1, 4), F(1, 4))), movement=RIGID)
@example(state=(("A", "B"), (F(0), F(-1, 8)), (F(0), F(0))), movement=NR4)
@example(state=(("A", "A"), (None, F(1, 2)), (F(1, 2), F(1, 4))), movement=NR4)
@example(state=(("A", "A"), (None, None), (F(1), F(1))), movement=NR4)
@example(state=(("A", "A"), (None, None), (F(0), F(1))), movement=RIGID)
def test_canonical_key_matches_the_reference(state, movement):
    assert _canonical_key(state, movement) == _reference_canonical_key(state, movement)


def test_search_requires_lc_atomicity():
    with pytest.raises(ValueError):
        SearchConfig(horizon=10, scheduler=SchedulerClass.asynchronous(), movement=RIGID)


def test_long_nonrigid_moves_stay_in_the_game():
    # were a long non-rigid move given no fraction choice, it would drop out
    # of the game, and both searches below would close as Rendezvous
    halve = LightGraph.build("A", {"A": ("A", "1/2")})
    for g, scheduler in ((builtin("ss3"), LC), (halve, SchedulerClass.ssync())):
        assert isinstance(search_one(g, SearchConfig(16, scheduler, NR4), ("A", "A"), 1), Diverges)


def _reference_step(state, g, cfg, frac_of):
    """The search's step as it was when it recomputed each actor's transition
    and destination for every adversary choice."""
    lights, pendings, positions = state
    rounds = cfg.scheduler.kind in (FSYNC, SSYNC)
    new_lights = list(lights)
    new_pend = list(pendings)
    new_pos = list(positions)
    completions = set()
    ops = ["-", "-"]
    move_row = ["-", "-"]
    move_fracs = [None, None]
    for i, frac in frac_of.items():
        if rounds or pendings[i] is None:
            nl, lam = transition(g, lights[1 - i])
            new_lights[i] = nl
            ops[i] = "LC"
            dest = destination(positions[i], positions[1 - i], lam)
            if dest == positions[i]:
                completions.add(i)
                continue
            if not rounds:
                new_pend[i] = dest
                continue
        else:
            dest, new_pend[i] = pendings[i], None
        new_pos[i] = dest if frac is None else truncate_move(positions[i], dest, cfg.movement, frac)
        (move_row if rounds else ops)[i] = "M"
        move_fracs[i] = frac
        completions.add(i)
    if not rounds:
        slots = [(tuple(ops), tuple(move_fracs))]
    else:
        slots = [(tuple(ops), (None, None))]
        if move_row != ["-", "-"]:
            slots.append((tuple(move_row), tuple(move_fracs)))
    child = (tuple(new_lights), tuple(new_pend), tuple(new_pos))
    return slots, frozenset(completions), child


def _reference_search_children(state, g, cfg):
    """`_search_children` as it was: per actor set, each actor's move length
    worked out again to decide its fraction choices."""
    lights, pendings, positions = state
    rounds = cfg.scheduler.kind in (FSYNC, SSYNC)
    actor_sets = [(0, 1)] if cfg.scheduler.kind == FSYNC else [(0,), (1,), (0, 1)]
    for actors in actor_sets:
        per_actor_fracs = []
        for i in actors:
            long_move = False
            if cfg.movement.kind != "rigid":
                if rounds:
                    _nl, lam = transition(g, lights[1 - i])
                    target = destination(positions[i], positions[1 - i], lam)
                else:
                    target = pendings[i]
                long_move = target is not None and abs(target - positions[i]) > cfg.movement.delta
            per_actor_fracs.append(verify.FRACTION_CHOICES if long_move else (F(1),))
        for fracs in product(*per_actor_fracs):
            yield _reference_step(state, g, cfg, dict(zip(actors, fracs)))


def test_search_children_match_the_reference(monkeypatch):
    # random states, pending destinations included under asynchrony; an idle
    # asynchronous robot's LC moves nothing at its instant, so it must get no
    # fraction choices even when the move it computes is long
    rng = random.Random(8)
    labels = ("-1/2", 0, "1/2", 1, 2)
    graphs = [
        LightGraph.build("ABC", {c: (rng.choice("ABC"), rng.choice(labels)) for c in "ABC"})
        for _ in range(12)
    ]
    coords = [F(k, 8) for k in range(-12, 13)] + [F(1, 3), F(-5, 7)]
    halves = (F(0), F(1, 2), F(1))
    movements = [
        (RIGID, (F(0), F(1))),
        (NR4, halves),
        (MovementModel.non_rigid(F(3, 7)), halves),
    ]
    schedulers = [SchedulerClass.fsync(), SchedulerClass.ssync(), LC]
    offered = 0  # choices with a robot's fraction other than a full move
    for scheduler, (movement, fractions) in product(schedulers, movements):
        monkeypatch.setattr(verify, "FRACTION_CHOICES", fractions)
        cfg = SearchConfig(4, scheduler, movement)
        for _ in range(150):
            g = rng.choice(graphs)
            lights = (rng.choice(g.colors), rng.choice(g.colors))
            if scheduler.kind == "async":
                pendings = tuple(rng.choice([None, None, rng.choice(coords)]) for _i in (0, 1))
            else:
                pendings = (None, None)
            state = (lights, pendings, (rng.choice(coords), rng.choice(coords)))
            got = list(_search_children(state, g, cfg))
            assert got == list(_reference_search_children(state, g, cfg)), (g.to_json(), cfg, state)
            offered += sum(f not in (None, 1) for slots, _c, _s in got for _ops, fs in slots for f in fs)
            # the four-argument step, with full moves keyed by None
            for actors in ((0,), (1,), (0, 1)):
                frac_of = dict.fromkeys(actors)
                assert _step(state, g, cfg, frac_of) == _reference_step(state, g, cfg, frac_of)
    assert offered


# -- structural necessities ---------------------------------------------------------


def test_structural_check_ss3_and_ss5_complete():
    for name in ("ss3", "ss5"):
        report = structural_check(builtin(name))
        assert not report.missing_anywhere()


def _reference_structural_check(g):
    """The labels of each start's orbit as a set of Fractions."""
    per_start = {}
    for c in g.colors:
        labels = orbit_labels(g, c)
        per_start[c] = tuple(x for x in (F(1, 2), F(1), F(0)) if x not in labels)
    return StructuralReport(per_start)


def test_structural_check_matches_the_fraction_set_reference():
    halves = (F(0), F(1, 2), F(1))
    graphs = (
        list(enumerate_graphs(3, halves))
        + random.Random(0).sample(list(enumerate_graphs(4, halves)), 1000)
        + list(enumerate_graphs(2, (F(0), F(1, 2), F(1), F(-1, 2), F(2), F(3, 2))))
    )
    for g in graphs:
        assert structural_check(g) == _reference_structural_check(g), g.to_json()


def test_structural_check_missing_labels():
    g = LightGraph.build("AB", {"A": ("B", "1/2"), "B": ("A", "1/2")})
    report = structural_check(g)
    assert report.per_start_missing["A"] == (F(1), F(0))


@pytest.mark.parametrize(
    "edges, start, missing",
    [
        ({"A": ("B", 0), "B": ("A", 0)}, "A", F(1, 2)),
        ({"A": ("B", "1/2"), "B": ("A", "1/2")}, "A", F(1)),
        ({"A": ("B", "1/2"), "B": ("A", 1)}, "A", F(0)),
    ],
)
def test_missing_label_adversary_defeats_missing_label(edges, start, missing):
    g = LightGraph.build("AB", edges)
    _schedule, _trace, cert = missing_label_adversary(g, start, missing)
    assert cert is not None
    validate_certificate(cert)


def _reference_missing_label_adversary(g, start, missing, horizon=40, distance=1):
    """`missing_label_adversary` as it was when it played its rounds on exact
    positions with the search's `_step`, stopping at a rendezvous state, and
    then ran the engine on the rounds it had played."""
    cfg = SearchConfig(1, SchedulerClass.ssync(), RIGID)
    state = ((start, start), (None, None), (F(0), F(distance)))
    rows = []
    parity = 0
    for _round in range(horizon):
        if missing == F(1, 2):
            actors = (0, 1)
        else:
            _nl, lam = transition(g, state[0][1 - parity])
            actors = (0, 1) if missing == F(0) and lam == 1 else (parity,)
            parity = 1 - parity
        slots, _completions, state = _step(state, g, cfg, dict.fromkeys(actors))
        rows += slots
        if _is_rendezvous_state(state):
            break
    schedule = Schedule(prefix=_timed(rows))
    trace = run(g, schedule, (start, start), distance, cfg.scheduler, cfg.movement)
    return schedule, trace, detect_scaling_loop(trace)


HALVES = (F(0), F(1, 2), F(1))


def test_missing_label_adversary_matches_the_reference():
    # every policy from every start, whether or not its label is missing
    graphs = list(enumerate_graphs(2, HALVES))
    graphs += random.Random(3).sample(list(enumerate_graphs(3, HALVES)), 4)
    # labels off the grid: whether a robot moves (label non-zero) or jumps
    # (label 1) must come from the label itself
    graphs += [
        LightGraph.build("AB", {"A": ("B", "-1/2"), "B": ("A", 1)}),
        LightGraph.build("AB", {"A": ("B", 2), "B": ("B", "1/3")}),
        LightGraph.build("ABC", {"A": ("B", "1/3"), "B": ("C", 0), "C": ("A", 2)}),
        LightGraph.build("ABC", {"A": ("B", "-1/2"), "B": ("C", "1/2"), "C": ("A", "1/3")}),
    ]
    cut = {True: 0, False: 0}  # runs by whether a rendezvous ended them
    for g in graphs:
        for start, missing, horizon, d in product(g.colors, HALVES, (1, 2, 7, 40), (F(1), F(1, 3))):
            outputs = []
            for adversary in (missing_label_adversary, _reference_missing_label_adversary):
                schedule, trace, cert = adversary(g, start, missing, horizon, d)
                # equal dataclasses serialize equally: schedule and certificate
                # JSON are compared through their fields, which is cheaper
                outputs.append((schedule, trace.to_jsonl(), trace.rendezvous_time, trace.cs_times(), cert))
            assert outputs[0] == outputs[1], (g.to_json(), start, missing, horizon, d)
            cut[trace.rendezvous_time is not None] += 1
    assert cut[True] and cut[False]


def test_missing_label_adversary_from_distance_zero():
    # robots that start together have met at time 0: the engine runs no slot,
    # so the schedule is empty (the former adversary returned the one round
    # it had played, unexecuted)
    g = LightGraph.build("AB", {"A": ("B", "1/2"), "B": ("A", "1/2")})
    for missing in HALVES:
        schedule, trace, cert = missing_label_adversary(g, "A", missing, distance=0)
        assert schedule == Schedule() and cert is None
        assert trace.rendezvous_time == 0 and trace.steps == []
        old_schedule, old_trace, _ = _reference_missing_label_adversary(g, "A", missing, distance=0)
        assert len(old_schedule.prefix) == 1 and old_trace.to_jsonl() == ""


def test_missing_label_adversary_rejects_other_labels():
    g = LightGraph.build("AB", {"A": ("B", "1/2"), "B": ("A", "1/2")})
    with pytest.raises(ValueError, match="1/2, 1 and 0"):
        missing_label_adversary(g, "A", F(1, 3))


def test_missing_label_adversary_rejects_a_start_outside_the_graph():
    g = LightGraph.build("AB", {"A": ("B", "1/2"), "B": ("A", "1/2")})
    for missing in (F(1), F(1, 2), F(0)):
        with pytest.raises(ValueError, match="initial light Z not in the color set"):
            missing_label_adversary(g, "Z", missing)


# -- reachable pairs ------------------------------------------------------------------


def test_reachable_pairs_qss4():
    cfg = SearchConfig(horizon=60, scheduler=LC, movement=NR4)
    pairs = reachable_cs_color_pairs(builtin("qss4"), "ABCD", cfg)
    assert frozenset("AC") not in pairs
    assert frozenset("BD") not in pairs
    assert all(frozenset((c,)) in pairs for c in "ABCD")  # the starts themselves


def test_reachable_pairs_ss5_exclusions():
    cfg = SearchConfig(horizon=80, scheduler=LC, movement=NR4)
    pairs = reachable_cs_color_pairs(builtin("ss5"), "ABCDE", cfg)
    for two_step in ("AC", "BD", "CE", "DA", "EB"):
        assert frozenset(two_step) not in pairs


# -- stabilization classification -------------------------------------------------------


def test_classify_nonqss3():
    cfg = SearchConfig(horizon=40, scheduler=LC, movement=RIGID)
    report = classify_stabilization(builtin("nonqss3"), cfg)
    assert report.classification == "non-quasi-self-stabilizing"
    assert isinstance(report.same_color["A"], Rendezvous)
    assert isinstance(report.same_color["B"], Diverges)
    # a distance given as a p/q string searches the same game
    assert isinstance(search_one(builtin("nonqss3"), cfg, ("B", "B"), "1/2"), Diverges)


def test_classify_qss4():
    cfg = SearchConfig(horizon=60, scheduler=LC, movement=NR4)
    report = classify_stabilization(builtin("qss4"), cfg)
    assert report.classification == "quasi-self-stabilizing"


def test_classify_ss5():
    cfg = SearchConfig(horizon=80, scheduler=LC, movement=NR4)
    report = classify_stabilization(builtin("ss5"), cfg)
    assert report.classification == "self-stabilizing"


# -- structural trace properties ----------------------------------------------------------


def test_stationary_pairs_of_builtins():
    assert stationary_pairs(builtin("qss4")) == {("B", "C"), ("D", "A")}
    assert stationary_pairs(builtin("ss5")) == {("B", "C"), ("D", "E"), ("E", "A")}


def test_stationary_partner_holds_on_qss4_traces():
    import random

    for seed in range(8):
        s = random_lc_atomic_schedule(random.Random(seed), horizon=48, fractions=(F(0), F(1)))
        tr = run(builtin("qss4"), s, ("B", "C"), 1, LC, NR4)
        assert check_stationary_partner(tr) == []


def test_stationary_partner_flags_corrupted_trace():
    # a graph whose B-observer moves, passed off as one whose B-observer must
    # freeze: the checker must object
    mover = LightGraph.build(
        "ABCD", {"A": ("B", "1/2"), "B": ("C", "1/2"), "C": ("D", 1), "D": ("A", 0)}
    )
    rows = Schedule(prefix=block([("-", "LC"), ("-", "M"), ("LC", "-"), ("M", "-")]))
    tr = run(mover, rows, ("B", "C"), 1, LCMV, RIGID)
    tr.graph = builtin("qss4")
    assert check_stationary_partner(tr) != []


def test_contraction_pattern_qss4():
    import random

    for seed in range(8):
        s = random_lc_atomic_schedule(random.Random(100 + seed), horizon=60, fractions=(F(0), F(1)))
        tr = run(builtin("qss4"), s, ("B", "C"), 1, LC, NR4)
        ok, _times = check_contraction_pattern(tr)
        assert ok


def test_contraction_pattern_short_distance_reaches_zero():
    tr = run(builtin("qss4"), sim(horizon=16), ("B", "C"), F(1, 8), LCMV, NR4)
    ok, times = check_contraction_pattern(tr)
    assert ok
    assert tr.distance_at(times[1]) == 0


def test_synchronous_contraction():
    rigid_tr = run(builtin("qss4"), sim(horizon=16), ("A", "A"), 1, LCMV, RIGID)
    assert check_synchronous_contraction(rigid_tr) == []
    nr_tr = run(builtin("qss4"), sim(horizon=32), ("A", "A"), 1, LCMV, NR4)
    assert check_synchronous_contraction(nr_tr) == []
