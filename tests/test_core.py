import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lumirend.core import (
    DanglingTarget,
    LightGraph,
    MissingEdge,
    MovementModel,
    SchedulerClass,
    destination,
    format_rational,
    rational,
    start_distance,
    transition,
    truncate_move,
    validate_graph,
)
from lumirend.algorithms import builtin

F = Fraction

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)


def test_rational_parsing():
    assert rational("1/2") == F(1, 2)
    assert rational("3") == F(3)
    assert rational(F(2, 3)) == F(2, 3)
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(0)) == "0/1"
    with pytest.raises(ValueError):
        rational("0.5")
    with pytest.raises(ValueError):
        rational("1e-3")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0", "zero denominator in '1/0'"),
        ("", "not a rational p/q: ''"),
        ("a/b", "not a rational p/q: 'a/b'"),
        ("1/", "not a rational p/q: '1/'"),
        ("/2", "not a rational p/q: '/2'"),
    ],
)
def test_rational_names_the_text_it_cannot_read(text, message):
    with pytest.raises(ValueError) as err:
        rational(text)
    assert str(err.value) == message


def test_start_distance_is_exact_and_non_negative():
    assert start_distance("1/2") == start_distance(F(1, 2)) == F(1, 2)
    assert start_distance(0) == 0
    with pytest.raises(ValueError, match="initial distance must be non-negative"):
        start_distance("-1/2")
    with pytest.raises(TypeError):
        start_distance(0.1)  # a float is not exact


def test_validate_graph_ok():
    validate_graph(builtin("ss3"))


def test_validate_graph_missing_edge():
    g = LightGraph(("A", "B"), {"A": builtin("ss3").edges["A"]})
    with pytest.raises(MissingEdge) as exc:
        validate_graph(g)
    assert exc.value.color == "B"


def test_validate_graph_dangling_target():
    from lumirend.core import Edge

    g = LightGraph(("A",), {"A": Edge("B", F(1))})
    with pytest.raises(DanglingTarget) as exc:
        validate_graph(g)
    assert exc.value.color == "B"


@pytest.mark.parametrize(
    "name, observed, expected",
    [
        ("ss3", "A", ("B", F(1, 2))),
        ("ss3", "C", ("A", F(1))),
        ("nonqss3", "C", ("B", F(1))),
    ],
)
def test_transition(name, observed, expected):
    assert transition(builtin(name), observed) == expected


@pytest.mark.parametrize(
    "me, other, lam, expected",
    [(F(0), F(1), F(1, 2), F(1, 2)), (F(0), F(1), F(0), F(0)), (F(0), F(1), F(1), F(1))],
)
def test_destination(me, other, lam, expected):
    assert destination(me, other, lam) == expected


@given(me=rationals, other=rationals, lam=st.sampled_from([F(0), F(1)]) | rationals)
def test_destination_matches_the_affine_formula(me, other, lam):
    # labels outside [0, 1] and negative coordinates are in range
    assert destination(me, other, lam) == (1 - lam) * me + lam * other


@given(me=rationals, other=rationals, lam=rationals, a=rationals, b=rationals)
def test_destination_is_affine(me, other, lam, a, b):
    if a == 0:
        return
    lhs = destination(a * me + b, a * other + b, lam)
    assert lhs == a * destination(me, other, lam) + b


@pytest.mark.parametrize(
    "me, dest, model, fraction, expected",
    [
        (F(0), F(1), MovementModel.non_rigid(F(1, 4)), F(0), F(1, 4)),
        (F(0), F(1, 8), MovementModel.non_rigid(F(1, 4)), F(0), F(1, 8)),
        (F(0), F(1), MovementModel.rigid(), F(0), F(1)),
    ],
)
def test_truncate_move_examples(me, dest, model, fraction, expected):
    assert truncate_move(me, dest, model, fraction) == expected


@pytest.mark.parametrize("model", [MovementModel.rigid(), MovementModel.non_rigid(F(1, 4))])
@pytest.mark.parametrize("fraction", [F(-1, 2), F(3, 2)])
def test_truncate_move_rejects_a_fraction_outside_0_1(model, fraction):
    with pytest.raises(ValueError, match=r"adversary fraction must lie in \[0, 1\]"):
        truncate_move(F(0), F(1), model, fraction)


@given(me=rationals, dest=rationals, fraction=unit_fractions, delta=st.fractions(min_value="1/64", max_value=2, max_denominator=64))
def test_truncate_move_stays_on_segment(me, dest, fraction, delta):
    stop = truncate_move(me, dest, MovementModel.non_rigid(delta), fraction)
    lo, hi = min(me, dest), max(me, dest)
    assert lo <= stop <= hi
    assert abs(stop - me) >= min(delta, abs(dest - me))


def test_scheduler_class_round_kinds_force_atomicity():
    assert SchedulerClass.ssync().lc_atomic and SchedulerClass.ssync().move_atomic
    assert SchedulerClass.fsync().move_atomic
    with pytest.raises(ValueError):
        SchedulerClass("ssync", lc_atomic=False, move_atomic=True)


def test_movement_model_validation():
    with pytest.raises(ValueError):
        MovementModel.non_rigid(0)
    with pytest.raises(ValueError):
        MovementModel("rigid", F(1, 4))


def test_light_graph_json_roundtrip():
    g = builtin("qss4")
    back = LightGraph.from_json(g.to_json())
    assert back == g
    data = json.loads(g.to_json())
    assert data["edges"]["A"] == {"next": "B", "lambda": "1/2"}
