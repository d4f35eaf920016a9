from fractions import Fraction
from itertools import product
from string import ascii_uppercase

import pytest

from lumirend import algorithms
from lumirend.algorithms import (
    BadParameter,
    builtin,
    classify_shape,
    count_graphs,
    enumerate_graphs,
    orbit,
    orbit_labels,
)
from lumirend.core import LightGraph, validate_graph

F = Fraction
LABELS = (F(0), F(1, 2), F(1))


def edges_of(g):
    return {c: (e.target, e.lam) for c, e in g.edges.items()}


def test_builtin_ss3():
    assert edges_of(builtin("ss3")) == {
        "A": ("B", F(1, 2)),
        "B": ("C", F(0)),
        "C": ("A", F(1)),
    }
    assert edges_of(builtin("alg_a")) == edges_of(builtin("ss3"))


def test_builtin_nonqss3():
    assert edges_of(builtin("nonqss3")) == {
        "A": ("B", F(1, 2)),
        "B": ("C", F(0)),
        "C": ("B", F(1)),
    }


def test_builtin_qss4():
    assert edges_of(builtin("qss4")) == {
        "A": ("B", F(1, 2)),
        "B": ("C", F(0)),
        "C": ("D", F(1)),
        "D": ("A", F(0)),
    }
    # qss4 is the zero-coefficient member of the first four-color family
    assert edges_of(builtin("alg1", 0)) == edges_of(builtin("qss4"))


def test_builtin_ss5():
    assert edges_of(builtin("ss5")) == {
        "A": ("B", F(1, 2)),
        "B": ("C", F(0)),
        "C": ("D", F(1)),
        "D": ("E", F(0)),
        "E": ("A", F(0)),
    }


def test_builtin_alg_b():
    assert edges_of(builtin("alg_b")) == {
        "A": ("B", F(1, 2)),
        "B": ("C", F(1)),
        "C": ("A", F(0)),
    }


@pytest.mark.parametrize(
    "name, lam",
    [("alg3", 1), ("alg5", 1), ("alg4", 0), ("alg6", 0)],
)
def test_family_side_conditions(name, lam):
    with pytest.raises(BadParameter):
        builtin(name, lam)


def test_family_free_members():
    assert edges_of(builtin("alg2", 1))["D"] == ("A", F(1))
    assert edges_of(builtin("alg5", F(1, 3)))["B"] == ("C", F(1, 3))


def test_family_needs_coefficient():
    with pytest.raises(BadParameter):
        builtin("alg1")


@pytest.mark.parametrize("k, expected", [(1, 3), (2, 36), (3, 729)])
def test_enumerate_counts(k, expected):
    graphs = list(enumerate_graphs(k, LABELS))
    assert len(graphs) == expected == count_graphs(k, LABELS)
    for g in graphs:
        validate_graph(g)
    assert len({g.to_json() for g in graphs}) == expected


def _reference_enumerate_graphs(k, labels):
    """Every graph built and validated on its own by `LightGraph.build`."""
    colors = ascii_uppercase[:k]
    for targets in product(range(k), repeat=k):
        for labs in product(labels, repeat=k):
            yield LightGraph.build(
                colors, {colors[i]: (colors[targets[i]], labs[i]) for i in range(k)}
            )


@pytest.mark.parametrize(
    "k, labels",
    [
        (1, LABELS),
        (3, LABELS),
        (4, LABELS),
        (2, ("0", "1/2", "1", "-1/2", "2")),
    ],
)
def test_enumerate_matches_the_build_reference(monkeypatch, k, labels):
    validated = []

    def counting(g):
        validated.append(g)
        validate_graph(g)

    monkeypatch.setattr(algorithms, "validate_graph", counting)
    got = list(enumerate_graphs(k, labels))
    want = list(_reference_enumerate_graphs(k, labels))
    assert got == want
    assert [g.to_json() for g in got] == [g.to_json() for g in want]
    # the graphs share their edges, but each is validated
    assert validated == got and len({id(g.edges) for g in got}) == len(got)


@pytest.mark.parametrize("labels", [(0, 0), ("1/2", F(1, 2), 1), (F(1), "2/2")])
def test_enumerate_rejects_a_label_given_twice(labels):
    for make in (lambda: list(enumerate_graphs(1, labels)), lambda: count_graphs(1, labels)):
        with pytest.raises(ValueError, match="given twice"):
            make()


def test_enumerate_deterministic_order():
    first, second = list(enumerate_graphs(2, LABELS))[:2]
    assert edges_of(first) == {"A": ("A", F(0)), "B": ("A", F(0))}
    assert edges_of(second) == {"A": ("A", F(0)), "B": ("A", F(1, 2))}


def test_classify_shape_ss3():
    shape = classify_shape(builtin("ss3"))
    assert shape.scc_count == 1
    assert shape.cycle_lengths == (3,)
    assert shape.self_loops == () and shape.two_cycles == ()


def test_classify_shape_nonqss3():
    shape = classify_shape(builtin("nonqss3"))
    assert shape.two_cycles == (("B", "C"),)
    assert shape.scc_count == 2  # the B-C loop plus A feeding in


def test_classify_shape_self_loop():
    from lumirend.core import LightGraph

    g = LightGraph.build("AB", {"A": ("A", 0), "B": ("A", 1)})
    assert classify_shape(g).self_loops == ("A",)


def test_classify_shape_ss5():
    assert classify_shape(builtin("ss5")).cycle_lengths == (5,)


def test_orbit():
    assert orbit(builtin("ss3"), "A") == ("A", "B", "C")
    assert orbit_labels(builtin("ss3"), "A") == {F(0), F(1, 2), F(1)}
