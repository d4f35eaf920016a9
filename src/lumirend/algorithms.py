"""Built-in algorithms and exhaustive enumeration of k-color algorithm graphs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from string import ascii_uppercase
from typing import Iterable, Iterator

from .core import Edge, LightGraph, format_rational, rational, validate_graph


class BadParameter(ValueError):
    pass


def _three(l_ab, l_bc, l_ca) -> LightGraph:
    return LightGraph.build("ABC", {"A": ("B", l_ab), "B": ("C", l_bc), "C": ("A", l_ca)})


def _four_cycle(l_ab, l_bc, l_cd, l_da) -> LightGraph:
    return LightGraph.build(
        "ABCD", {"A": ("B", l_ab), "B": ("C", l_bc), "C": ("D", l_cd), "D": ("A", l_da)}
    )


# The four-color one-cycle family: label pattern per name, plus the side
# condition the free coefficient must satisfy.
_FAMILY = {
    "alg1": (lambda lam: _four_cycle("1/2", 0, 1, lam), None),
    "alg2": (lambda lam: _four_cycle("1/2", 1, 0, lam), None),
    "alg3": (lambda lam: _four_cycle("1/2", 0, lam, 1), ("!=", 1)),
    "alg4": (lambda lam: _four_cycle("1/2", 1, lam, 0), ("!=", 0)),
    "alg5": (lambda lam: _four_cycle("1/2", lam, 0, 1), ("!=", 1)),
    "alg6": (lambda lam: _four_cycle("1/2", lam, 1, 0), ("!=", 0)),
}

BUILTIN_NAMES = ("ss3", "nonqss3", "qss4", "ss5", "alg_a", "alg_b") + tuple(_FAMILY)


def builtin(name: str, lam=None) -> LightGraph:
    """A built-in algorithm graph by name.

    `ss3`/`alg_a`, `nonqss3`, `qss4`, and `ss5` are the fixed three-, four-,
    and five-color algorithms and take no coefficient; `alg1`..`alg6` form
    the four-color one-cycle family parameterized by a rational coefficient
    with per-name side conditions (alg3, alg5: != 1; alg4, alg6: != 0).
    """
    if lam is not None and name in BUILTIN_NAMES and name not in _FAMILY:
        raise BadParameter(f"{name} takes no coefficient")
    if name in ("ss3", "alg_a"):
        return _three("1/2", 0, 1)
    if name == "alg_b":
        return _three("1/2", 1, 0)
    if name == "nonqss3":
        return LightGraph.build("ABC", {"A": ("B", "1/2"), "B": ("C", 0), "C": ("B", 1)})
    if name == "qss4":
        return _four_cycle("1/2", 0, 1, 0)
    if name == "ss5":
        return LightGraph.build(
            "ABCDE",
            {"A": ("B", "1/2"), "B": ("C", 0), "C": ("D", 1), "D": ("E", 0), "E": ("A", 0)},
        )
    if name in _FAMILY:
        if lam is None:
            raise BadParameter(f"{name} requires a coefficient")
        lam = rational(lam)
        make, condition = _FAMILY[name]
        if condition is not None and lam == condition[1]:
            raise BadParameter(f"{name} requires coefficient != {condition[1]}")
        return make(lam)
    raise KeyError(f"unknown algorithm {name!r}")


def _label_list(labels: Iterable) -> list[Fraction]:
    """The labels as rationals: at least one, none given twice."""
    label_list = [rational(x) for x in labels]
    if not label_list:
        raise ValueError("need at least one label")
    for i, lam in enumerate(label_list):
        if lam in label_list[:i]:
            raise ValueError(f"label {format_rational(lam)} given twice")
    return label_list


def enumerate_graphs(k: int, labels: Iterable) -> Iterator[LightGraph]:
    """Every k-color out-degree-one graph with every label assignment.

    Colors are the first k uppercase letters.  Structures are ordered
    lexicographically by the target vector, then label vectors
    lexicographically, so the stream order is reproducible.
    """
    if k < 1:
        raise ValueError("need at least one color")
    if k > len(ascii_uppercase):
        raise ValueError("at most 26 colors supported")
    label_list = _label_list(labels)
    colors = tuple(ascii_uppercase[:k])
    # the k * len(labels) distinct edges, shared by every graph (an Edge is
    # frozen); each graph still gets its own edge map and its validation
    edges_to = [[Edge(target, lam) for lam in label_list] for target in colors]
    for targets in product(range(k), repeat=k):
        for chosen in product(*(edges_to[t] for t in targets)):
            g = LightGraph(colors, dict(zip(colors, chosen)))
            validate_graph(g)
            yield g


def count_graphs(k: int, labels: Iterable) -> int:
    return k**k * len(_label_list(labels)) ** k


@dataclass(frozen=True)
class ShapeDescriptor:
    """Structural case split: self-loops, 2-cycles, strongly connected pieces."""

    self_loops: tuple[str, ...]
    two_cycles: tuple[tuple[str, str], ...]
    scc_count: int
    cycle_lengths: tuple[int, ...]


def classify_shape(g: LightGraph) -> ShapeDescriptor:
    """Self-loops, mutual edges, SCC count, and the lengths of the functional
    graph's cycles (every color eventually falls onto exactly one cycle)."""
    validate_graph(g)
    succ = {c: g.edges[c].target for c in g.colors}
    self_loops = tuple(c for c in g.colors if succ[c] == c)
    two_cycles = tuple(
        (a, succ[a]) for a in g.colors if succ[succ[a]] == a and succ[a] != a and a < succ[a]
    )
    # cycles of the functional graph: an orbit ends on its cycle, and the
    # orbit of a color on a cycle is that cycle
    on_cycle: set[str] = set()
    for start in g.colors:
        path = orbit(g, start)
        on_cycle.update(path[path.index(succ[path[-1]]):])
    cycles: list[tuple[str, ...]] = []
    visited: set[str] = set()
    for c in sorted(on_cycle):
        if c not in visited:
            cycles.append(orbit(g, c))
            visited.update(cycles[-1])
    # SCC count: each cycle is one SCC; every off-cycle color is its own SCC
    scc_count = len(cycles) + len([c for c in g.colors if c not in on_cycle])
    return ShapeDescriptor(
        self_loops, two_cycles, scc_count, tuple(sorted(len(c) for c in cycles))
    )


def orbit(g: LightGraph, start: str) -> tuple[str, ...]:
    """Colors reachable from a same-color start: the forward orbit of `start`
    under the next-color function (both robots' colors always stay inside it)."""
    seen = []
    node = start
    while node not in seen:
        seen.append(node)
        node = g.edges[node].target
    return tuple(seen)


def orbit_labels(g: LightGraph, start: str) -> set[Fraction]:
    return {g.edges[c].lam for c in orbit(g, start)}
