"""Core vocabulary: light graphs, movement models, scheduler classes, exact 1-D geometry.

All geometry lives on the line through the two robots and is represented with
exact rationals (`fractions.Fraction`); no floating point is used anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

RIGID = "rigid"
NON_RIGID = "non-rigid"

FSYNC = "fsync"
SSYNC = "ssync"
ASYNC = "async"


def rational(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or a 'p/q' string.

    Decimal strings are rejected on purpose: every quantity in the model is
    an exact rational and silent precision loss is not acceptable.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text.lower():
            raise ValueError(f"decimal notation not accepted: {value!r}; use p/q")
        num, slash, den = text.partition("/")
        try:
            return Fraction(int(num), int(den) if slash else 1)
        except ValueError:
            raise ValueError(f"not a rational p/q: {value!r}") from None
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rational_text(value) -> Fraction:
    """A rational read from a file: a 'p/q' string only (`rational`), so a
    JSON number or boolean is an error that names it."""
    if not isinstance(value, str):
        raise ValueError(f"not a p/q string: {value!r}")
    return rational(value)


# how the values a file may hold are named in errors, by Python type
_JSON_TYPES = {
    dict: "a JSON object", list: "a JSON array", str: "a string", int: "an integer", bool: "true or false"
}


def json_value(value, kind: type, what: str):
    """A value read from a file, which must have the JSON type `kind`
    (`dict`, `list`, `str`, `int` or `bool`); else an error names `what` and the value."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, not {value!r}")
    return value


def json_object(value, what: str, required: tuple, optional: tuple = ()) -> dict:
    """A JSON object read from a file with the keys `required`, any of
    `optional`, and no others; else an error names `what` and the keys."""
    json_value(value, dict, what)
    unknown = sorted(set(value).difference(required, optional))
    if unknown:
        raise ValueError(f"{what} has unknown keys: {', '.join(unknown)}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{what} lacks the keys: {', '.join(missing)}")
    return value


def start_distance(value) -> Fraction:
    """The robots' initial distance: an exact rational (`rational`), not negative."""
    d = rational(value)
    if d < 0:
        raise ValueError("initial distance must be non-negative")
    return d


def format_rational(q: Fraction) -> str:
    """Render a rational as 'p/q', always including the denominator."""
    return f"{q.numerator}/{q.denominator}"


class GraphError(ValueError):
    """A light graph violates its structural invariants."""


class MissingEdge(GraphError):
    def __init__(self, color: str):
        self.color = color
        super().__init__(f"color {color} has no outgoing edge")


class DanglingTarget(GraphError):
    def __init__(self, color: str):
        self.color = color
        super().__init__(f"edge target {color} is not a member color")


class UnknownSource(GraphError):
    def __init__(self, color: str):
        self.color = color
        super().__init__(f"edge source {color} is not a member color")


@dataclass(frozen=True)
class Edge:
    """One transition: on observing the source color, adopt `target` and move
    to the point (1-lam)*me + lam*other."""

    target: str
    lam: Fraction


@dataclass(frozen=True)
class LightGraph:
    """An algorithm as an edge-labeled functional graph over colors.

    Every color has exactly one outgoing edge; the edge label is the exact
    rational movement coefficient.
    """

    colors: tuple[str, ...]
    edges: Mapping[str, Edge]

    @staticmethod
    def build(colors: Iterable[str], edges: Mapping[str, tuple[str, object]]) -> "LightGraph":
        built = {
            src: Edge(target, rational(lam)) for src, (target, lam) in edges.items()
        }
        g = LightGraph(tuple(colors), built)
        validate_graph(g)
        return g

    def to_json(self) -> str:
        edges = {c: {"next": e.target, "lambda": format_rational(e.lam)} for c, e in self.edges.items()}
        return json.dumps({"colors": list(self.colors), "edges": edges}, sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict) -> "LightGraph":
        """Read a graph file: `"colors"`, a list of distinct strings, and
        `"edges"`, an object of `{"next": color, "lambda": "p/q"}` objects.
        A key that is missing or that the format lacks is an error naming it."""
        colors = json_object(data, "a graph", ("colors", "edges"))["colors"]
        if not (isinstance(colors, list) and all(isinstance(c, str) for c in colors)):
            raise ValueError(f"colors must be a list of strings, not {colors!r}")
        edges = {}
        for src, entry in json_value(data["edges"], dict, "edges").items():
            json_object(entry, f"the edge of {src}", ("next", "lambda"))
            edges[src] = (json_value(entry["next"], str, "next"), rational_text(entry["lambda"]))
        return LightGraph.build(colors, edges)

    @staticmethod
    def from_json(text: str) -> "LightGraph":
        return LightGraph.from_json_dict(json.loads(text))

    def labels(self) -> set[Fraction]:
        return {e.lam for e in self.edges.values()}


def validate_graph(g: LightGraph) -> None:
    """Check out-degree exactly one per color and edge targets inside the color set."""
    member = set(g.colors)
    if len(member) != len(g.colors):
        twice = next(c for i, c in enumerate(g.colors) if c in g.colors[:i])
        raise GraphError(f"color {twice} is listed twice")
    for src in g.edges:
        if src not in member:
            raise UnknownSource(src)
    for color in g.colors:
        if color not in g.edges:
            raise MissingEdge(color)
        if g.edges[color].target not in member:
            raise DanglingTarget(g.edges[color].target)


def transition(g: LightGraph, observed: str) -> tuple[str, Fraction]:
    """The unique out-edge of the observed color: (next color, coefficient)."""
    edge = g.edges[observed]
    return edge.target, edge.lam


@dataclass(frozen=True)
class MovementModel:
    """Rigid movement, or non-rigid movement that covers at least `delta`."""

    kind: str
    delta: Fraction | None = None

    def __post_init__(self):
        if self.kind == NON_RIGID:
            if self.delta is None or self.delta <= 0:
                raise ValueError("non-rigid movement requires delta > 0")
        elif self.kind == RIGID:
            if self.delta is not None:
                raise ValueError(f"rigid movement takes no delta, not {self.delta}")
        else:
            raise ValueError(f"unknown movement kind {self.kind!r}")

    @staticmethod
    def rigid() -> "MovementModel":
        return MovementModel(RIGID)

    @staticmethod
    def non_rigid(delta) -> "MovementModel":
        return MovementModel(NON_RIGID, rational(delta))


@dataclass(frozen=True)
class SchedulerClass:
    """Scheduler family plus atomicity restrictions.

    FSYNC and SSYNC execute whole Look-Compute-Move cycles as instantaneous
    rounds, so they are always both LC-atomic and Move-atomic.
    """

    kind: str
    lc_atomic: bool = False
    move_atomic: bool = False

    def __post_init__(self):
        if self.kind not in (FSYNC, SSYNC, ASYNC):
            raise ValueError(f"unknown scheduler kind {self.kind!r}")
        if self.kind in (FSYNC, SSYNC) and not (self.lc_atomic and self.move_atomic):
            raise ValueError(f"{self.kind} implies LC-atomic and Move-atomic")

    @staticmethod
    def fsync() -> "SchedulerClass":
        return SchedulerClass(FSYNC, True, True)

    @staticmethod
    def ssync() -> "SchedulerClass":
        return SchedulerClass(SSYNC, True, True)

    @staticmethod
    def asynchronous(lc_atomic: bool = False, move_atomic: bool = False) -> "SchedulerClass":
        return SchedulerClass(ASYNC, lc_atomic, move_atomic)


def destination(me: Fraction, other: Fraction, lam: Fraction) -> Fraction:
    """Destination point (1-lam)*me + lam*other, exactly.

    The labels 0 (stay) and 1 (jump onto the other robot) need no arithmetic.
    Otherwise, with me = a/b, other = c/d and lam = p/q, the point is one
    integer numerator over b*d*q, so one `Fraction` is built.
    """
    p, q = lam.numerator, lam.denominator
    if p == 0:
        return me
    if p == q:
        return other
    a, b = me.numerator, me.denominator
    c, d = other.numerator, other.denominator
    return Fraction((q - p) * a * d + p * c * b, q * b * d)


def truncate_move(me: Fraction, dest: Fraction, model: MovementModel, adversary_fraction: Fraction) -> Fraction:
    """Where a move from `me` toward `dest` actually stops.

    Rigid movement always reaches the destination.  Non-rigid movement may be
    cut short by the adversary, but covers at least min(delta, |dest-me|);
    the adversary's fraction picks a stop point in [delta, |dest-me|] and the
    robot never overshoots the destination.
    """
    if not 0 <= adversary_fraction <= 1:
        raise ValueError("adversary fraction must lie in [0, 1]")
    if model.kind == RIGID:
        return dest
    length = abs(dest - me)
    if length <= model.delta:
        return dest
    travelled = max(model.delta, adversary_fraction * length)
    direction = 1 if dest > me else -1
    return me + direction * travelled
