"""Simulator and bounded verifier for two-robot rendezvous with external lights."""

from .core import (
    ASYNC,
    FSYNC,
    NON_RIGID,
    RIGID,
    SSYNC,
    DanglingTarget,
    Edge,
    GraphError,
    LightGraph,
    MissingEdge,
    MovementModel,
    SchedulerClass,
    destination,
    format_rational,
    rational,
    transition,
    truncate_move,
    validate_graph,
)
from .schedules import Schedule, alt, check_legal, mirror, sim
from .engine import ConfigurationView, Simulation, Trace, run
from .algorithms import builtin, classify_shape, enumerate_graphs
from .verify import (
    Diverges,
    Inconclusive,
    Rendezvous,
    ScalingLoopCertificate,
    SearchConfig,
    check_rendezvous,
    classify_stabilization,
    detect_scaling_loop,
    reachable_cs_color_pairs,
    replay_paper_counterexample,
    search_one,
    structural_check,
)

__version__ = "0.1.0"
