"""Certify the positive algorithms by exhaustive bounded adversary search.

The search explores every adversarial activation pattern (activate one robot,
the other, or both, with minimal or full move cuts) over the reachable state
graph, then analyzes its strongly connected components: a fair cycle is a
non-terminating execution, while a closed graph without one sends every fair
execution to rendezvous.
"""

from fractions import Fraction

from lumirend import MovementModel, SchedulerClass, builtin
from lumirend.verify import (
    Diverges,
    Rendezvous,
    SearchConfig,
    classify_stabilization,
    reachable_cs_color_pairs,
    search_one,
)

F = Fraction
LC = SchedulerClass.asynchronous(lc_atomic=True)
NR4 = MovementModel.non_rigid(F(1, 4))
RIGID = MovementModel.rigid()


def verdict_text(v):
    if isinstance(v, Rendezvous):
        return "rendezvous"
    if isinstance(v, Diverges):
        return f"diverges (ratio {v.certificate.ratio})"
    return f"inconclusive: {v.reason}"


def main():
    print("three colors, rigid moves: works only from the halving color")
    cfg = SearchConfig(horizon=40, scheduler=LC, movement=RIGID)
    g = builtin("nonqss3")
    for c in "ABC":
        print(f"  start ({c},{c};1): {verdict_text(search_one(g, cfg, (c, c), 1))}")

    print("\nfour colors, non-rigid: every same-color start certifies;")
    print("the two skip-pairs are adversary traps")
    cfg = SearchConfig(horizon=60, scheduler=LC, movement=NR4)
    g = builtin("qss4")
    for pair in (("A", "A"), ("B", "B"), ("C", "C"), ("D", "D"), ("A", "C"), ("B", "D")):
        print(f"  start {pair}: {verdict_text(search_one(g, cfg, pair, 1))}")
    report = classify_stabilization(g, cfg)
    print(f"  classification: {report.classification}")

    print("\nfive colors, non-rigid: all 25 ordered starts certify")
    cfg = SearchConfig(horizon=80, scheduler=LC, movement=NR4)
    g = builtin("ss5")
    bad = [
        (a, b)
        for a in g.colors
        for b in g.colors
        if not isinstance(search_one(g, cfg, (a, b), 1), Rendezvous)
    ]
    print(f"  non-certifying starts: {bad or 'none'}")
    report = classify_stabilization(g, cfg)
    print(f"  classification: {report.classification}")

    pairs = reachable_cs_color_pairs(g, g.colors, cfg)
    skips = [p for p in ("AC", "BD", "CE", "DA", "EB") if frozenset(p) in pairs]
    print(f"  two-step color pairs reachable from equal starts: {skips or 'none'}")


if __name__ == "__main__":
    main()
