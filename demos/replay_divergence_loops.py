"""Replay every published counterexample schedule and print its scaling loop.

Each replay reconstructs the adversarial schedule for one algorithm family,
runs it under exact rational arithmetic, and extracts a machine-checked
certificate: a schedule block under which a color pair recurs (possibly with
the robots' roles swapped) while the distance shrinks by a fixed ratio.
"""

from fractions import Fraction

from lumirend.core import format_rational
from lumirend.verify import replay_paper_counterexample, validate_certificate

F = Fraction
SAMPLES = (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))
CONDITIONS = {
    "lemma9_3": lambda lam: lam != 1,
    "lemma9_4": lambda lam: lam != 0,
    "lemma9_5": lambda lam: lam != 1,
    "lemma9_6": lambda lam: lam != 0,
}


def describe(name, lam=None):
    res = replay_paper_counterexample(name, lam)
    cert = res.verdict.certificate
    (colors, d0) = res.initial
    chain = " -> ".join(
        f"({c.c_r},{c.c_s};{format_rational(c.d)})"
        for t in res.trace.cs_times()[:4]
        for c in [res.trace.configuration_at(t)]
    )
    lam_text = "" if lam is None else f" coefficient={format_rational(lam)}"
    swap = " (roles swap)" if cert.swap else ""
    print(f"{name}{lam_text}")
    print(f"  entry ({colors[0]},{colors[1]};{format_rational(d0)}), "
          f"loop ratio {format_rational(cert.ratio)}{swap}")
    print(f"  cycle-start chain: {chain}")
    validate_certificate(cert)


def main():
    describe("lemma6_alg_a")
    describe("lemma7_alg_b")
    for lam in SAMPLES:
        describe("lemma9_1", lam)
        describe("lemma9_2", lam)
    for name, cond in CONDITIONS.items():
        for lam in SAMPLES:
            if cond(lam):
                describe(name, lam)
    print("\nevery certificate re-validated by replay")


if __name__ == "__main__":
    main()
