"""Run the GHZ protocol: correlations that are perfect, not statistical.

Three parties share the state (|000> - |111>)/sqrt(2); each tosses a
coin and measures X (coin 0) or Y (coin 1).  The 64-outcome round
distribution has exact structural zeros wherever the coin sum is 0 or 2
and the outcome product has the forbidden sign -- and a zero-weight
outcome can never be sampled.  So on coin triples 011, 101, 110 the
product m1*m2*m3 is +1 on every single round, and on 000 it is -1 on
every round.  No convergence, no error bars: count the violations and
get zero.

The other four coin triples (sum 1 or 3) are genuinely unconstrained;
their mean product hovers near 0.

=== EXAMPLE OUTPUT ===
distribution cross-check: max |analytic - operator| = 2.43e-17
structural zeros in the law: 16 of 64 outcomes
sampled 100000 rounds (seed 7)
  coins 011: product = +1 on all 12367 rounds (violations: 0)
  coins 101: product = +1 on all 12517 rounds (violations: 0)
  coins 110: product = +1 on all 12356 rounds (violations: 0)
  coins 000: product = -1 on all 12380 rounds (violations: 0)
free triples (mean product -> 0):
  coins 001: mean = -0.0014 (n=12491)
  coins 010: mean = +0.0105 (n=12643)
  coins 100: mean = +0.0035 (n=12626)
  coins 111: mean = -0.0144 (n=12620)
"""

import numpy as np

from typicality_lab import ghz_distribution, run_ghz


def main():
    analytic = ghz_distribution("analytic")
    operator = ghz_distribution("linear_algebra")
    diff = np.abs(analytic.weights - operator.weights).max()
    print(f"distribution cross-check: max |analytic - operator| = {diff:.2e}")
    zeros = sum(1 for w in analytic.weights if w == 0.0)
    print(f"structural zeros in the law: {zeros} of {len(analytic.weights)} outcomes")

    trials, seed = 100_000, 7
    report = run_ghz(trials, seed)
    print(f"sampled {trials} rounds (seed {seed})")
    for triple in ("011", "101", "110", "000"):
        entry = report.constrained[triple]
        print(
            f"  coins {triple}: product = {entry['required_product']:+d} on all "
            f"{entry['count']} rounds (violations: {entry['violations']})"
        )
    print("free triples (mean product -> 0):")
    for triple in ("001", "010", "100", "111"):
        entry = report.free[triple]
        print(f"  coins {triple}: mean = {entry['mean_product']:+.4f} (n={entry['count']})")


if __name__ == "__main__":
    main()
