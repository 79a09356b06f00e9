"""Pre-existing values cannot beat 2: the CHSH inequality, swept numerically.

Local realism says the four observables carry definite values
(r, q, s, t) before anyone measures, distributed by some law H on
{+1,-1}^4.  Then each conditional average is just a weighted sum, and
since every value tuple gives rs + qs + rt - qt = +/-2, the combination
S can never exceed 2 -- for any H whatsoever.

This demo evaluates S exactly at all 16 deterministic vertices, sweeps
1000 random distributions on the simplex, and runs one seeded Monte
Carlo simulation of a hidden-variable model to show its empirical S
lands where the exact value says it must.

=== EXAMPLE OUTPUT ===
vertex S values: {2.0, -2.0} (maximum exactly 2)
sweep of 1000 random H: max S = 1.320163  (bound 2 holds)
one random H, exact vs simulated (100000 rounds, seed 12):
  <RS> exact -0.010782  simulated -0.014741
  <QS> exact +0.167197  simulated +0.176968
  <RT> exact -0.032103  simulated -0.033363
  <QT> exact -0.055622  simulated -0.049428
  S    exact +0.179934  simulated +0.178292
"""

from typicality_lab import lhv_chsh_averages, lhv_chsh_simulate, lhv_sweep
from typicality_lab.chsh import RQST_TUPLES, random_h_spaces
from typicality_lab.spaces import point_mass


def main():
    vertex_values = {
        lhv_chsh_averages(point_mass(RQST_TUPLES, x)).s_value for x in RQST_TUPLES
    }
    print(f"vertex S values: {vertex_values} (maximum exactly 2)")

    sweep = lhv_sweep(1000, seed=3)
    verdict = "holds" if sweep.bound_ok else "VIOLATED"
    print(f"sweep of 1000 random H: max S = {sweep.max_s_value:.6f}  (bound 2 {verdict})")

    h = random_h_spaces(1, seed=12)[0]
    trials, seed = 100_000, 12
    sim = lhv_chsh_simulate(h, trials, seed)
    print(f"one random H, exact vs simulated ({trials} rounds, seed {seed}):")
    for name in ("rs", "qs", "rt", "qt"):
        print(
            f"  <{name.upper()}> exact {sim.exact.averages[name]:+.6f}  "
            f"simulated {sim.averages[name]:+.6f}"
        )
    print(f"  S    exact {sim.exact.s_value:+.6f}  simulated {sim.s_value:+.6f}")


if __name__ == "__main__":
    main()
