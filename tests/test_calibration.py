"""Two-level calibration of the run statistics over a fixed range of seeds.

Under the exact law every battery p-value is (close to) uniform, so each
block length rejects at the significance rate, and the CHSH value and
the GHZ free-triple means are normal about their targets.  Following
NIST SP 800-22 section 4.2, the second level tests those first-level
values: a binomial bound on each block length's rejection count and a
10-bin chi-square test of uniformity.  The k = 1 p-values are the ones
each ``chsh`` run takes from its symbol counts, before its family adjusts
them; the k = 2 and 3 ones come from the default battery (k = 1, 2, 3)
of each coin pair's conditioned world.  The k = 1, 2, 3 tests of one
cell share data, so each block length is tested on its own.  A ``chsh``
run gates its four coin-pair tests, and a ``ghz`` run its eight
coin-triple tests, as one Holm family at the s-value gate's rate
``erfc(SIGMAS / sqrt(2))``, and a battery its block lengths' tests as
one Holm family at its significance; the runs and batteries that reject
are bounded from above by the binomial tail at their family's rate.

Those checks see false alarms only; a battery that never rejects passes
them.  The lower side plants alternatives in the law a world is drawn
from: the CHSH (0, 0) coin-pair law ``p`` moved to ``q = p + d (1, -1,
-1, 1)``, along the product of the results, with ``d`` chosen so that
``n * sum((q - p)**2 / p)`` is a set non-centrality ``lam`` for ``n``
draws of the pair.  The block-1 test against ``p`` then rejects with the
non-central chi-square power, which a binomial bound checks.  Planted in
one cell of a whole ``chsh`` law, or in the free GHZ triple 001 of a
whole ``ghz`` law, it makes the Holm family reject at least as often as
that test alone at the family's first threshold, the rate over the
number of cells.  The ``chsh`` s-value gate is given local models to
refuse: every local model has ``|s| <= 2``, about 18 sigma below
``2 sqrt(2)`` at ``MIN_TRIALS``.

An ``lhv chsh --trials`` run holds its simulated s-value to the exact one
within Hoeffding's band, whose false-alarm rate is at most
``FALSE_ALARM_RATE`` for every hidden-variable law h, so the runs that
reject are bounded from above by the binomial tail at that rate: for the
uniform h, for h uniform on the simplex, and for skewed h, weight
``1 - 15 eps`` on one value tuple and ``eps`` on each other one, at eps =
1e-3 and 1e-6, where the averages are far from normal and a normal band
would reject far above its rate.  The lower side draws each run from a
planted ``h' = (1 - w) h + w v``, v the vertex farthest from h in s, and
holds it to the s-value of h.  Where ``|s(h') - s(h)|`` is at least twice
the band, as each run checks, a run passes only if it strays a band from
s(h'), which the same bound puts at the same rate; so the runs that pass
are bounded from above by that tail too.  A ``lhv chsh`` command drawn so
exits 1 on its ``s-value`` check.

Every bound is two-sided at one per-check false-alarm rate ``ALPHA``, or
one-sided at ``ALPHA`` where only one side is checked, so the chance
that any of this file's 22 checks fails on a correct sampler and battery
is at most 22 x 1e-6 / 9 = 2.44e-6 (Bonferroni).  The seeds were fixed
before any result was looked at and must never be re-picked after a
failure.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from typicality_lab.battery import (
    DEFAULT_BLOCK_LENS,
    DEFAULT_SIGNIFICANCE,
    _chi2_sf,
    block_frequency_test,
    run_battery,
)
from typicality_lab import chsh as chsh_mod
from typicality_lab.checks import FALSE_ALARM_RATE, SIGMAS
from typicality_lab.chsh import (
    CHSH,
    MIN_TRIALS,
    RQST_TUPLES,
    S_TARGET,
    chsh_distribution,
    coin_event,
    lhv_chsh_averages,
    lhv_chsh_simulate,
    random_h_spaces,
    run_chsh,
)
from typicality_lab.cli import main
from typicality_lab.ghz import GHZ, ghz_distribution, run_ghz
from typicality_lab.spaces import FiniteProbabilitySpace, point_mass, uniform
from typicality_lab.worlds import condition_seq, sample_world, tally

SEEDS = range(400)
TRIALS = 40_000
COIN_PAIRS = [(0, 0), (1, 0), (0, 1), (1, 1)]

#: Non-centralities of the planted alternatives, and the draws that test each.
LAMBDAS = (3, 10, 30)
POWER_SEEDS = range(200)
POWER_TRIALS = 10_000
#: The non-centrality planted in one cell of a whole ``chsh`` law: about
#: even odds for the cell's test at the family's first threshold.
FAMILY_LAMBDA = 23
#: The same for one free triple of a whole ``ghz`` law, 7 dof at rate / 8.
GHZ_FAMILY_LAMBDA = 30

#: The draws of each local model that the s-value gate is given.
GATE_SEEDS = range(5)

#: The ``lhv chsh`` runs of ``MIN_TRIALS`` rounds per hidden-variable law, and the 20
#: laws uniform on the simplex that share them, ``LHV_SEEDS`` / 20 seeds each.
LHV_SEEDS = range(1000)
SIMPLEX_LAWS = 20
#: The runs drawn from a planted law, and each case's length and weight on its vertex.
PLANTED_SEEDS = range(200)
PLANTED = ((MIN_TRIALS, 0.4), (10 * MIN_TRIALS, 0.15))

#: Chance that one check fails on a correct sampler and battery.  Every check
#: takes it: per block length a rejection count and a uniformity test; the
#: rejection counts of the three Holm families (chsh cells, ghz cells,
#: battery); the CHSH z-scores; the GHZ scaled means; the power checks,
#: one per ``lam`` and one per protocol's family; and the ``lhv chsh`` band's
#: rejection counts, four of false alarms and two of planted laws.
ALPHA = 1e-6 / 9

#: The family-wise rate of a run's coin-tuple tests: 2 Phi(-SIGMAS).
FAMILY_RATE = math.erfc(SIGMAS / math.sqrt(2.0))


def uniformity_p_value(values, bins=10):
    """Chi-square p-value of values in [0, 1) against the uniform law on ``bins`` cells."""
    counts = np.histogram(values, bins=bins, range=(0.0, 1.0))[0]
    expected = len(values) / bins
    return _chi2_sf(float(((counts - expected) ** 2 / expected).sum()), bins - 1)


def binomial_tails(k, n, p):
    """``P(K <= k)`` and ``P(K >= k)`` for ``K ~ Binomial(n, p)``."""
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
        + r * math.log(p) + (n - r) * math.log1p(-p)
        for r in range(n + 1)
    ]
    pmf = [math.exp(v) for v in log_pmf]
    return math.fsum(pmf[: k + 1]), math.fsum(pmf[k:])


def normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@pytest.fixture(scope="module")
def chsh_runs():
    return [run_chsh(TRIALS, seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def ghz_runs():
    return [run_ghz(TRIALS, seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def conditioned_batteries():
    """The default battery of each coin pair's conditioned world, for every seed."""
    fps = chsh_distribution()
    batteries = []
    for seed in SEEDS:
        world = sample_world(fps, TRIALS, seed)
        for c, d in COIN_PAIRS:
            event = coin_event(c, d)
            cell = condition_seq(world, event)
            batteries.append(run_battery(cell, fps.condition(event)))
    return batteries


def p_values(chsh_runs, conditioned_batteries, block_len):
    """The unadjusted p-values at ``block_len`` of every coin pair of every seed."""
    if block_len == 1:
        return [t.p_value for run in chsh_runs for t in run.cell_tests.values()]
    return [
        t.p_value for battery in conditioned_batteries for t in battery.tests
        if t.block_len == block_len
    ]


@pytest.mark.parametrize("block_len", DEFAULT_BLOCK_LENS)
def test_rejection_rate_is_the_significance(chsh_runs, conditioned_batteries, block_len):
    values = p_values(chsh_runs, conditioned_batteries, block_len)
    assert len(values) == 4 * len(SEEDS)
    rejections = sum(p < DEFAULT_SIGNIFICANCE for p in values)
    below, above = binomial_tails(rejections, len(values), DEFAULT_SIGNIFICANCE)
    assert min(below, above) > ALPHA / 2, (rejections, len(values))


@pytest.mark.parametrize("block_len", DEFAULT_BLOCK_LENS)
def test_p_values_are_uniform(chsh_runs, conditioned_batteries, block_len):
    values = p_values(chsh_runs, conditioned_batteries, block_len)
    assert uniformity_p_value(values) >= ALPHA


def test_holm_family_rejects_at_most_at_its_rate(chsh_runs):
    # Holm keeps the family's rate at most FAMILY_RATE, whatever the
    # dependence, so the binomial tail at that rate bounds the count.
    rejections = sum(
        not all(t.passed for t in run.cell_tests.values()) for run in chsh_runs
    )
    assert binomial_tails(rejections, len(chsh_runs), FAMILY_RATE)[1] > ALPHA, rejections


def test_ghz_holm_family_rejects_at_most_at_its_rate(ghz_runs):
    # The eight triples' tests, four of them with four zero cells each.
    rejections = sum(not all(t.passed for t in run.cell_tests.values()) for run in ghz_runs)
    assert binomial_tails(rejections, len(ghz_runs), FAMILY_RATE)[1] > ALPHA, rejections


def test_battery_family_rejects_at_most_at_its_significance(conditioned_batteries):
    # Given the coins, the four coin pairs' worlds of a seed are independent,
    # and each battery rejects with probability at most its significance.
    rejections = sum(not battery.all_pass for battery in conditioned_batteries)
    assert {len(battery.tests) for battery in conditioned_batteries} == {len(DEFAULT_BLOCK_LENS)}
    tail = binomial_tails(rejections, len(conditioned_batteries), DEFAULT_SIGNIFICANCE)[1]
    assert tail > ALPHA, rejections


def test_chsh_s_value_is_normal_about_its_target(chsh_runs):
    # Given the cell counts n, each coin pair's mean product has variance
    # 0.5 / n under the exact law, and the four are independent.
    z = [
        (run.s_value - S_TARGET) / math.sqrt(sum(0.5 / n for n in run.counts.values()))
        for run in chsh_runs
    ]
    assert uniformity_p_value([normal_cdf(v) for v in z]) >= ALPHA


def test_ghz_free_triple_means_are_standard_normal(ghz_runs):
    # A free triple's product is +-1 with mean 0, so sqrt(n) times its
    # mean over n rounds is close to N(0, 1).
    z = [
        entry["mean_product"] * math.sqrt(entry["count"])
        for run in ghz_runs
        for entry in run.free.values()
    ]
    assert len(z) == 4 * len(SEEDS)
    assert uniformity_p_value([normal_cdf(v) for v in z]) >= ALPHA


def chi2_quantile(upper, dof):
    """The ``x`` with ``_chi2_sf(x, dof) == upper``, by bisection."""
    lo, hi = 0.0, 1.0
    while _chi2_sf(hi, dof) > upper:
        hi *= 2.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if _chi2_sf(mid, dof) > upper else (lo, mid)
    return hi


def predicted_power(lam, crit, dof):
    """``P(X >= crit)`` for non-central chi-square X, a Poisson(lam / 2) mix of central tails."""
    return math.fsum(
        math.exp(j * math.log(lam / 2) - lam / 2 - math.lgamma(j + 1)) * _chi2_sf(crit, dof + 2 * j)
        for j in range(100)
    )


def shifted(p, lam, n):
    """``p`` moved along the product of the results to non-centrality ``lam`` for ``n`` draws."""
    signs = np.array([math.prod(o[len(o) // 2 :]) for o in p.alphabet])
    d = math.sqrt(lam / (n * np.sum(1.0 / p.weights)))
    return FiniteProbabilitySpace(p.alphabet, p.weights + d * signs)


def planted(lam, n=POWER_TRIALS):
    """The (0, 0) coin-pair law ``p``, and ``q`` at non-centrality ``lam`` for ``n`` draws of it."""
    p = chsh_distribution("analytic").condition(coin_event(0, 0))
    return p, shifted(p, lam, n)


def family_rejections(protocol, fps, coins, lam):
    """Runs of ``POWER_SEEDS`` whose cell family rejects, with cell ``coins`` at ``lam``.

    Each run has ``POWER_TRIALS`` rounds per cell on average, and the cell
    ``coins`` of its law is shifted to non-centrality ``lam`` for as many.
    """
    cells = 2**protocol.parties
    p = fps.condition(protocol.coin_event(*coins))
    weights = fps.weights.copy()
    weights[[fps.index(o) for o in p.alphabet]] = shifted(p, lam, POWER_TRIALS).weights / cells
    law = FiniteProbabilitySpace(fps.alphabet, weights)
    families = (protocol.cell_tests(fps, tally(law, cells * POWER_TRIALS, s)) for s in POWER_SEEDS)
    return sum(not all(t.passed for t in family.values()) for family in families)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_rejection_rate_is_the_power(lam):
    p, q = planted(lam)
    worlds = [sample_world(q, POWER_TRIALS, seed) for seed in POWER_SEEDS]
    rejections = sum(not block_frequency_test(world, p, 1).passed for world in worlds)
    dof = len(p) - 1
    power = predicted_power(lam, chi2_quantile(DEFAULT_SIGNIFICANCE, dof), dof)
    below, above = binomial_tails(rejections, len(POWER_SEEDS), power)
    assert min(below, above) > ALPHA / 2, (rejections, power)


def test_holm_family_rejects_a_planted_cell():
    # The (0, 0) cell of the chsh law, a quarter of the rounds, drawn from
    # q; the family rejects whenever that cell's p-value is at most
    # FAMILY_RATE / 4, its first threshold, so at least that often.
    rejections = family_rejections(CHSH, chsh_distribution("analytic"), (0, 0), FAMILY_LAMBDA)
    power = predicted_power(FAMILY_LAMBDA, chi2_quantile(FAMILY_RATE / 4, 3), 3)
    below, _ = binomial_tails(rejections, len(POWER_SEEDS), power)
    assert below > ALPHA, (rejections, power)


def test_ghz_holm_family_rejects_a_planted_free_triple():
    # The free triple 001, an eighth of the rounds, its eight results moved
    # along their product; its first threshold is FAMILY_RATE / 8, at 7 dof.
    fps = ghz_distribution("analytic")
    rejections = family_rejections(GHZ, fps, (0, 0, 1), GHZ_FAMILY_LAMBDA)
    power = predicted_power(GHZ_FAMILY_LAMBDA, chi2_quantile(FAMILY_RATE / 8, 7), 7)
    below, _ = binomial_tails(rejections, len(POWER_SEEDS), power)
    assert below > ALPHA, (rejections, power)


def test_power_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    crit = chi2_quantile(DEFAULT_SIGNIFICANCE, 3)
    assert crit == pytest.approx(stats.chi2.isf(DEFAULT_SIGNIFICANCE, 3), rel=1e-12)
    for lam in LAMBDAS:
        assert predicted_power(lam, crit, 3) == pytest.approx(stats.ncx2.sf(crit, 3, lam), abs=1e-9)
    for cells, lam in ((4, FAMILY_LAMBDA), (8, GHZ_FAMILY_LAMBDA)):
        dof = cells - 1
        first = chi2_quantile(FAMILY_RATE / cells, dof)
        assert first == pytest.approx(stats.chi2.isf(FAMILY_RATE / cells, dof), rel=1e-12)
        assert predicted_power(lam, first, dof) == pytest.approx(
            stats.ncx2.sf(first, dof, lam), abs=1e-9
        )


@pytest.mark.parametrize(
    "h",
    [point_mass(RQST_TUPLES, x) for x in RQST_TUPLES] + random_h_spaces(4, seed=0),
    ids=[f"vertex-{i}" for i in range(len(RQST_TUPLES))] + [f"interior-{i}" for i in range(4)],
)
def test_s_value_gate_refuses_local_models(h):
    # The band the chsh command's gate accepts, from each run's cell counts.
    for seed in GATE_SEEDS:
        run = lhv_chsh_simulate(h, MIN_TRIALS, seed)
        sigma = math.sqrt(sum(0.5 / n for n in run.counts.values()))
        assert abs(run.s_value - S_TARGET) > SIGMAS * sigma, (seed, run.s_value, sigma)


def skewed(eps):
    """Weight ``1 - 15 eps`` on the first value tuple and ``eps`` on each other one."""
    return FiniteProbabilitySpace(RQST_TUPLES, [1 - 15 * eps] + [eps] * 15)


def lhv_runs(h, seeds, trials=MIN_TRIALS):
    return [lhv_chsh_simulate(h, trials, seed) for seed in seeds]


@pytest.mark.parametrize(
    "runs",
    [
        lambda: lhv_runs(uniform(RQST_TUPLES), LHV_SEEDS),
        lambda: [
            run
            for h in random_h_spaces(SIMPLEX_LAWS, seed=2)
            for run in lhv_runs(h, range(len(LHV_SEEDS) // SIMPLEX_LAWS))
        ],
        lambda: lhv_runs(skewed(1e-3), LHV_SEEDS),
        lambda: lhv_runs(skewed(1e-6), LHV_SEEDS),
    ],
    ids=["uniform", "simplex", "skewed-1e-3", "skewed-1e-6"],
)
def test_lhv_band_rejects_at_most_at_its_rate(runs):
    # Hoeffding's bound holds given the cell counts, for every law, so each
    # run rejects with probability at most FALSE_ALARM_RATE.
    runs = runs()
    assert len(runs) == len(LHV_SEEDS)
    rejections = sum(not run.check.passed for run in runs)
    assert binomial_tails(rejections, len(runs), FALSE_ALARM_RATE)[1] > ALPHA, rejections


def planted_law(h, weight):
    """``(1 - weight) h + weight v``, v the vertex whose s-value is farthest from that of ``h``."""
    s = lhv_chsh_averages(h).s_value
    vertex = max(
        (point_mass(RQST_TUPLES, x) for x in RQST_TUPLES),
        key=lambda v: abs(lhv_chsh_averages(v).s_value - s),
    )
    return FiniteProbabilitySpace(RQST_TUPLES, (1 - weight) * h.weights + weight * vertex.weights)


@pytest.mark.parametrize("trials, weight", PLANTED)
def test_lhv_band_catches_a_planted_law(trials, weight):
    h = random_h_spaces(1, seed=3)[0]
    target = lhv_chsh_averages(h).s_value
    planted = planted_law(h, weight)
    shift = abs(lhv_chsh_averages(planted).s_value - target)
    runs = [run._replace(s_target=target) for run in lhv_runs(planted, PLANTED_SEEDS, trials)]
    assert all(shift >= 2 * run.s_tolerance for run in runs), shift
    passes = sum(run.check.passed for run in runs)
    assert binomial_tails(passes, len(runs), FALSE_ALARM_RATE)[1] > ALPHA, passes


def test_lhv_command_drawn_from_a_planted_law_fails(tmp_path, monkeypatch):
    # A planted sampler fault: every round is drawn from h' for the file's h.
    h = random_h_spaces(1, seed=3)[0]
    reveal = chsh_mod._revealed_law
    monkeypatch.setattr(chsh_mod, "_revealed_law", lambda _: reveal(planted_law(h, 0.4)))
    path = tmp_path / "h.json"
    path.write_text(h.to_json())
    out = io.StringIO()
    argv = ["lhv", "chsh", "--h-file", str(path), "--trials", str(MIN_TRIALS), "--seed", "1"]
    with contextlib.redirect_stdout(out):
        status = main(argv)
    report = json.loads(out.getvalue())
    assert status == 1
    assert [f["check"] for f in report["failures"]] == ["s-value"]
    assert report["s_target"] == lhv_chsh_averages(h).s_value
