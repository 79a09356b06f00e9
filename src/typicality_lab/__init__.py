"""Seeded simulation of the CHSH and GHZ measurement protocols.

The package builds both protocols twice over: once from explicit
measurement operators on small Hilbert spaces (with the induced outcome
distribution computed from Born weights), and once from the closed-form
distributions, cross-checked entrywise.  Outcome sequences are drawn by a
deterministic counter-based generator standing in for a typical sequence
under the product measure, and the sequence toolkit (conditioning,
projection, zipping, frequency reports as ``empirical`` symbol counts and
a chi-square block battery) turns limit statements about infinite
sequences into finite-scale checks with explicit tolerances.

Local-hidden-variable baselines are included for contrast: exact and
simulated CHSH conditional averages for any distribution of pre-existing
values (always respecting the bound of 2), and the exhaustive 64-case
enumeration showing no value assignment reproduces the GHZ perfect
correlations.
"""

import os as _os

# Every matrix product here is at most 64x64.  OpenBLAS worker threads buy
# nothing at that size and cost twice: starting them when numpy loads adds
# about 0.04-0.07 s of CPU to every process that loads numpy (on a 2-vCPU
# VM, `chsh --trials 200000 --seed 42` took 0.21 s of CPU against 0.27 s
# with two BLAS threads), and the first 64x64 product in a process can
# wait about a second for them (1.1-1.2 s in 3 of 5 processes there).  So
# one BLAS thread, unless a thread count is already set.  This takes
# effect only if numpy is first loaded after this package, as in a
# command-line run.  README "Install" gives the measurements.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(_os.environ):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from importlib import import_module as _import_module

#: Each public name, by the module that defines it.  A name's module is
#: imported when the name is first read (PEP 562), so a process loads only
#: the modules it uses: ``lhv ghz`` never loads the sampler or the battery.
_EXPORTS = {
    name: module
    for module, names in {
        "battery": "BatteryReport FrequencyTest block_frequency_test run_battery",
        "checks": "ATOL Check",
        "chsh": "CHSH CHSH_OUTCOMES ChshOutcome ConditionalAverageReport "
        "build_chsh_operators chsh_distribution lhv_chsh_averages lhv_chsh_simulate "
        "lhv_sweep random_h_spaces run_chsh",
        "ghz": "GHZ GHZ_OUTCOMES GhzEnumeration GhzOutcome GhzRunReport LhvAssignment "
        "build_ghz_operators ghz_distribution lhv_ghz_enumerate lhv_ghz_feasibility run_ghz",
        "linalg": "I2 MAX_TENSOR_DIM MeasurementOperatorSet X Y Z basis bell_singlet "
        "check_completeness controlled_unitary ghz_state involutory_pvm ket_plus "
        "projector tensor",
        "spaces": "FiniteProbabilitySpace fair_coin point_mass product uniform",
        "worlds": "EmpiricalStats WorldPrefix condition_seq empirical project_seq "
        "sample_world zip_seqs",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # bound once: later reads do not come here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__version__ = "0.1.0"
