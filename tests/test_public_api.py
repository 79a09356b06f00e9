"""The public API, pinned: adding or removing a public name means editing this list."""

import importlib
import types

import pytest

import typicality_lab

PUBLIC_API = {
    "typicality_lab": [
        "ATOL", "BatteryReport", "CHSH", "CHSH_OUTCOMES", "Check", "ChshOutcome",
        "ConditionalAverageReport", "EmpiricalStats", "FiniteProbabilitySpace",
        "FrequencyTest", "GHZ", "GHZ_OUTCOMES", "GhzEnumeration", "GhzOutcome",
        "GhzRunReport", "I2", "LhvAssignment", "MAX_TENSOR_DIM",
        "MeasurementOperatorSet", "WorldPrefix", "X", "Y",
        "Z", "basis", "bell_singlet", "block_frequency_test", "build_chsh_operators",
        "build_ghz_operators", "check_completeness", "chsh_distribution",
        "condition_seq", "controlled_unitary", "empirical", "fair_coin",
        "ghz_distribution", "ghz_state", "involutory_pvm", "ket_plus",
        "lhv_chsh_averages", "lhv_chsh_simulate", "lhv_ghz_enumerate",
        "lhv_ghz_feasibility", "lhv_sweep", "point_mass", "product", "project_seq",
        "projector", "random_h_spaces", "run_battery", "run_chsh", "run_ghz",
        "sample_world", "tensor", "uniform", "zip_seqs",
    ],
    "typicality_lab.battery": [
        "BatteryReport", "DEFAULT_BLOCK_LENS", "DEFAULT_SIGNIFICANCE", "FrequencyTest",
        "block_frequency_test", "frequency_test", "holm_family", "run_battery",
    ],
    "typicality_lab.checks": ["ATOL", "Check", "FALSE_ALARM_RATE", "RELATIONS", "SIGMAS"],
    "typicality_lab.chsh": [
        "CHSH", "CHSH_OUTCOMES", "ChshOutcome", "ConditionalAverageReport",
        "LOCAL_BOUND", "MIN_TRIALS", "RQST_TUPLES", "S_TARGET", "SweepReport",
        "build_chsh_operators", "chsh_distribution", "coin_event", "lhv_chsh_averages",
        "lhv_chsh_simulate", "lhv_sweep", "local_bound_check", "random_h_spaces", "run_chsh",
    ],
    "typicality_lab.cli": ["SCHEMA_VERSION", "main"],
    "typicality_lab.ghz": [
        "CONSTRAINTS", "COS_QUARTER_TURNS", "FeasibilityReport", "GHZ", "GHZ_OUTCOMES",
        "GhzEnumeration", "GhzOutcome", "GhzRunReport", "LHV_ASSIGNMENTS",
        "LhvAssignment", "MIN_TRIALS", "build_ghz_operators",
        "coin_event", "ghz_distribution", "lhv_ghz_enumerate", "lhv_ghz_feasibility",
        "run_ghz",
    ],
    "typicality_lab.linalg": [
        "ATOL", "I2", "MAX_TENSOR_DIM", "MeasurementOperatorSet", "X", "Y", "Z",
        "basis", "bell_singlet", "check_completeness", "controlled_unitary", "dag",
        "ghz_state", "involutory_pvm", "is_hermitian", "is_unitary", "ket_plus",
        "projector", "tensor",
    ],
    "typicality_lab.protocol": ["CELL_FAMILY_RATE", "Protocol"],
    "typicality_lab.spaces": [
        "FiniteProbabilitySpace", "SUM_ATOL", "fair_coin", "point_mass", "product",
        "uniform",
    ],
    "typicality_lab.worlds": [
        "BLOCK_LEN", "EmpiricalStats", "GENERATOR_ID", "SignCell", "WorldPrefix",
        "condition_seq", "empirical", "project_seq", "sample_world", "tally", "zip_seqs",
    ],
}


def _exported(module_name):
    # The package binds each public name when it is first read, so every
    # pinned name is read through it first.  Its public names are then the
    # non-module names it binds, and they must be its __all__ too.  Every
    # module lists its own in __all__.
    module = importlib.import_module(module_name)
    assert all(hasattr(module, name) for name in module.__all__), module_name
    if module_name == "typicality_lab":
        for name in PUBLIC_API[module_name]:
            getattr(module, name)
        bound = sorted(
            name
            for name, value in vars(module).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        )
        assert bound == sorted(module.__all__)
        return bound
    return sorted(module.__all__)


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_public_api_is_pinned(module_name):
    assert _exported(module_name) == sorted(PUBLIC_API[module_name])


def test_package_names_resolve_on_access():
    assert set(PUBLIC_API["typicality_lab"]) <= set(dir(typicality_lab))
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        typicality_lab.not_a_name
    with pytest.raises(ImportError):
        from typicality_lab import not_a_name  # noqa: F401


def test_package_reexports_only_module_exports():
    # A package name is a module's public name, bound to the same object.
    for name in PUBLIC_API["typicality_lab"]:
        owners = [
            module_name
            for module_name in PUBLIC_API
            if module_name != "typicality_lab" and name in PUBLIC_API[module_name]
        ]
        assert owners, name
        assert any(
            getattr(importlib.import_module(owner), name) is getattr(typicality_lab, name)
            for owner in owners
        ), name


@pytest.mark.parametrize(
    ("module_name", "class_name", "name"),
    [
        ("typicality_lab.spaces", "FiniteProbabilitySpace", "string_prob"),
        ("typicality_lab.spaces", "FiniteProbabilitySpace", "prefix_free_measure"),
        ("typicality_lab.linalg", None, "expectation"),
        ("typicality_lab.worlds", None, "lln_report"),
        ("typicality_lab.worlds", None, "LlnReport"),
        ("typicality_lab.worlds", None, "LlnRow"),
        ("typicality_lab.ghz", None, "PerfectCorrelationError"),
        ("typicality_lab.chsh", None, "within_local_bound"),
        ("typicality_lab.worlds", None, "CellTally"),
        ("typicality_lab.worlds", None, "Tally"),
        ("typicality_lab.worlds", None, "sign_cell"),
        ("typicality_lab.worlds", None, "_BlockCounter"),
        ("typicality_lab.protocol", "Protocol", "product_signs"),
        ("typicality_lab.battery", None, "long_enough"),
    ],
)
def test_deleted_name_stays_deleted(module_name, class_name, name):
    holder = importlib.import_module(module_name)
    if class_name is not None:
        holder = getattr(holder, class_name)
    assert not hasattr(holder, name)
    assert not hasattr(typicality_lab, name)
