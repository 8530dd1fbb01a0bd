"""The stable facade: exports, keyword-only constructors, config round-trips.

This file deliberately imports only from :mod:`repro.api` (enforced by
``tools/check_api_imports.py``) — it exercises the same surface the
examples and external users see.
"""

import json
import warnings

import pytest

from repro.api import (
    AlertConfig,
    APCConfig,
    ArenaEntrant,
    ArenaResult,
    ConfigurationError,
    DFRSConfig,
    JobQueue,
    PredictionMethod,
    ProportionalFairnessConfig,
    RunSpec,
    Scenario,
    Simulation,
    SimulationConfig,
)


# ----------------------------------------------------------------------
# Facade surface
# ----------------------------------------------------------------------
def test_all_names_resolve():
    import repro.api as api

    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert not missing


def test_all_is_sorted_within_reason():
    import repro.api as api

    # No duplicates; __all__ is the promise, so it must be exact.
    assert len(api.__all__) == len(set(api.__all__))


def test_facade_covers_the_policy_surface():
    """The redesign's names are part of the compatibility promise."""
    import repro.api as api

    required = {
        "PlacementPolicy",
        "PolicyRegistry",
        "PolicyContext",
        "default_policy_registry",
        "ProportionalFairnessPolicy",
        "ProportionalFairnessConfig",
        "DFRSPolicy",
        "DFRSConfig",
        "ArenaEntrant",
        "ArenaResult",
        "run_arena",
        "render_arena_table",
    }
    assert required <= set(api.__all__)


def test_facade_covers_example_imports():
    """Every name the shipped examples import must be in the facade."""
    import ast
    import pathlib

    import repro.api as api

    examples = pathlib.Path(__file__).parent.parent / "examples"
    if not examples.is_dir():
        pytest.skip("examples/ not present")
    names = set()
    for path in examples.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.api":
                names.update(alias.name for alias in node.names)
    assert names <= set(api.__all__)


# ----------------------------------------------------------------------
# Keyword-only constructors
# ----------------------------------------------------------------------
#: Every facade config built by ``repro._compat.keyword_only``.
KEYWORD_ONLY = (
    APCConfig,
    AlertConfig,
    ArenaEntrant,
    ArenaResult,
    DFRSConfig,
    ProportionalFairnessConfig,
    RunSpec,
    Scenario,
    SimulationConfig,
)


@pytest.mark.parametrize("cls", KEYWORD_ONLY, ids=lambda cls: cls.__name__)
def test_positional_construction_raises(cls):
    with pytest.raises(TypeError, match=f"{cls.__name__}\\(\\) takes keyword"):
        cls(600.0)


def test_keyword_construction_does_not_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        APCConfig(cycle_length=600.0)
        SimulationConfig(cycle_length=600.0)
        JobQueue(jobs=())
    assert not [w for w in caught if w.category is DeprecationWarning]


def test_jobqueue_jobs_is_keyword_only():
    with pytest.raises(TypeError):
        JobQueue([])  # noqa: the old zero-arg signature never took jobs


def test_positional_overflow_raises():
    with pytest.raises(TypeError, match="APCConfig"):
        APCConfig(*range(20))


# ----------------------------------------------------------------------
# PredictionMethod enum
# ----------------------------------------------------------------------
def test_prediction_method_coerces_strings():
    assert PredictionMethod.coerce("exact") is PredictionMethod.EXACT
    assert (
        PredictionMethod.coerce("interpolate") is PredictionMethod.INTERPOLATE
    )
    assert (
        PredictionMethod.coerce(PredictionMethod.EXACT) is PredictionMethod.EXACT
    )
    with pytest.raises(ValueError):
        PredictionMethod.coerce("extrapolate")


# ----------------------------------------------------------------------
# Config round-trips (JSON-lossless)
# ----------------------------------------------------------------------
def _through_json(data):
    return json.loads(json.dumps(data))


def test_apcconfig_round_trip():
    config = APCConfig(cycle_length=450.0, enable_search=False)
    data = _through_json(config.to_dict())
    assert set(data) == {"cycle_length", "enable_search"}
    assert APCConfig.from_dict(data) == config


def test_apcconfig_from_dict_drops_retired_solver_switches():
    """Scenario JSON, snapshots and sweep manifests written while the
    solver had switches and the search had caps still load, to the same
    controller: every such document carries one sweep and uncapped
    removals."""
    legacy = {
        "cycle_length": 450.0,
        "incremental": False,
        "vectorize": False,
        "fast_path_min_nodes": 0,
        "search_sweeps": 1,
        "max_removals_per_node": None,
    }
    assert APCConfig.from_dict(legacy) == APCConfig(cycle_length=450.0)
    scenario = Scenario.from_dict(
        {"name": "legacy", "apc": legacy, "sim": {"cycle_length": 450.0}}
    )
    assert scenario.apc == APCConfig(cycle_length=450.0)


def test_apcconfig_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        APCConfig.from_dict({"cycle_len": 600.0})


def test_simulationconfig_round_trip_defaults():
    config = SimulationConfig(cycle_length=600.0)
    clone = SimulationConfig.from_dict(_through_json(config.to_dict()))
    assert clone == config


def test_simulationconfig_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        SimulationConfig.from_dict({"cycle": 600.0})


def test_scenario_round_trip():
    scenario = Scenario(
        name="round-trip",
        nodes=4,
        workload="experiment2",
        job_count=12,
        interarrival=120.0,
        seed=3,
        queue_window=8,
        prediction_method="interpolate",
        policy="dfrs",
        policy_params={"rebalance_threshold": 0.5},
        apc=APCConfig(cycle_length=300.0),
        sim=SimulationConfig(cycle_length=300.0),
    )
    clone = Scenario.from_dict(_through_json(scenario.to_dict()))
    assert clone.to_dict() == scenario.to_dict()
    assert clone.policy == "dfrs"
    assert clone.prediction_method is PredictionMethod.INTERPOLATE
    assert clone.apc == scenario.apc
    assert clone.sim == scenario.sim


def test_scenario_rejects_unknown_keys_and_bad_workload():
    with pytest.raises(ConfigurationError):
        Scenario.from_dict({"nodez": 4})
    with pytest.raises(ConfigurationError):
        Scenario(workload="experiment9")


# ----------------------------------------------------------------------
# End-to-end through the facade
# ----------------------------------------------------------------------
def test_simulation_from_scenario_runs():
    scenario = Scenario(
        name="tiny", nodes=2, job_count=6, interarrival=100.0, seed=1
    )
    simulation = Simulation.from_scenario(scenario)
    assert len(simulation.jobs) == 6
    metrics = simulation.run()
    assert len(metrics.completions) == 6
