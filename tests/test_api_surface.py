"""The curated ``repro.api`` surface and the retired compatibility shims.

``repro.api.__all__`` is the supported contract — this snapshot pins it
so any addition or removal is a deliberate, reviewed change.  The old
top-level re-exports of internal names and the ``repro.experiments.cli``
alias of :mod:`repro.cli` served their one release of deprecation and
are gone; these tests pin that they stay gone.
"""

import warnings

import pytest

import repro
import repro.api as api

# The supported surface, pinned.  Editing this list is an API change:
# update docs (DESIGN.md "Supported API") in the same commit.
API_SNAPSHOT = sorted([
    # single runs
    "simulate",
    "SimulationConfig",
    "SimulationEngine",
    "RunMetrics",
    "TelemetryRecorder",
    # systems under test
    "QuetzalRuntime",
    "Policy",
    "NoAdaptPolicy",
    "AlwaysDegradePolicy",
    "BufferThresholdPolicy",
    "PowerThresholdPolicy",
    "catnap_policy",
    # workloads and worlds
    "build_apollo_app",
    "build_msp430_app",
    "SolarTraceGenerator",
    "SolarTraceConfig",
    "TraceStore",
    "environment_by_name",
    "EventSchedule",
    "EventScheduleGenerator",
    # experiment grids
    "ExperimentConfig",
    "apollo_simulation_config",
    "hardware_experiment_config",
    "msp430_simulation_config",
    "run_grid",
    "standard_policies",
    "ExperimentRunner",
    "GridResults",
    "RunFailure",
    # fleets
    "run_fleet",
    "FleetSpec",
    "FleetResult",
    "FleetRollup",
    "MetricsRollup",
    "FleetRecorder",
    # observability
    "TraceEvent",
    "RingBufferTracer",
    "MetricsRegistry",
    "fleet_registry",
    "HeartbeatPublisher",
    # serving
    "ServeConfig",
    "FleetClient",
    "submit",
    "ResultCache",
    # meta
    "__version__",
])

RETIRED_TOP_LEVEL = {
    "IBOEngine": "repro.core.ibo",
    "PIDController": "repro.core.pid",
    "end_to_end_service_time": "repro.core.service_time",
    "ExactServiceTimeEstimator": "repro.core.service_time",
    "HardwareServiceTimeEstimator": "repro.core.service_time",
    "AverageServiceTimeEstimator": "repro.core.service_time",
    "ADC": "repro.hardware.adc",
    "Diode": "repro.hardware.diode",
    "PowerMonitor": "repro.hardware.circuit",
    "CheckpointModel": "repro.device.checkpoint",
}


class TestApiFacade:
    def test_all_is_exactly_the_snapshot(self):
        assert sorted(api.__all__) == API_SNAPSHOT

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_names_are_the_same_objects_as_their_homes(self):
        from repro.fleet import FleetSpec, run_fleet
        from repro.serve import FleetClient, ResultCache, ServeConfig, submit
        from repro.sim.engine import simulate

        assert api.simulate is simulate
        assert api.run_fleet is run_fleet
        assert api.FleetSpec is FleetSpec
        assert api.QuetzalRuntime is repro.QuetzalRuntime
        assert api.ServeConfig is ServeConfig
        assert api.FleetClient is FleetClient
        assert api.submit is submit
        assert api.ResultCache is ResultCache
        assert api.__version__ == repro.__version__

    def test_facade_import_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name in api.__all__:
                getattr(api, name)
        assert caught == []


class TestTopLevelShims:
    @pytest.mark.parametrize("name", sorted(RETIRED_TOP_LEVEL))
    def test_retired_name_is_gone(self, name):
        with pytest.raises(AttributeError, match="no attribute"):
            getattr(repro, name)
        # Still importable from its home module.
        import importlib

        assert getattr(importlib.import_module(RETIRED_TOP_LEVEL[name]), name)

    def test_retired_names_left_all(self):
        for name in RETIRED_TOP_LEVEL:
            assert name not in repro.__all__, name

    def test_supported_names_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repro.simulate
            repro.QuetzalRuntime
            repro.build_apollo_app
            repro.SimulationConfig
        assert caught == []

    def test_lazy_submodule_access(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert repro.api is api
            assert repro.fleet.FleetSpec is api.FleetSpec
        assert caught == []

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_name  # noqa: B018

    def test_dir_lists_supported_names_only(self):
        listing = dir(repro)
        assert "IBOEngine" not in listing
        assert "simulate" in listing


class TestRetiredModules:
    @pytest.mark.parametrize("module", ["repro.compat", "repro.experiments.cli"])
    def test_module_is_gone(self, module):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


class TestMovedCliHelpers:
    """The flag helpers live only in repro.cli; the old alias module is gone."""

    MOVED = ["CORE_FLAGS", "add_core_flags", "add_execution_flags",
             "jobs_from_args", "profiled"]

    @pytest.mark.parametrize("name", MOVED)
    def test_name_lives_in_repro_cli(self, name):
        import importlib

        import repro.cli

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert getattr(repro.cli, name) is not None
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.experiments.cli")

    def test_repro_cli_dir_covers_moved_names(self):
        import repro.cli

        for name in self.MOVED:
            assert name in dir(repro.cli), name
