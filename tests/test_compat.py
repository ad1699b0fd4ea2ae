"""Keyword-only config constructors: positional ``TypeError`` + replace()."""

import dataclasses

import pytest

from repro.env.activity import environment_by_name
from repro.experiments.configs import ExperimentConfig
from repro.sim.engine import SimulationConfig


class TestKeywordOnlyConfigs:
    def test_keyword_construction_is_silent(self, recwarn):
        SimulationConfig(seed=3)
        ExperimentConfig(name="x", environment=environment_by_name("crowded"))
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    @pytest.mark.parametrize("cls", ["SimulationConfig", "ExperimentConfig",
                                     "FleetSpec", "ServeConfig"])
    def test_positional_construction_raises(self, cls):
        import repro.api

        with pytest.raises(TypeError, match="positional"):
            getattr(repro.api, cls)(2.5)

    def test_positional_and_keyword_duplicate_rejected(self):
        with pytest.raises(TypeError):
            SimulationConfig(2.5, capture_period_s=4.0)

    def test_too_many_positionals_rejected(self):
        n_fields = len(dataclasses.fields(SimulationConfig))
        with pytest.raises(TypeError):
            SimulationConfig(*range(n_fields + 1))

    def test_replace_derives_variant(self):
        base = SimulationConfig(seed=3)
        variant = base.replace(seed=4)
        assert variant.seed == 4
        assert base.seed == 3
        assert type(variant) is SimulationConfig

    def test_replace_on_experiment_config(self):
        base = ExperimentConfig(name="grid", n_events=5,
                                environment=environment_by_name("crowded"))
        variant = base.replace(n_events=9)
        assert variant.n_events == 9
        assert variant.name == "grid"

    def test_replace_on_fleet_and_serve_configs(self):
        from repro.api import FleetSpec, ServeConfig

        spec = FleetSpec(devices=4, seed=1).replace(seed=2)
        assert (spec.devices, spec.seed) == (4, 2)
        serve = ServeConfig(data_dir="d").replace(port=9)
        assert (serve.data_dir, serve.port) == ("d", 9)

    def test_replace_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            SimulationConfig(seed=1).replace(not_a_field=2)
