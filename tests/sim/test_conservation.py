"""Conservation laws: every captured input must be accounted for exactly.

For any policy, any trace, any environment:

* interesting captures = IBO drops + false negatives + reported packets
  (high+low) + leftovers still buffered at run end;
* active uninteresting captures = IBO drops + true negatives + transmitted
  false positives + uninteresting leftovers.

These hold by construction in the engine; the property tests check them
over randomized scenarios and every policy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import QuetzalRuntime
from repro.env.events import EventScheduleGenerator
from repro.policies.always_degrade import AlwaysDegradePolicy
from repro.policies.buffer_threshold import BufferThresholdPolicy, catnap_policy
from repro.policies.noadapt import NoAdaptPolicy
from repro.policies.power_threshold import PowerThresholdPolicy
from repro.sim.engine import SimulationConfig, simulate
from repro.trace.synthetic import constant_trace, square_wave_trace
from repro.workload.pipelines import build_apollo_app


def assert_conserved(metrics):
    interesting_accounted = (
        metrics.ibo_drops_interesting
        + metrics.false_negatives
        + metrics.packets_interesting_high
        + metrics.packets_interesting_low
        + metrics.leftover_interesting
    )
    assert interesting_accounted == metrics.captures_interesting

    uninteresting_active = metrics.captures_active - metrics.captures_interesting
    uninteresting_accounted = (
        (metrics.ibo_drops - metrics.ibo_drops_interesting)
        + metrics.true_negatives
        + metrics.packets_uninteresting_high
        + metrics.packets_uninteresting_low
        + (metrics.leftover_total - metrics.leftover_interesting)
    )
    assert uninteresting_accounted == uninteresting_active

    # Stored + dropped = all active captures.
    assert metrics.stored + metrics.ibo_drops == metrics.captures_active


POLICIES = {
    "quetzal": QuetzalRuntime,
    "noadapt": NoAdaptPolicy,
    "always-degrade": AlwaysDegradePolicy,
    "catnap": catnap_policy,
    "threshold-50": lambda: BufferThresholdPolicy(0.5),
    "pz-idealized": lambda: PowerThresholdPolicy(0.5),
}


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_conservation_per_policy(policy_name):
    generator = EventScheduleGenerator(
        max_interesting_duration_s=40.0,
        duration_median_s=10.0,
        interarrival_median_s=10.0,
        diff_probability=0.6,
        background_diff_probability=0.2,
    )
    schedule = generator.generate(15, seed=3)
    metrics = simulate(
        build_apollo_app(),
        POLICIES[policy_name](),
        square_wave_trace(0.080, 0.004, 30.0),
        schedule,
        config=SimulationConfig(seed=4, drain_timeout_s=1500.0),
    )
    assert metrics.captures_interesting > 0
    assert_conserved(metrics)


@given(
    seed=st.integers(0, 10_000),
    power_mw=st.floats(2.0, 100.0),
    n_events=st.integers(1, 8),
    diff=st.floats(0.2, 1.0),
)
@settings(max_examples=15, deadline=None)
def test_conservation_randomized(seed, power_mw, n_events, diff):
    generator = EventScheduleGenerator(
        max_interesting_duration_s=30.0,
        duration_median_s=8.0,
        interarrival_median_s=8.0,
        diff_probability=diff,
        background_diff_probability=0.1,
    )
    schedule = generator.generate(n_events, seed=seed)
    metrics = simulate(
        build_apollo_app(),
        QuetzalRuntime(),
        constant_trace(power_mw * 1e-3),
        schedule,
        config=SimulationConfig(seed=seed + 1, drain_timeout_s=800.0),
    )
    assert_conserved(metrics)


def test_conservation_with_tiny_buffer():
    generator = EventScheduleGenerator(
        max_interesting_duration_s=30.0,
        duration_median_s=20.0,
        interarrival_median_s=5.0,
        diff_probability=1.0,
    )
    schedule = generator.generate(5, seed=0)
    metrics = simulate(
        build_apollo_app(),
        NoAdaptPolicy(),
        constant_trace(0.003),
        schedule,
        config=SimulationConfig(seed=1, buffer_capacity=2, drain_timeout_s=1000.0),
    )
    assert metrics.ibo_drops > 0
    assert_conserved(metrics)


def test_storage_bounds_throughout_run():
    """Telemetry-sampled stored energy never leaves [0, capacity]."""
    from repro.sim.engine import SimulationEngine
    from repro.sim.telemetry import TelemetryRecorder
    from repro.trace.synthetic import square_wave_trace

    generator = EventScheduleGenerator(
        max_interesting_duration_s=40.0,
        duration_median_s=15.0,
        interarrival_median_s=10.0,
        diff_probability=0.7,
    )
    telemetry = TelemetryRecorder()
    engine = SimulationEngine(
        build_apollo_app(),
        QuetzalRuntime(),
        square_wave_trace(0.2, 0.003, 25.0),
        generator.generate(10, seed=5),
        config=SimulationConfig(seed=6, drain_timeout_s=1500.0),
        tracer=telemetry,
    )
    engine.run()
    capacity = engine.storage.capacity_j
    assert telemetry.buffer_samples
    for sample in telemetry.buffer_samples:
        assert -1e-9 <= sample.stored_energy_j <= capacity + 1e-9


def test_conservation_with_infinite_buffer():
    generator = EventScheduleGenerator(
        max_interesting_duration_s=30.0,
        duration_median_s=10.0,
        interarrival_median_s=10.0,
        diff_probability=0.8,
    )
    schedule = generator.generate(8, seed=2)
    metrics = simulate(
        build_apollo_app(),
        NoAdaptPolicy(),
        constant_trace(0.050),
        schedule,
        config=SimulationConfig(seed=3, buffer_capacity=None, drain_timeout_s=2000.0),
    )
    assert metrics.ibo_drops == 0
    assert_conserved(metrics)
