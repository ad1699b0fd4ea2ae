"""Engine edge cases: capture periods, policy contracts, overhead charging."""

import pytest

from repro.core.runtime import QuetzalRuntime
from repro.device.buffer import BufferedInput
from repro.env.events import Event, EventSchedule
from repro.errors import SchedulingError, TraceError
from repro.policies.base import Decision, Policy, SchedulingContext
from repro.policies.noadapt import NoAdaptPolicy
from repro.sim.engine import SimulationConfig, SimulationEngine, simulate
from repro.trace.power_trace import PowerTrace
from repro.workload.pipelines import build_apollo_app


def one_event(duration=20.0, diff=1.0, background=0.0):
    return EventSchedule(
        [Event(5.0, duration, True)],
        diff_probability=diff,
        background_diff_probability=background,
    )


class TestCapturePeriods:
    @pytest.mark.parametrize("period", [0.5, 2.0, 5.0])
    def test_non_unit_periods(self, apollo_app, steady_trace, period):
        metrics = simulate(
            apollo_app, NoAdaptPolicy(), steady_trace, one_event(duration=20.0),
            config=SimulationConfig(
                seed=0, capture_period_s=period, drain_timeout_s=500.0
            ),
        )
        expected = len([t for t in _captures(period, 30.0) if 5.0 <= t < 25.0])
        assert metrics.captures_interesting == expected

    def test_faster_capture_more_inputs(self, apollo_app, steady_trace):
        slow = simulate(
            apollo_app, NoAdaptPolicy(), steady_trace, one_event(),
            config=SimulationConfig(seed=0, capture_period_s=4.0, drain_timeout_s=300.0),
        )
        fast = simulate(
            build_apollo_app(), NoAdaptPolicy(), steady_trace, one_event(),
            config=SimulationConfig(seed=0, capture_period_s=1.0, drain_timeout_s=300.0),
        )
        assert fast.captures_interesting > slow.captures_interesting


def _captures(period, until):
    t, out = period, []
    while t < until:
        out.append(t)
        t += period
    return out


class TestBackgroundActivity:
    def test_background_creates_uninteresting_load(self, apollo_app, steady_trace):
        sched = EventSchedule([], background_diff_probability=0.5)
        # No events at all, but background motion for the drain window? The
        # run ends immediately with no events; use one tiny event to extend.
        sched = EventSchedule(
            [Event(50.0, 1.0, False)],
            diff_probability=1.0,
            background_diff_probability=0.5,
        )
        metrics = simulate(
            apollo_app, NoAdaptPolicy(), steady_trace, sched,
            config=SimulationConfig(seed=2, drain_timeout_s=300.0),
        )
        # Background arrivals are never interesting.
        assert metrics.captures_active > 1
        assert metrics.captures_interesting == 0


class TestPolicyOverheadCharging:
    def test_quetzal_overhead_charged(self, steady_trace):
        metrics = simulate(
            build_apollo_app(), QuetzalRuntime(), steady_trace, one_event(),
            config=SimulationConfig(seed=0, drain_timeout_s=300.0),
        )
        assert metrics.policy_invocations > 0
        assert metrics.policy_time_s > 0
        assert metrics.policy_energy_j > 0

    def test_noadapt_overhead_free(self, apollo_app, steady_trace):
        metrics = simulate(
            apollo_app, NoAdaptPolicy(), steady_trace, one_event(),
            config=SimulationConfig(seed=0, drain_timeout_s=300.0),
        )
        assert metrics.policy_invocations > 0
        assert metrics.policy_time_s == 0.0

    def test_overhead_charging_disabled(self, steady_trace):
        metrics = simulate(
            build_apollo_app(), QuetzalRuntime(), steady_trace, one_event(),
            config=SimulationConfig(
                seed=0, drain_timeout_s=300.0, charge_policy_overhead=False
            ),
        )
        assert metrics.policy_time_s == 0.0


class _RogueJobPolicy(Policy):
    name = "rogue-job"

    def select(self, context: SchedulingContext) -> Decision:
        return Decision(job_name="nonexistent", entry=context.candidates[0].oldest)


class _RogueEntryPolicy(Policy):
    name = "rogue-entry"

    def select(self, context: SchedulingContext) -> Decision:
        foreign = BufferedInput(
            capture_time=0.0, interesting=False, job_name="detect", enqueue_time=0.0
        )
        return Decision(job_name="detect", entry=foreign)


class _MismatchedPolicy(Policy):
    name = "rogue-mismatch"

    def select(self, context: SchedulingContext) -> Decision:
        entry = context.candidates[0].oldest
        return Decision(job_name="transmit", entry=entry)


class TestDecisionValidation:
    @pytest.mark.parametrize(
        "policy_cls", [_RogueJobPolicy, _RogueEntryPolicy, _MismatchedPolicy]
    )
    def test_rogue_policies_rejected(self, apollo_app, steady_trace, policy_cls):
        engine = SimulationEngine(
            apollo_app, policy_cls(), steady_trace, one_event(),
            config=SimulationConfig(seed=0, drain_timeout_s=100.0),
        )
        with pytest.raises(SchedulingError):
            engine.run()


class TestSpawnLifecycle:
    def test_transmit_entries_appear_in_buffer(self, steady_trace):
        """Positive detections re-tag their entry for the transmit job."""

        seen_jobs = []

        class SpyPolicy(NoAdaptPolicy):
            def select(self, context):
                seen_jobs.extend(
                    c.job.name for c in context.candidates
                )
                return super().select(context)

        simulate(
            build_apollo_app(), SpyPolicy(), steady_trace, one_event(),
            config=SimulationConfig(seed=0, drain_timeout_s=300.0),
        )
        assert "detect" in seen_jobs
        assert "transmit" in seen_jobs


class _ConstantPowerTrace(PowerTrace):
    """A complete stateless ``PowerTrace`` that is not piecewise-constant."""

    def power(self, t):
        return 0.05

    def integrate(self, t0, t1):
        return 0.05 * (t1 - t0)

    def next_boundary(self, t):
        return float("inf")

    def time_to_harvest(self, t0, energy):
        return energy / 0.05


class TestUnsupportedTrace:
    def test_non_piecewise_trace_is_a_trace_error(self, apollo_app):
        """The engine's loops read TraceCursor internals, so any other
        trace type is rejected at construction with a typed error."""
        with pytest.raises(TraceError, match="PiecewiseConstantTrace"):
            SimulationEngine(
                apollo_app, NoAdaptPolicy(), _ConstantPowerTrace(), one_event()
            )
