"""Edge cases of the cached decision path (runtime vs reference oracle).

The component-level edge cases (PID ``dt_s <= 0``, Little's-Law zero
rate / unbounded buffer, Alg. 2's fastest-option fallback) each have unit
tests against the stateless components; this module pins
:class:`QuetzalRuntime`'s *cached* decision path to the readable
:class:`ReferenceQuetzalRuntime` (``tests/reference_semantics.py``) at
exactly those corners, where a stale or mis-keyed score table would be
most likely to diverge:

* λ = 0 (empty arrival window) with free space, and with a full buffer
  (``0 >= 0`` still predicts an overflow);
* ``buffer_limit=None`` (the Ideal baseline's unbounded buffer);
* the degradation walk's fastest-option fallback when no option clears
  the predicted overflow;
* probability/PID churn between decisions (epoch invalidation).

Both runtimes share one ``JobSet`` so Decision equality is exact —
identical option objects, bit-identical floats.
"""

import pytest

from repro.core.pid import PIDController
from repro.core.runtime import QuetzalRuntime
from repro.core.scheduler import JobCandidate
from repro.device.buffer import BufferedInput
from repro.errors import ConfigurationError
from repro.policies.base import SchedulingContext
from repro.workload.pipelines import DETECT_JOB, ML_TASK, build_apollo_app
from tests.reference_semantics import ReferenceQuetzalRuntime

APP = build_apollo_app()
JOBS = APP.jobs


def make_runtime(fast: bool) -> QuetzalRuntime:
    """A prepared product runtime, or the oracle with ``fast=False``."""
    runtime = QuetzalRuntime() if fast else ReferenceQuetzalRuntime()
    runtime.prepare(JOBS, capture_period_s=1.0)
    return runtime


def detect_context(
    *,
    occupancy: int = 1,
    limit: int | None = 8,
    power_w: float = 0.05,
    now_s: float = 10.0,
) -> SchedulingContext:
    entry = BufferedInput(
        capture_time=now_s - 1.0,
        interesting=False,
        job_name=DETECT_JOB,
        enqueue_time=now_s - 1.0,
    )
    candidate = JobCandidate(
        job=JOBS.job(DETECT_JOB), oldest=entry, newest=entry, pending_count=occupancy
    )
    return SchedulingContext(
        now_s=now_s,
        candidates=[candidate],
        buffer_occupancy=occupancy,
        buffer_limit=limit,
        true_input_power_w=power_w,
        max_trace_power_w=0.2,
    )


def select_both(**context_kwargs):
    """The same single decision on the product and the oracle runtime."""
    ctx = detect_context(**context_kwargs)
    return [make_runtime(fast).select(ctx) for fast in (True, False)]


class TestZeroArrivalRate:
    """λ = 0: an empty arrival window, Little's Law's left edge."""

    def test_with_free_space_matches_reference(self):
        fast, reference = select_both(occupancy=1, limit=8)
        assert fast == reference
        assert fast.ibo_predicted is False
        assert fast.degraded is False

    def test_full_buffer_still_predicts_overflow(self):
        # growth = 0 >= free = 0: detection fires even with no arrivals,
        # and since *no* option can beat zero free space the walk falls
        # back to the fastest option — on both paths.
        fast, reference = select_both(occupancy=8, limit=8)
        assert fast == reference
        assert fast.ibo_predicted is True
        assert fast.degraded is True


class TestUnboundedBuffer:
    def test_never_predicts_overflow(self):
        fast, reference = select_both(occupancy=100, limit=None)
        assert fast == reference
        assert fast.ibo_predicted is False
        assert fast.degraded is False


class TestFastestOptionFallback:
    def test_walk_falls_back_to_fastest(self):
        """When nothing avoids the IBO, both paths pick min-S_e2e."""
        ml_task = JOBS.job(DETECT_JOB).degradable_task
        for decision in select_both(occupancy=8, limit=8):
            chosen = decision.chosen_options[ML_TASK]
            fastest = ml_task.fastest_option(lambda opt: opt.cost.t_exe_s)
            assert chosen is fastest
            assert decision.ibo_predicted is True

    def test_fallback_counts_a_degradation_walk(self):
        runtime = make_runtime(fast=True)
        runtime.select(detect_context(occupancy=8, limit=8))
        stats = runtime.decision_stats
        assert stats.degradation_walks == 1
        # The walk visited every option before falling back.
        ml_task = JOBS.job(DETECT_JOB).degradable_task
        assert stats.degradation_walk_steps == len(ml_task.options)


class TestCacheChurn:
    """State changes between decisions must invalidate, not stale-hit."""

    def test_power_token_change_matches_reference(self):
        fast_rt, ref_rt = make_runtime(True), make_runtime(False)
        for power in (0.01, 0.15, 0.01, 0.08, 0.15):
            ctx = detect_context(power_w=power)
            assert fast_rt.select(ctx) == ref_rt.select(ctx)

    def test_arrival_window_change_matches_reference(self):
        fast_rt, ref_rt = make_runtime(True), make_runtime(False)
        for i, stored in enumerate([True, True, False, True]):
            fast_rt.on_capture(float(i), stored)
            ref_rt.on_capture(float(i), stored)
            ctx = detect_context(now_s=float(i) + 0.5)
            assert fast_rt.select(ctx) == ref_rt.select(ctx)

    def test_repeat_decision_hits_cache(self):
        runtime = make_runtime(fast=True)
        ctx = detect_context()
        first = runtime.select(ctx)
        second = runtime.select(ctx)
        assert first == second
        stats = runtime.decision_stats
        assert stats.decisions == 2
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1


class TestPIDEdges:
    def test_pid_rejects_zero_dt(self):
        with pytest.raises(ConfigurationError):
            PIDController().update(1.0, dt_s=0.0)

    def test_simultaneous_completions_use_floored_dt(self):
        """Two completions at the same timestamp must not feed dt=0 into
        the PID (the runtime floors dt at 1 µs on both paths)."""
        from repro.policies.base import CompletionRecord
        from repro.workload.pipelines import JobOutcome

        for fast in (True, False):
            runtime = make_runtime(fast)
            decision = runtime.select(detect_context())
            record = CompletionRecord(
                decision=decision,
                started_s=10.0,
                finished_s=12.5,
                executed_by_task={ML_TASK: True},
                outcome=JobOutcome(remove_input=True, classified_positive=False),
            )
            runtime.on_job_complete(record)
            runtime.on_job_complete(record)  # same finished_s: dt would be 0
            assert runtime.pid.output == runtime.pid.output  # finite, no raise


class TestSelectEntryPoint:
    """``select`` is the cached decision path itself; there is no toggle."""

    def test_select_is_the_cached_path(self):
        # perfbench/tracing.py wraps ``_select_fast`` by name: it must stay
        # the class's ``select``, and no per-instance alias may shadow it.
        assert QuetzalRuntime.__dict__["_select_fast"] is QuetzalRuntime.__dict__["select"]
        runtime = make_runtime(fast=True)
        assert "select" not in runtime.__dict__
        runtime.select(detect_context())
        stats = runtime.decision_stats
        assert stats.decisions == 1
        assert stats.cache_hits + stats.cache_misses == stats.scored_candidates == 1

    def test_oracle_select_does_no_cache_work(self):
        runtime = make_runtime(fast=False)
        runtime.select(detect_context())
        for field in (
            "decisions",
            "cache_hits",
            "cache_misses",
            "scored_candidates",
            "score_table_rebuilds",
        ):
            assert getattr(runtime.decision_stats, field) == 0, field
