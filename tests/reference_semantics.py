"""The simulator's readable reference semantics, kept as a test-only oracle.

``src/`` has one engine path and one Quetzal decision path, both written
for speed: fused span and recharge loops, inlined capture/insert/remove
bodies, reused candidates, and cached Eq.-1 score tables behind a
decision memo.  This module keeps the readable bodies those were
optimized from, so the differential tests can hold the product to them
with exact ``==`` (no ``approx``):

* :class:`ReferenceEngine` queries the stateless trace and schedule
  directly (no cursors), advances span by span through ``_account_span``,
  runs the general recharge loop on every trace, fires each capture
  through ``_do_capture``, builds a fresh context and candidate list for
  every decision, charging the policy's invocation cost uncached through
  ``_run_block``, and executes each job through ``_run_block`` and
  ``InputBuffer.remove``.
* :class:`ReferenceQuetzalRuntime` decides from the stateless components
  with no caches: one :meth:`IBOEngine.decide` per pending job, scored
  through the scheduler's callback, fed by
  :meth:`ArrivalRateTracker.record_capture`,
  :meth:`ExecutionProbabilityTracker.record_job` and
  :meth:`PIDController.update`.  Its decision-path work counters stay at
  zero, which is how tests prove the comparison ran uncached.

Every body here was moved from ``src/`` unchanged, except
``ReferenceEngine._execute_job``: ``src/`` never had a separate readable
copy of it, so it is the product's job loop with the run-block loop,
buffer removal, option count and record construction written as the
calls they inline.
"""

from __future__ import annotations

from repro.core.ibo import IBOEngine
from repro.core.runtime import QuetzalRuntime
from repro.core.scheduler import JobCandidate
from repro.errors import ConfigurationError
from repro.obs.events import TraceEvent
from repro.policies.base import CompletionRecord, Decision, SchedulingContext
from repro.sim.engine import _ENERGY_EPS, _OBJ_NEW, SimulationEngine
from repro.units import TIME_EPSILON

__all__ = [
    "ReferenceEngine",
    "ReferenceQuetzalRuntime",
    "reference_policy",
    "reference_simulate",
]


class ReferenceEngine(SimulationEngine):
    """:class:`SimulationEngine` with the readable reference time advance,
    recharge, capture, policy-invocation and job-execution bodies."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Stateless queries: every lookup re-bisects the trace/schedule.
        self._tq = self.trace
        self._sq = self.schedule

    # ---------------------------------------------------------- time advance --

    def _account_span(self, dt: float, p_in_w: float, draw_w: float) -> None:
        """Apply ``dt`` seconds of harvesting at ``p_in_w`` and draw at ``draw_w``."""
        if dt <= 0:
            return
        self.metrics.energy_consumed_j += draw_w * dt
        net = draw_w - p_in_w
        if net >= 0:
            self.storage.draw(net * dt)
            self.metrics.energy_harvested_j += p_in_w * dt
        else:
            stored = self.storage.harvest(-net * dt)
            self.metrics.energy_harvested_j += draw_w * dt + stored

    def _fire_due_captures(self) -> None:
        cap_period = self.config.capture_period_s
        limit = self.now + TIME_EPSILON
        idx = self._capture_index
        t = idx * cap_period
        while t <= limit:
            self._do_capture(t)
            idx = self._capture_index = idx + 1
            t = idx * cap_period

    def _advance_to(
        self, target_s: float, draw_w: float, stop_energy_j: float | None = None
    ) -> bool:
        """Pre-optimization `_advance_to`: the reference that the fused
        loop is pinned against."""
        while self.now < target_s - TIME_EPSILON:
            self._check_hard_end()
            boundary = min(
                target_s,
                self._next_capture_time(),
                self.trace.next_boundary(self.now),
                self.hard_end,
            )
            p_in = self.trace.power(self.now)
            net = draw_w - p_in
            if stop_energy_j is not None and net > 0:
                margin = self.storage.energy_j - stop_energy_j
                if margin <= _ENERGY_EPS:
                    return True
                t_depleted = self.now + margin / net
                if t_depleted < boundary - TIME_EPSILON:
                    self._account_span(t_depleted - self.now, p_in, draw_w)
                    self.now = t_depleted
                    self._fire_due_captures()
                    return True
            self._account_span(boundary - self.now, p_in, draw_w)
            self.now = boundary
            self._fire_due_captures()
        return False

    def _recharge_to_restart(self) -> None:
        """The general recharge loop on every trace (over the stateless
        trace, since ``_tq`` is the trace itself here)."""
        self._recharge_to_restart_general()

    def _run_block(self, duration_s: float, power_w: float) -> None:
        """Run a compute block intermittently, checkpointing across failures.

        The product inlines this loop in ``_invoke_policy``'s
        invocation-cost charge and in ``_execute_job``'s task loop.
        """
        remaining = duration_s
        reserve = self._ckpt_reserve
        threshold = self._ckpt_threshold
        storage = self.storage
        while remaining > TIME_EPSILON:
            if storage._energy <= threshold:
                # Not enough headroom to make progress: recharge first.
                self._recharge_to_restart()
            start = self.now
            depleted = self._advance_to(self.now + remaining, power_w, stop_energy_j=reserve)
            remaining -= self.now - start
            if depleted and remaining > TIME_EPSILON:
                self._power_failure()

    # ----------------------------------------------------------------- policy --

    def _build_candidates(self) -> list[JobCandidate]:
        job_of = self.app.jobs.job
        candidates = []
        for job_name, oldest, newest, count in self.buffer.pending_summary():
            candidate = _OBJ_NEW(JobCandidate)
            d = candidate.__dict__
            d["job"] = job_of(job_name)
            d["oldest"] = oldest
            d["newest"] = newest
            d["pending_count"] = count
            candidates.append(candidate)
        return candidates

    def _invoke_policy(self) -> Decision:
        buffer = self.buffer
        context = _OBJ_NEW(SchedulingContext)
        candidates = self._build_candidates()
        d = context.__dict__
        d["now_s"] = self.now
        d["candidates"] = candidates
        d["buffer_occupancy"] = len(buffer._entries)
        d["buffer_limit"] = buffer._capacity
        d["true_input_power_w"] = self.trace.power(self.now)
        d["max_trace_power_w"] = self._max_trace_power
        decision = self.policy.select(context)
        self._validate_decision(decision)
        if self.tracer is not None:
            job = self.app.jobs.job(decision.job_name)
            deg_task = job.degradable_task
            option = decision.chosen_options.get(deg_task.name, deg_task.highest_quality)
            self.tracer.emit(TraceEvent(self.now, "decision", data={
                "job": decision.job_name,
                "option": option.name,
                "degraded": decision.degraded,
                "ibo_predicted": decision.ibo_predicted,
                "predicted_service_s": decision.predicted_service_s,
            }))
            if decision.degraded:
                self.tracer.emit(TraceEvent(self.now, "degradation", data={
                    "job": decision.job_name,
                    "option": option.name,
                }))
        metrics = self.metrics
        metrics.policy_invocations += 1
        if decision.ibo_predicted:
            metrics.ibo_predictions += 1
        if self._charge_overhead:
            time_s, energy_j = self.policy.invocation_cost(self.mcu)
            if time_s > 0:
                metrics.policy_time_s += time_s
                metrics.policy_energy_j += energy_j
                self._run_block(time_s, energy_j / time_s)
        return decision


    # -------------------------------------------------------------------- jobs --

    def _execute_job(self, decision: Decision) -> None:
        """One job in the one-call-per-concept spelling: each task through
        ``_run_block``, the input through ``InputBuffer.remove``/``retag``,
        the option through ``RunMetrics.record_option_use``, and the
        completion record through its constructor, spans always timed."""
        entry = decision.entry
        plan = self.app.plan(
            decision.job_name, entry.interesting, decision.chosen_options, self.rng
        )
        started = self.now
        task_spans: dict[str, float] = {}
        for planned in plan.planned:
            if not planned.executes:
                continue
            cost = planned.option.cost
            if self._cost_jitter is not None:
                cost = self._cost_jitter.jittered(cost)
            t0 = self.now
            self._run_block(cost.t_exe_s, cost.p_exe_w)
            task_spans[planned.ref.task.name] = self.now - t0

        outcome = plan.outcome
        if outcome.remove_input:
            self.buffer.remove(entry)
        elif outcome.respawn_job is not None:
            self.buffer.retag(entry, outcome.respawn_job, enqueue_time=self.now)

        metrics = self.metrics
        metrics.jobs_completed += 1
        if decision.degraded:
            metrics.jobs_degraded += 1
        deg_task = plan.job.degradable_task
        chosen = decision.chosen_options.get(deg_task.name, deg_task.highest_quality)
        metrics.record_option_use(deg_task.name, chosen.name)
        if outcome.false_negative:
            metrics.false_negatives += 1
        elif outcome.classified_positive is False:
            metrics.true_negatives += 1
        if outcome.packet_quality is not None:
            self._record_packet(entry.interesting, outcome.packet_quality)

        if decision.predicted_service_s is not None:
            error = (self.now - started) - decision.predicted_service_s
            metrics.prediction_count += 1
            metrics.prediction_error_s += error
            metrics.prediction_abs_error_s += abs(error)

        if self._on_complete_hook is not None:
            self._on_complete_hook(CompletionRecord(
                decision=decision,
                started_s=started,
                finished_s=self.now,
                executed_by_task=plan.executed_by_task,
                outcome=outcome,
                task_spans=task_spans,
            ))


class ReferenceQuetzalRuntime(QuetzalRuntime):
    """:class:`QuetzalRuntime` deciding from the stateless components."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ibo_engine = IBOEngine()

    # -- observation hooks ---------------------------------------------------------

    def on_capture(self, now_s: float, stored: bool) -> None:
        if self._arrivals is None:
            raise ConfigurationError("QuetzalRuntime used before prepare()")
        self._arrivals.record_capture(stored)

    def on_job_complete(self, record: CompletionRecord) -> None:
        # Atomically append execution bits for all of the job's tasks
        # (section 5.1's bit-vector update rule).
        self._probabilities.record_job(record.executed_by_task)

        # Feed per-task realised service times to the estimator.
        if self._estimator_observes:
            job = self._require_jobs().job(record.decision.job_name)
            for ref in job.task_refs:
                if not record.executed_by_task.get(ref.task.name, False):
                    continue
                span = record.task_spans.get(ref.task.name)
                if span is None:
                    continue
                option = record.decision.chosen_options.get(
                    ref.task.name, ref.task.highest_quality
                )
                self.estimator.observe(ref.task, option, span)

        # PID error mitigation (section 4.3): error is observed - predicted.
        pid = self.pid
        if pid is not None and record.decision.predicted_service_s is not None:
            observed = record.finished_s - record.started_s  # observed_service_s
            error = observed - record.decision.predicted_service_s
            if self._last_completion_s is None:
                dt = max(observed, 1e-6)
            else:
                dt = max(record.finished_s - self._last_completion_s, 1e-6)
            pid.update(error, dt)
            if self._tracer is not None:
                self._tracer.emit(TraceEvent(record.finished_s, "pid_update", data={
                    "job": record.decision.job_name,
                    "error_s": error,
                    "dt_s": dt,
                    "output": pid._output,
                }))
        self._last_completion_s = record.finished_s

    # -- the decision procedure -------------------------------------------------------

    def select(self, context: SchedulingContext) -> Decision:
        self._require_jobs()
        if self._arrivals is None:
            raise ConfigurationError("QuetzalRuntime used before prepare()")

        # One input-power measurement per invocation (Alg. 1 line 1).
        self.estimator.begin_cycle(context.true_input_power_w)
        correction = self.pid.output if self.pid is not None else 0.0
        arrival_rate = self._arrivals.rate()

        # Each candidate is scored by its *realizable* E[S]: the service
        # time at the degradation option the IBO engine would choose for it
        # (Alg. 1 + Alg. 2 fused).  This reference recomputes everything via
        # the stateless IBOEngine and is the readable spec of a decision.
        ibo_by_job: dict[str, object] = {}

        def ibo_for(candidate: JobCandidate):
            cached = ibo_by_job.get(candidate.job.name)
            if cached is None:
                cached = self.ibo_engine.decide(
                    candidate.job,
                    arrival_rate=arrival_rate,
                    buffer_occupancy=context.buffer_occupancy,
                    buffer_limit=context.buffer_limit,
                    service_time_fn=self.estimator.service_time,
                    probability_fn=self._probabilities.probability,
                    correction_s=correction,
                )
                ibo_by_job[candidate.job.name] = cached
            return cached

        def scorer(candidate: JobCandidate) -> float:
            return ibo_for(candidate).predicted_service_s

        selection = self.scheduler.select(context.candidates, scorer)
        ibo = ibo_for(selection.candidate)

        return Decision(
            job_name=selection.job.name,
            entry=selection.entry,
            chosen_options={selection.job.degradable_task.name: ibo.option},
            predicted_service_s=ibo.predicted_service_s,
            ibo_predicted=ibo.ibo_predicted,
            degraded=ibo.degraded,
        )


def reference_policy(factory):
    """The oracle's counterpart of a policy factory: ``QuetzalRuntime``
    maps to :class:`ReferenceQuetzalRuntime`; every other policy has one
    decision body and is its own reference."""
    if factory is QuetzalRuntime:
        return ReferenceQuetzalRuntime
    return factory


def reference_simulate(app, policy, trace, schedule, **kwargs):
    """:func:`repro.sim.engine.simulate` on the :class:`ReferenceEngine`."""
    return ReferenceEngine(app, policy, trace, schedule, **kwargs).run()
