"""The Quetzal runtime: scheduler + IBO engine + trackers + PID + circuit.

This is the system a programmer links into their application (paper
Figure 4): it owns the energy-aware SJF scheduler (Alg. 1), the
IBO-detection and reaction engine (Alg. 2), the bit-vector trackers for
input arrival rate and task execution probability (section 5.1), the PID
prediction-error mitigation (section 4.3), and a service-time estimator —
by default the hardware-assisted one backed by the measurement circuit.

The same class, composed with different schedulers or estimators, realises
the section 7.3 ablations (FCFS/LCFS scheduling, Avg-S_e2e estimation), so
"Quetzal with policy X" in Figure 12 is literally this runtime with a
different :class:`~repro.core.scheduler.Scheduler` injected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.ibo import IBODecision
from repro.core.pid import PIDController
from repro.core.scheduler import EnergyAwareSJF, JobCandidate, Scheduler
from repro.core.service_time import (
    HardwareServiceTimeEstimator,
    ServiceTimeEstimator,
)
from repro.core.trackers import (
    ArrivalRateTracker,
    BitVectorWindow,
    ExecutionProbabilityTracker,
)
from repro.device.mcu import MCUProfile
from repro.errors import ConfigurationError, SchedulingError
from repro.hardware.costs import scheduler_invocation_cost
from repro.policies.base import (
    CompletionRecord,
    Decision,
    Policy,
    SchedulingContext,
    _make_decision,
)
from repro.workload.job import Job, JobSet

__all__ = ["QuetzalRuntime"]

#: Table 1's window sizes.
DEFAULT_TASK_WINDOW = 64
DEFAULT_ARRIVAL_WINDOW = 256

#: Sentinel meaning "construct a fresh default PID controller".
_DEFAULT_PID = object()

_OBJ_NEW = object.__new__


def _make_ibo(
    option, ibo_predicted, ibo_avoided, predicted_service_s, degraded
) -> IBODecision:
    """Field-for-field identical to ``IBODecision(...)``, skipping the
    frozen dataclass's generated ``__init__`` (one ``object.__setattr__``
    per field) — built once per decision-memo miss on the hot path."""
    ibo = _OBJ_NEW(IBODecision)
    d = ibo.__dict__
    d["option"] = option
    d["ibo_predicted"] = ibo_predicted
    d["ibo_avoided"] = ibo_avoided
    d["predicted_service_s"] = predicted_service_s
    d["degraded"] = degraded
    return ibo


@dataclass
class DecisionPathStats:
    """Work counters for :class:`QuetzalRuntime`'s cached decision path.

    They count implementation work, not simulated behaviour: the engine
    copies the five it reports (cache hits/misses, scored candidates,
    degradation walks and walk steps) onto
    :class:`~repro.sim.metrics.RunMetrics` at the end of a run, the one
    record of them downstream.

    ``decisions`` counts Alg. 1 invocations and ``score_table_rebuilds``
    the Eq.-1 score tables recomputed because the estimator state or a
    probability window changed; a memo miss whose table was still valid
    skips that cost, so ``cache_misses - score_table_rebuilds`` is the
    work the table cache saved.  ``degradation_walks`` counts misses whose
    IBO detection fired and ``degradation_walk_steps`` the options those
    Alg. 2 walks stepped through.
    """

    decisions: int = 0
    scored_candidates: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    score_table_rebuilds: int = 0
    degradation_walks: int = 0
    degradation_walk_steps: int = 0


class _JobDecisionPlan:
    """Per-job constants and caches for the decision path.

    Built once in :meth:`QuetzalRuntime.prepare`, a plan flattens the
    job-structure lookups Algorithm 2 repeats every decision — the
    degradable task, its quality-ordered option tuple, and the
    (task, highest-option, conditional) terms of the non-degradable E[S]
    sum — and carries two single-slot caches:

    * ``rows`` — Eq.-1 score tables ``(non_deg_e_s, deg_prob, s_times)``
      keyed by estimator token.  When the (monotonic, global) probability
      epoch moves, the plan revalidates cheaply: the current values of the
      probabilities its rows actually depend on (``conditional_names``)
      are compared against ``probs_key``, and ``rows`` is cleared only
      when they really changed — a bump caused by some *other* job's task
      window leaves this plan's tables intact.  The hardware estimator
      has at most 256 tokens (the 8-bit V_D1 code), so a varying trace
      revisits old codes and finds their tables still cached;
    * ``memo_key``/``memo_ibo`` — the last full :class:`IBODecision`,
      keyed additionally on (λ, free buffer space, PID correction).
      Single-slot by design: the PID correction moves on nearly every
      completion, so a dict keyed on full tuples would grow with the run;
      one slot still catches correction-free configurations (``pid=None``
      ablations, saturated-clamp stretches).
    """

    __slots__ = (
        "deg_task",
        "deg_task_name",
        "deg_conditional",
        "options",
        "non_deg_terms",
        "conditional_names",
        "rows",
        "svc_rows",
        "rows_epoch",
        "probs_key",
        "memo_key",
        "memo_ibo",
    )

    def __init__(self, job: Job) -> None:
        deg_ref = job.degradable_ref
        self.deg_task = deg_ref.task
        self.deg_task_name = deg_ref.task.name
        self.deg_conditional = deg_ref.conditional
        self.options = tuple(deg_ref.task.options)
        self.non_deg_terms = tuple(
            (ref.task, ref.task.highest_quality, ref.conditional)
            for ref in job.non_degradable_refs
        )
        # Every probability input a score row depends on, in a fixed
        # order — the epoch-moved revalidation compares their current
        # values against ``probs_key``.
        names = [task.name for task, _, cond in self.non_deg_terms if cond]
        if self.deg_conditional:
            names.append(self.deg_task_name)
        self.conditional_names = tuple(names)
        self.invalidate()

    def invalidate(self) -> None:
        """Drop all caches (run reset; epoch counters restart at 0)."""
        self.rows: dict = {}
        # Estimator-only halves of the rows (per-task service times + the
        # degradable S_e2e vector), keyed by token alone: probability
        # changes drop `rows` but never these, so a re-assembly is pure
        # arithmetic with no estimator calls.
        self.svc_rows: dict = {}
        self.rows_epoch = -1
        self.probs_key: tuple | None = None
        self.memo_key = None
        self.memo_ibo = None


class QuetzalRuntime(Policy):
    """Quetzal as a schedulable policy.

    Parameters
    ----------
    scheduler:
        Job-selection policy; default is the paper's Energy-aware SJF.
    estimator:
        Service-time estimator; default is the hardware-assisted one (the
        production configuration).  Pass an
        :class:`~repro.core.service_time.AverageServiceTimeEstimator` to get
        the Avg-S_e2e baseline, or an exact estimator for ablations.
    task_window / arrival_window:
        Bit-vector window sizes (Table 1 defaults: 64 and 256).
    pid:
        PID controller for prediction-error mitigation; pass ``None`` to
        disable (ablation).  Defaults to the paper's constants.
    name:
        Display name; defaults to "quetzal" (for ablations, pass e.g.
        "quetzal-fcfs").
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        estimator: ServiceTimeEstimator | None = None,
        task_window: int = DEFAULT_TASK_WINDOW,
        arrival_window: int = DEFAULT_ARRIVAL_WINDOW,
        pid: PIDController | None | object = _DEFAULT_PID,
        name: str = "quetzal",
    ) -> None:
        self.name = name
        self.scheduler = scheduler or EnergyAwareSJF()
        self.estimator = estimator or HardwareServiceTimeEstimator()
        if pid is _DEFAULT_PID:
            # Paper gains (Table 1) with a filtered derivative and a clamped
            # output: corrections beyond a few seconds would swamp E[S] for
            # the sub-second degraded tasks this controller protects.
            pid = PIDController(
                output_limits=(-2.0, 2.0), derivative_tau_s=5.0
            )
        self.pid: PIDController | None = pid  # type: ignore[assignment]
        self.task_window = task_window
        self.arrival_window = arrival_window
        self.uses_hardware_module = isinstance(
            self.estimator, HardwareServiceTimeEstimator
        )
        self._jobs: JobSet | None = None
        self._num_tasks = 0
        self._options_per_task = 0
        self._arrivals: ArrivalRateTracker | None = None
        self._probabilities = ExecutionProbabilityTracker(task_window)
        self._last_completion_s: float | None = None
        self._plans: dict[str, _JobDecisionPlan] = {}
        self._sjf_inline = False
        self._est_is_hw = False
        self._estimator_observes = True
        self._cost_cache: tuple[MCUProfile, tuple[float, float]] | None = None
        # Hot-path bindings refreshed by _rebind_hot_refs() whenever the
        # underlying objects are (re)created.
        self._cache_token = self.estimator.cache_token
        self._arr_window = None
        self._arr_period = 1.0
        #: Work counters for the decision path (harvested into RunMetrics
        #: at the end of a run).
        self.decision_stats = DecisionPathStats()
        #: Trace sink handed over by the engine (SimulationEngine(tracer=...))
        #: so PID corrections land in the same event stream.
        self._tracer = None

    # -- lifecycle ---------------------------------------------------------------

    def prepare(self, jobs: JobSet, capture_period_s: float) -> None:
        self._jobs = jobs
        tasks = jobs.all_tasks()
        self._num_tasks = len(tasks)
        self._options_per_task = jobs.max_options_per_task()
        self.estimator.profile(tasks)
        self._arrivals = ArrivalRateTracker(self.arrival_window, capture_period_s)
        self._plans = {job.name: _JobDecisionPlan(job) for job in jobs}
        self.decision_stats = DecisionPathStats()
        # select() inlines the stock EASJF argmin (subclasses keep the
        # scorer-callback protocol); estimators with the base no-op observe
        # skip the per-completion feedback loop entirely.
        self._sjf_inline = type(self.scheduler) is EnergyAwareSJF
        self._est_is_hw = type(self.estimator) is HardwareServiceTimeEstimator
        self._estimator_observes = (
            type(self.estimator).observe is not ServiceTimeEstimator.observe
        )
        # Only estimators that consume realised spans need the engine to
        # time every executed task (see Policy.needs_task_spans).
        self.needs_task_spans = self._estimator_observes
        self._cost_cache = None
        self._rebind_hot_refs()

    def _rebind_hot_refs(self) -> None:
        """Re-cache bound references used on the per-decision hot path."""
        self._cache_token = self.estimator.cache_token
        if self._arrivals is not None:
            self._arr_window = self._arrivals.window
            self._arr_period = self._arrivals.capture_period_s

    def attach_tracer(self, tracer) -> None:
        """Receive the engine's :class:`repro.obs.TraceSink` for the run.

        The runtime emits one ``pid_update`` event per absorbed service-time
        error sample; everything else about the decision path is already
        visible through the engine's own events.
        """
        self._tracer = tracer

    def reset(self) -> None:
        if self._arrivals is not None:
            self._arrivals = ArrivalRateTracker(
                self.arrival_window, self._arrivals.capture_period_s
            )
        self._probabilities = ExecutionProbabilityTracker(self.task_window)
        if self.pid is not None:
            self.pid.reset()
        self._last_completion_s = None
        # Epoch counters restart with the trackers/PID, so cached rows keyed
        # on the old epochs must not survive into the next run.
        for plan in self._plans.values():
            plan.invalidate()
        self.decision_stats = DecisionPathStats()
        self._rebind_hot_refs()

    # -- observation hooks ---------------------------------------------------------

    def on_capture(self, now_s: float, stored: bool) -> None:
        win = self._arr_window
        if win is None:
            raise ConfigurationError("QuetzalRuntime used before prepare()")
        # ArrivalRateTracker.record_capture + BitVectorWindow.append
        # replicated inline — this fires once per capture tick, the single
        # hottest policy hook.  Same state transitions and the same
        # changed-fraction signal (the differential tests hold the runtime
        # to the tracker-based reference in tests/reference_semantics.py).
        bit = bool(stored)
        bits = win._bits
        filled = len(bits)
        if filled == win._size:
            evicted = bits[0]
            changed = bit != evicted
            if evicted:
                win._ones -= 1
        else:
            changed = filled == 0 or win._ones != (filled if bit else 0)
        bits.append(bit)
        if bit:
            win._ones += 1
        if changed:
            self._arrivals._epoch += 1

    def on_job_complete(self, record: CompletionRecord) -> None:
        # Atomically append execution bits for all of the job's tasks
        # (section 5.1's bit-vector update rule).
        probabilities = self._probabilities
        # ExecutionProbabilityTracker.record_job + BitVectorWindow.append
        # replicated inline (fires once per completed job); same state
        # transitions and the same changed-fraction epoch signal.
        windows = probabilities._windows
        size = probabilities._window_size
        for task_name, executed in record.executed_by_task.items():
            window = windows.get(task_name)
            if window is None:
                window = windows[task_name] = BitVectorWindow(size)
            bit = bool(executed)
            bits = window._bits
            filled = len(bits)
            if filled == size:
                evicted = bits[0]
                changed = bit != evicted
                if evicted:
                    window._ones -= 1
            else:
                changed = filled == 0 or window._ones != (
                    filled if bit else 0
                )
            bits.append(bit)
            if bit:
                window._ones += 1
            if changed:
                probabilities._epoch += 1

        # Feed per-task realised service times to the estimator — skipped
        # outright for estimators that keep the base no-op observe (the
        # production hardware estimator and the exact one), for which the
        # loop below would change nothing.
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
            # PIDController.update replicated inline (fires once per
            # completed job): the same guards, clamps, and float
            # operations in the same order, with the attribute traffic
            # hoisted — bit-identical by construction, pinned against
            # PIDController.update by the differential tests.  dt > 0 is
            # guaranteed by the 1 µs floor above.
            if not math.isfinite(error):
                raise ConfigurationError(
                    f"error must be finite, got {error}"
                )
            prev = pid._previous_error
            integral = pid._integral + 0.5 * pid.ki * dt * (
                error + (prev if prev is not None else error)
            )
            limits = pid.output_limits
            if limits is not None:
                low, high = limits
                integral = min(max(integral, low), high)
            pid._integral = integral
            raw_derivative = (
                0.0 if prev is None else (error - prev) / dt
            )
            tau = pid.derivative_tau_s
            if tau > 0:
                derivative = pid._derivative
                derivative += (dt / (tau + dt)) * (
                    raw_derivative - derivative
                )
            else:
                derivative = raw_derivative
            pid._derivative = derivative
            output = pid.kp * error + integral + pid.kd * derivative
            if limits is not None:
                output = min(max(output, low), high)
            pid._previous_error = error
            if output != pid._output:
                pid._epoch += 1
            pid._output = output
            if self._tracer is not None:
                from repro.obs.events import TraceEvent

                self._tracer.emit(TraceEvent(record.finished_s, "pid_update", data={
                    "job": record.decision.job_name,
                    "error_s": error,
                    "dt_s": dt,
                    "output": pid._output,
                }))
        self._last_completion_s = record.finished_s

    # -- the decision procedure -------------------------------------------------------

    def select(self, context: SchedulingContext) -> Decision:
        """Alg. 1 + Alg. 2 fused, at constant amortized cost.

        Each candidate is scored by its *realizable* E[S]: the service time
        at the degradation option the IBO engine would choose for it.
        Scoring at nominal quality instead would make SJF permanently defer
        a job whose degraded form is actually the shortest available work —
        letting its inputs camp in the buffer.  The simulated invocation
        cost charges for evaluating every degradation option of every
        pending job (section 5.1: num_tasks + num_degradation_options),
        whatever the caches below save in wall time.

        The decision equals the stateless composition of
        :class:`~repro.core.ibo.IBOEngine`, the trackers and the scheduler
        (``tests/reference_semantics.py`` spells it out; the differential
        tests hold the two equal): every float comes from the same
        operations in the same order (the estimator's
        ``service_time_vector`` contract, the `non_deg + deg_prob * s +
        correction` association of ``IBOEngine.decide``, and ``growth >=
        free`` detection), only their *re*-computation is skipped when the
        epoch-stamped keys of the per-job score tables and decision memo
        prove the inputs unchanged.
        """
        win = self._arr_window
        if win is None:
            raise ConfigurationError("QuetzalRuntime used before prepare()")
        # Preamble: one input-power measurement per invocation (Alg. 1
        # line 1), the PID correction and the arrival rate, with the
        # property/method indirections flattened (``rate()`` is
        # fraction/period; ``output`` reads ``_output``).
        if self._est_is_hw:
            # HardwareServiceTimeEstimator.begin_cycle + cache_token
            # replicated inline (exact type checked at prepare() time, so
            # overrides never land here): same skip-if-unchanged
            # quantisation, two method calls fewer per decision.
            est = self.estimator
            p_in = context.true_input_power_w
            if p_in != est._last_power_w:
                est._v_d1_code = est.monitor.measure_input_power(p_in)
                est._last_power_w = p_in
            token = est._v_d1_code
        else:
            self.estimator.begin_cycle(context.true_input_power_w)
            token = self._cache_token()
        pid = self.pid
        correction = pid._output if pid is not None else 0.0
        bits = win._bits
        arrival_rate = (
            (win._ones / len(bits)) if bits else 0.0
        ) / self._arr_period
        stats = self.decision_stats
        stats.decisions += 1
        prob_epoch = self._probabilities._epoch
        limit = context.buffer_limit
        if limit is None:
            free = math.inf
        else:
            free = max(0.0, float(limit - context.buffer_occupancy))
        key = (token, prob_epoch, arrival_rate, free, correction)
        plans = self._plans

        if self._sjf_inline:
            # Stock EASJF: fuse cache lookup, scoring, and the argmin into
            # one loop over the candidates — no scorer closures, no
            # Selection object.  Semantics replicate EnergyAwareSJF.select
            # exactly: each candidate scored once, NaN rejected, ties on
            # E[S] broken toward the older input, first minimum wins.
            best: JobCandidate | None = None
            best_ibo: IBODecision | None = None
            best_score = 0.0
            best_age = 0.0
            for candidate in context.candidates:
                plan = plans[candidate.job.name]
                if token is not None and plan.memo_key == key:
                    stats.cache_hits += 1
                    ibo = plan.memo_ibo
                else:
                    stats.cache_misses += 1
                    # Happy path inlined: a valid cached row whose
                    # detection comes back clean (the overwhelmingly
                    # common case) short-circuits _decide_fast entirely.
                    row = (
                        plan.rows.get(token)
                        if token is not None and plan.rows_epoch == prob_epoch
                        else None
                    )
                    if row is not None:
                        non_deg, deg_prob, s_times = row
                        e_s = max(
                            0.0, non_deg + deg_prob * s_times[0] + correction
                        )
                        if not (arrival_rate * e_s >= free):
                            ibo = _make_ibo(
                                plan.options[0], False, True, e_s, False
                            )
                        else:
                            ibo = self._decide_fast(
                                plan, token, prob_epoch,
                                arrival_rate, free, correction,
                            )
                    else:
                        ibo = self._decide_fast(
                            plan, token, prob_epoch,
                            arrival_rate, free, correction,
                        )
                    if token is not None:
                        plan.memo_key = key
                        plan.memo_ibo = ibo
                stats.scored_candidates += 1
                score = ibo.predicted_service_s
                if score != score:  # math.isnan, without the call
                    raise SchedulingError(
                        f"E[S] score for job {candidate.job.name!r} is NaN"
                    )
                if best is None or score < best_score or (
                    score == best_score
                    and candidate.oldest.capture_time < best_age
                ):
                    best = candidate
                    best_ibo = ibo
                    best_score = score
                    best_age = candidate.oldest.capture_time
            if best is None:
                raise SchedulingError("select() called with no pending jobs")
            return _make_decision(
                best.job.name,
                best.oldest,
                {plans[best.job.name].deg_task_name: best_ibo.option},
                best_ibo.predicted_service_s,
                best_ibo.ibo_predicted,
                best_ibo.degraded,
            )

        # Injected scheduler (FCFS/LCFS ablations, custom subclasses): keep
        # the scorer-callback protocol, with a per-decision memo layered
        # over the per-job cross-decision memo so hit/miss counters record
        # each (decision, job) pair exactly once.
        local: dict[str, IBODecision] = {}

        def ibo_for(job_name: str) -> IBODecision:
            ibo = local.get(job_name)
            if ibo is not None:
                return ibo
            plan = plans[job_name]
            if token is not None and plan.memo_key == key:
                stats.cache_hits += 1
                ibo = plan.memo_ibo
            else:
                stats.cache_misses += 1
                ibo = self._decide_fast(
                    plan, token, prob_epoch, arrival_rate, free, correction
                )
                if token is not None:
                    plan.memo_key = key
                    plan.memo_ibo = ibo
            local[job_name] = ibo
            return ibo

        def scorer(candidate: JobCandidate) -> float:
            stats.scored_candidates += 1
            return ibo_for(candidate.job.name).predicted_service_s

        selection = self.scheduler.select(context.candidates, scorer)
        job_name = selection.candidate.job.name
        ibo = ibo_for(job_name)
        return _make_decision(
            job_name,
            selection.entry,
            {plans[job_name].deg_task_name: ibo.option},
            ibo.predicted_service_s,
            ibo.ibo_predicted,
            ibo.degraded,
        )

    #: ``perfbench/tracing.py`` wraps both ``select`` and ``_select_fast``
    #: from the class ``__dict__``; this alias keeps the second name.
    _select_fast = select

    def _decide_fast(
        self,
        plan: _JobDecisionPlan,
        token: object | None,
        prob_epoch: int,
        arrival_rate: float,
        free: float,
        correction: float,
    ) -> IBODecision:
        """Algorithm 2 over the plan's flat score table.

        The score row — the Eq.-1 S_e2e vector of the degradable task, the
        non-degradable E[S] sum, and the execution probability — depends
        only on (estimator token, this plan's probability values), so rows
        are cached per token; when the (monotonic, global) probability
        epoch moves, the plan's own probability inputs are re-read and the
        rows dropped only if they actually changed.  A row rebuild is pure
        arithmetic over the estimator-only ``svc_rows`` half (itself keyed
        by token alone and consulted at most once per estimator state).
        The walk itself is then one multiply + add + max and one
        Little's-Law comparison per option.
        """
        rows = plan.rows
        row = None
        if token is not None:
            if plan.rows_epoch != prob_epoch:
                # The global probability epoch moved, but it covers every
                # task window — this plan's rows survive iff the handful of
                # probability values *they* depend on are in fact unchanged
                # (O(1) fraction reads, far cheaper than a rebuild).
                plan.rows_epoch = prob_epoch
                probability = self._probabilities.probability
                probs = tuple(probability(n) for n in plan.conditional_names)
                if probs != plan.probs_key:
                    plan.probs_key = probs
                    rows.clear()
            row = rows.get(token)
        if row is None:
            self.decision_stats.score_table_rebuilds += 1
            svc = plan.svc_rows.get(token) if token is not None else None
            if svc is None:
                # First sight of this estimator state: the only place the
                # estimator itself is consulted.
                service_time = self.estimator.service_time
                svc_times = tuple(
                    service_time(task, highest)
                    for task, highest, _ in plan.non_deg_terms
                )
                s_times = self.estimator.service_time_vector(plan.deg_task)
                svc = (svc_times, s_times)
                if token is not None:
                    if len(plan.svc_rows) >= 4096:
                        # Safety bound for continuous tokens (e.g. the
                        # exact estimator's raw float P_in); the 8-bit
                        # hardware code never gets near it.
                        plan.svc_rows.clear()
                    plan.svc_rows[token] = svc
            else:
                svc_times, s_times = svc
            probability = self._probabilities.probability
            non_deg = 0.0
            i = 0
            for task, highest, conditional in plan.non_deg_terms:
                prob = probability(task.name) if conditional else 1.0
                non_deg += prob * svc_times[i]
                i += 1
            deg_prob = (
                probability(plan.deg_task_name) if plan.deg_conditional else 1.0
            )
            row = (non_deg, deg_prob, s_times)
            if token is not None:
                if len(rows) >= 4096:
                    rows.clear()
                rows[token] = row
        else:
            non_deg, deg_prob, s_times = row

        # Detection (Alg. 2 line 6).  max(0.0, …) also absorbs a NaN from
        # 0 * inf exactly as IBOEngine's corrected_e_s does.
        e_s = max(0.0, non_deg + deg_prob * s_times[0] + correction)
        if not (arrival_rate * e_s >= free):
            return _make_ibo(plan.options[0], False, True, e_s, False)

        # Reaction walk (Alg. 2 lines 8-19) over the flat S_e2e vector.
        stats = self.decision_stats
        stats.degradation_walks += 1
        options = plan.options
        steps = 0
        for i, s_i in enumerate(s_times):
            steps += 1
            e_s_i = max(0.0, non_deg + deg_prob * s_i + correction)
            if not (arrival_rate * e_s_i >= free):
                stats.degradation_walk_steps += steps
                return _make_ibo(options[i], True, True, e_s_i, i > 0)
        stats.degradation_walk_steps += steps

        # Fallback: minimise S_e2e (first minimum wins, like min()).
        best_i = 0
        best_s = s_times[0]
        for i in range(1, len(s_times)):
            if s_times[i] < best_s:
                best_i = i
                best_s = s_times[i]
        return _make_ibo(
            options[best_i],
            True,
            False,
            max(0.0, non_deg + deg_prob * s_times[best_i] + correction),
            best_i > 0,
        )

    # -- cost model ---------------------------------------------------------------------

    def invocation_cost(self, mcu: MCUProfile) -> tuple[float, float]:
        if self._num_tasks == 0:
            return (0.0, 0.0)
        # The section 5.1 cost model depends only on profile-time constants,
        # but the engine asks on every decision; memoize per MCU profile.
        cached = self._cost_cache
        if cached is not None and cached[0] is mcu:
            return cached[1]
        cost = scheduler_invocation_cost(
            mcu,
            num_tasks=self._num_tasks,
            options_per_task=self._options_per_task,
            use_module=self.uses_hardware_module,
        )
        self._cost_cache = (mcu, cost)
        return cost

    # -- internals ------------------------------------------------------------------------

    def _require_jobs(self) -> JobSet:
        if self._jobs is None:
            raise ConfigurationError("QuetzalRuntime used before prepare()")
        return self._jobs
