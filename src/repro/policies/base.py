"""The policy interface between the simulation engine and adaptation logic.

The engine owns the physical world (time, energy, the buffer, captures) and
consults a :class:`Policy` at two points:

* on every capture — :meth:`Policy.on_capture` — so policies can track the
  input arrival rate exactly like Quetzal's firmware bit-vectors do;
* whenever the device is idle and the buffer is non-empty —
  :meth:`Policy.select` — to decide which job runs next, on which input,
  at which degradation options.

After a job finishes, :meth:`Policy.on_job_complete` feeds back the
realised timing and per-task execution bits, which Quetzal uses for its
PID error mitigation and probability trackers.

Policies report their per-invocation compute cost through
:meth:`Policy.invocation_cost`; the engine debits it from the energy store,
so adaptation overhead is part of every result, as in the paper's own
simulator (section 6.3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.scheduler import JobCandidate
from repro.device.buffer import BufferedInput
from repro.device.mcu import MCUProfile
from repro.workload.pipelines import JobOutcome
from repro.workload.task import DegradationOption

__all__ = ["SchedulingContext", "Decision", "CompletionRecord", "Policy"]


@dataclass(frozen=True)
class SchedulingContext:
    """Everything a policy may observe when making a decision.

    A context is only valid for the duration of the :meth:`Policy.select`
    call it is passed to — the engine may reuse the object for the next
    decision, so a policy that wants to keep any of it must copy the
    values out.

    Attributes
    ----------
    now_s:
        Current simulation time.
    candidates:
        Pending job types (each with its oldest/newest input); non-empty.
    buffer_occupancy / buffer_limit:
        Queue state; ``buffer_limit`` is ``None`` for the Ideal baseline's
        unbounded buffer.
    true_input_power_w:
        Ground-truth harvested power right now.  Policies with a
        measurement model (Quetzal's circuit) observe it through that
        model; simpler baselines read it directly (they would own an
        equivalent sensor).
    max_trace_power_w:
        The power trace's maximum level — the "oracular" knowledge that the
        idealized Zygarde/Protean variant (PZI) uses for its threshold.
    """

    now_s: float
    candidates: Sequence[JobCandidate]
    buffer_occupancy: int
    buffer_limit: int | None
    true_input_power_w: float
    max_trace_power_w: float


@dataclass(frozen=True)
class Decision:
    """A policy's answer: run ``job`` on ``entry`` at ``chosen_options``.

    Attributes
    ----------
    job_name:
        Name of the job to execute.
    entry:
        The buffered input it processes.
    chosen_options:
        Task-name → degradation option for every degradable task the job
        may run; absent tasks run at highest quality.
    predicted_service_s:
        The policy's E[S] prediction (``None`` for policies that do not
        predict).
    ibo_predicted / degraded:
        Diagnostics recorded into run metrics.
    """

    job_name: str
    entry: BufferedInput
    chosen_options: Mapping[str, DegradationOption] = field(default_factory=dict)
    predicted_service_s: float | None = None
    ibo_predicted: bool = False
    degraded: bool = False


_DECISION_NEW = object.__new__


def _make_decision(
    job_name: str,
    entry: BufferedInput,
    chosen_options: Mapping[str, DegradationOption],
    predicted_service_s: float | None = None,
    ibo_predicted: bool = False,
    degraded: bool = False,
) -> Decision:
    """Construct a :class:`Decision` on the per-job hot path.

    Field-for-field identical to calling ``Decision(...)``; it only skips
    the frozen dataclass's generated ``__init__`` (one ``object.__setattr__``
    round-trip per field), which is measurable at one decision per executed
    job.  Policies are free to use either spelling.
    """
    decision = _DECISION_NEW(Decision)
    d = decision.__dict__
    d["job_name"] = job_name
    d["entry"] = entry
    d["chosen_options"] = chosen_options
    d["predicted_service_s"] = predicted_service_s
    d["ibo_predicted"] = ibo_predicted
    d["degraded"] = degraded
    return decision


@dataclass(frozen=True)
class CompletionRecord:
    """Feedback delivered to the policy after a job completes.

    Attributes
    ----------
    decision:
        The decision that started this job.
    started_s / finished_s:
        Wall-clock span of the job, *including* recharge stalls and
        checkpoint overheads — i.e. the realised end-to-end service time.
    executed_by_task:
        Per task of the job: did it execute for this input?  (The bits the
        firmware appends to its execution windows, section 5.1.)
    outcome:
        The application-level outcome (classification, packet, respawn).
    task_spans:
        Wall-clock seconds each executed task actually took (including its
        recharge stalls) — the per-task S_e2e observations that feed the
        Avg-S_e2e baseline's history.
    """

    decision: Decision
    started_s: float
    finished_s: float
    executed_by_task: Mapping[str, bool]
    outcome: JobOutcome
    task_spans: Mapping[str, float] = field(default_factory=dict)

    @property
    def observed_service_s(self) -> float:
        """Realised end-to-end service time of the job."""
        return self.finished_s - self.started_s


class Policy(ABC):
    """Base class for all adaptation policies."""

    #: Name used in figures and metrics.
    name: str = "policy"

    #: Whether this policy's ratio math uses Quetzal's hardware module
    #: (affects the invocation cost charged by the engine).
    uses_hardware_module: bool = True

    #: Whether :attr:`CompletionRecord.task_spans` must be populated for
    #: this policy.  Policies whose completion hook never reads realised
    #: per-task spans (e.g. estimators with a no-op ``observe``) may set
    #: this False in :meth:`prepare`; the engine then skips timing every
    #: executed task.  Purely a work-avoidance hint — simulation results
    #: are identical either way.
    needs_task_spans: bool = True

    def prepare(self, jobs, capture_period_s: float) -> None:
        """One-time setup before a run (profiling phase, tracker sizing).

        ``jobs`` is the application's :class:`~repro.workload.job.JobSet`.
        The engine calls this exactly once before simulation starts.
        """

    def on_capture(self, now_s: float, stored: bool) -> None:
        """Observe one periodic capture (``stored`` = passed pre-filtering)."""

    @abstractmethod
    def select(self, context: SchedulingContext) -> Decision:
        """Choose the next job, input, and degradation options."""

    def on_job_complete(self, record: CompletionRecord) -> None:
        """Observe a completed job (timing, execution bits, outcome)."""

    def invocation_cost(self, mcu: MCUProfile) -> tuple[float, float]:
        """(time_s, energy_j) charged per :meth:`select` invocation.

        Baselines that make trivial decisions cost nothing; Quetzal and its
        ablations override this with the section 5.1 cost model.
        """
        return (0.0, 0.0)

    def reset(self) -> None:
        """Clear run-time state so the policy can be reused across runs."""
