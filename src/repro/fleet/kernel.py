"""Vectorized fleet kernel: a dense packed-state lockstep engine for shards.

``run_fleet`` advances one scalar :class:`~repro.sim.engine.SimulationEngine`
per device, so fleet cost scales as devices x simulated seconds of pure
Python.  This module advances a whole shard of *baseline-policy* devices in
lockstep instead.  Per-device state lives in four row-major hot-state
matrices (float64 / int64 / int8 / bool), one row per field, one column per
live lane; handler fields are views of those rows, so every handler touches
a handful of contiguous slabs instead of ~15 scattered arrays.

The CTRL/ADV/RECHG handlers run *dense*: full-width elementwise arithmetic
over all live columns plus ``np.copyto(..., where=mask)`` stores, rather
than fancy-index gather/scatter over the live subset.  Dense ops cost one
pass over the columns regardless of how many lanes are in the state, which
beats gathers once each state holds a reasonable fraction of lanes — and
the batch *compacts* (harvests finished columns and shrinks every matrix)
as lanes die, so full width tracks the live population and the longest-
lived stragglers no longer drag near-empty rounds.  The old fixed
``D // 64`` scalar-handoff cutoff is replaced by an *adaptive* one
(``_should_handoff``): stragglers finish in-kernel unless the measured
live-width decay shows the tail has both shrunk below 1/64 of the batch
and stopped completing, in which case the survivors are handed to the
scalar engine.

The contract is the same one ``tests/sim/test_fast_paths.py`` pins for the
scalar engine's fast paths: **bit-identical** :class:`RunMetrics`, not
approximately equal.  Three facts make that reachable:

* elementwise numpy float64 arithmetic is IEEE-identical to the equivalent
  Python-float expression, so replaying the scalar engine's per-span
  operations (same operands, same order) in arrays reproduces its floats —
  and masked full-width compute keeps this property, because masked-out
  columns' results (including inf/nan garbage) are simply never stored;
* fleet traces are sampled on an integer grid (``times[i] == float(i)``,
  ``period == float(n)``), where the engine's ``bisect``-based segment
  lookup reduces to a clipped ``floor`` — a gather, not a search;
* ``numpy.random.Generator.random(n)`` consumes the identical stream as
  ``n`` scalar ``random()`` calls, so the capture and classification draws
  can be chunked per device without perturbing either stream (the scalar
  engine already relies on this for its capture chunks).

Devices whose policy has no vector path (the Quetzal variants), whose
configuration falls outside the vector kernel's envelope, or that hit an
anomalous condition mid-flight (energy overdraw, negative harvest, the
iteration backstop) are re-run on the scalar engine via the same
``_attempt_spec`` helper the scalar shard path uses, so every device's
outcome — including :class:`RunFailure` — is exactly what the scalar path
would have produced.  The scalar engine stays the oracle; this kernel is
only ever a faster spelling of it (``tests/fleet/test_kernel.py``).
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from repro.core.scheduler import FCFSScheduler
from repro.device.checkpoint import CheckpointModel
from repro.device.storage import Supercapacitor
from repro.env.events import EventSchedule
from repro.experiments.runner import RunFailure, RunSpec, _attempt_spec
from repro.obs.events import TraceEvent
from repro.obs.tracer import stamping_sink
from repro.policies.always_degrade import AlwaysDegradePolicy
from repro.policies.base import Policy
from repro.policies.buffer_threshold import BufferThresholdPolicy
from repro.policies.noadapt import NoAdaptPolicy
from repro.policies.power_threshold import PowerThresholdPolicy
from repro.sim.engine import _ENERGY_EPS
from repro.sim.metrics import RunMetrics
from repro.trace.power_trace import _MAX_HARVEST_PERIODS, PiecewiseConstantTrace
from repro.units import TIME_EPSILON
from repro.workload.ml import MLModelProfile
from repro.workload.pipelines import DETECT_JOB, TRANSMIT_JOB, PersonDetectionApp

__all__ = ["vector_shard_outcomes", "VECTOR_KERNEL_POLICIES", "KernelStats"]

#: Devices per lockstep batch.  Bounds the kernel's working set (the trace
#: power/cumulative-energy matrices are [devices, samples] float64) while
#: keeping batches wide enough to amortize per-iteration numpy overhead.
_MAX_BATCH = 8192

#: Compaction threshold: shrink the batch once at least this many columns
#: are finished *and* they make up >= 1/8 of the width.  The trace tables
#: (powers/cum — the bulk of batch memory) are never copied: gathers go
#: through the ``trow`` row-indirection, so a compaction only touches the
#: packed hot-state matrices and the small per-lane side arrays.  That
#: makes an aggressive 1/8 trigger affordable, and it keeps dense
#: full-width ops tracking the live population closely.
_COMPACT_MIN = 64

# Device states.
_CTRL, _ADV, _RECHG, _DONE = 0, 1, 2, 3
# What an _ADV lane returns to when its span target is reached/depleted.
_C_IDLE, _C_TASK, _C_SAVE, _C_RESTORE = 0, 1, 2, 3
# What a _RECHG lane returns to once the restart level is reached.
_R_BLOCK, _R_FAILURE, _R_IDLE = 0, 1, 2

# Policy families with a vector decision path.
_K_NOADAPT, _K_ALWAYS, _K_BUFFER, _K_POWER = 0, 1, 2, 3

#: Classification draws fetched per device per refill.  Any size yields the
#: same stream (Generator.random(n) == n scalar draws); capture draws are
#: chunked at 1024 to mirror the scalar engine's own chunking exactly.
#:
#: Cohort-refill contract: refills are batched and double-buffered — each
#: lane's draw buffer holds *two* chunks, and whenever any drawing lane
#: runs dry, every lane within one chunk of empty is topped up in the same
#: pass (one C-level ``Generator.random(out=)`` fill per lane, no per-pass
#: allocation).  Topping a lane up *ahead* of consumption is stream-safe
#: under the same equivalence: the lane's generator is still invoked in
#: the identical chunk-sized call sequence, and draws generated early are
#: simply consumed later, so the value read for draw ``k`` never changes.
_CLS_CHUNK = 256
_CAP_CHUNK = 1024

#: Adaptive straggler handoff (see ``_VectorBatch._should_handoff``): the
#: live width must have decayed below 1/64 of the batch's initial width,
#: and the completion rate over the trailing window must have collapsed to
#: below 1/8 of the whole-run average, before the kernel hands the
#: remaining stragglers to the scalar engine.  Rate is re-measured every
#: window, so a batch whose tail is still finishing lanes stays in-kernel.
_HANDOFF_WINDOW = 512
_HANDOFF_WIDTH_DIV = 64
_HANDOFF_RATE_DIV = 8.0


@dataclass
class KernelStats:
    """Per-phase accounting for one or more vector-kernel invocations.

    Wall-clock fields are seconds.  ``fallback_s`` times the scalar rerun
    loop, which covers both envelope exclusions (``scalar_lanes``) and
    in-flight anomaly handoffs (``fallback_lanes``).
    """

    lanes: int = 0            #: devices that entered the vector kernel
    scalar_lanes: int = 0     #: devices outside the vector envelope
    fallback_lanes: int = 0   #: vector lanes re-run on the scalar engine
    batches: int = 0
    iterations: int = 0
    compactions: int = 0
    lane_build_s: float = 0.0
    attach_s: float = 0.0     #: trace-store attach time (subset of lane build)
    batch_init_s: float = 0.0
    ctrl_s: float = 0.0
    adv_s: float = 0.0
    rech_s: float = 0.0
    fallback_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return self.lane_build_s + self.batch_init_s

    @property
    def kernel_s(self) -> float:
        return self.ctrl_s + self.adv_s + self.rech_s

    def merge(self, other: "KernelStats") -> None:
        for f in dataclass_fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        out["setup_s"] = self.setup_s
        out["kernel_s"] = self.kernel_s
        return out

    def render(self) -> str:
        """Human-readable per-phase breakdown (the ``--kernel-stats`` view)."""
        total = self.setup_s + self.kernel_s + self.fallback_s

        def pct(part: float) -> str:
            return f"{100.0 * part / total:5.1f}%" if total > 0 else "    -%"

        lines = [
            "=== Vector kernel per-phase timing ===",
            f"lanes: {self.lanes} vector, {self.scalar_lanes} scalar-only, "
            f"{self.fallback_lanes} fell back mid-run",
            f"batches: {self.batches}  iterations: {self.iterations}  "
            f"compactions: {self.compactions}",
            f"setup    {self.setup_s:8.3f} s  {pct(self.setup_s)}  "
            f"(lane build {self.lane_build_s:.3f} s"
            f" incl. store attach {self.attach_s:.3f} s, "
            f"batch init {self.batch_init_s:.3f} s)",
            f"CTRL     {self.ctrl_s:8.3f} s  {pct(self.ctrl_s)}",
            f"ADV      {self.adv_s:8.3f} s  {pct(self.adv_s)}",
            f"RECHG    {self.rech_s:8.3f} s  {pct(self.rech_s)}",
            f"fallback {self.fallback_s:8.3f} s  {pct(self.fallback_s)}",
        ]
        return "\n".join(lines)


def _policy_kind(factory) -> tuple[int, float | None] | None:
    """Classify a policy factory into a vector family, or None.

    Inspects a throwaway instance instead of pattern-matching grid names,
    so the mapping stays correct if the harness grid changes.  A policy
    qualifies only when it is *exactly* one of the known baseline classes
    (a subclass may override ``select``), keeps the base class's no-op
    hooks and zero invocation cost, and schedules FCFS.
    """
    try:
        policy = factory()
    except Exception:  # pragma: no cover - defensive: factories may be exotic
        return None
    cls = type(policy)
    base = Policy
    if (
        cls.prepare is not base.prepare
        or cls.on_capture is not base.on_capture
        or cls.on_job_complete is not base.on_job_complete
        or cls.invocation_cost is not base.invocation_cost
        or cls.configure_decision_path is not base.configure_decision_path
        or hasattr(policy, "decision_stats")
    ):
        return None
    if type(getattr(policy, "scheduler", None)) is not FCFSScheduler:
        return None
    if cls is NoAdaptPolicy:
        return (_K_NOADAPT, None)
    if cls is AlwaysDegradePolicy:
        return (_K_ALWAYS, None)
    if cls is BufferThresholdPolicy:
        return (_K_BUFFER, float(policy.threshold))
    if cls is PowerThresholdPolicy:
        # The per-decision threshold is fraction * reference with a
        # constant reference (datasheet value, or the trace's max power);
        # reproducing the same single multiply per device is exact.
        ref = policy.datasheet_max_w  # may be None -> use trace max power
        return (_K_POWER, (float(policy.threshold_fraction), ref))
    return None


def _vector_kernel_policies(factories) -> dict[str, tuple]:
    """Grid names in ``factories`` that have a vector decision path."""
    kinds = {}
    for name, factory in factories.items():
        kind = _policy_kind(factory)
        if kind is not None:
            kinds[name] = kind
    return kinds


def VECTOR_KERNEL_POLICIES(factories) -> frozenset[str]:
    """Public view of which grid policies the vector kernel covers."""
    return frozenset(_vector_kernel_policies(factories))


def _integer_grid(trace) -> bool:
    """True when the trace's segment grid makes lookup a clipped floor."""
    if type(trace) is not PiecewiseConstantTrace:
        return False
    if trace._period is None or trace._energy_per_period <= 0:
        return False
    times = trace._times
    n = times.shape[0]
    if n == 0 or trace._period != float(n):
        return False
    return bool(np.array_equal(times, np.arange(n, dtype=np.float64)))


def _app_shape(app) -> tuple | None:
    """Extract the (detect, transmit) task/option tables, or None.

    The planner is positional (``task_refs[0]`` is the classifier,
    ``task_refs[1]`` the conditional prep; transmit is single-task), so the
    kernel requires exactly that shape and reads the same option objects
    the scalar planner would choose (``options[0]`` highest, ``options[-1]``
    lowest).
    """
    if type(app) is not PersonDetectionApp or app.entry_job != DETECT_JOB:
        return None
    jobs = app.jobs
    if DETECT_JOB not in jobs or TRANSMIT_JOB not in jobs:
        return None
    detect = jobs.job(DETECT_JOB)
    transmit = jobs.job(TRANSMIT_JOB)
    if len(detect.task_refs) != 2 or len(transmit.task_refs) != 1:
        return None
    if detect.spawns != TRANSMIT_JOB or transmit.spawns is not None:
        return None
    ml_ref, prep_ref = detect.task_refs
    radio_ref = transmit.task_refs[0]
    if not ml_ref.task.degradable or prep_ref.task.degradable:
        return None
    if not radio_ref.task.degradable:
        return None
    ml_hi = ml_ref.task.options[0]
    ml_lo = ml_ref.task.options[-1]
    radio_hi = radio_ref.task.options[0]
    radio_lo = radio_ref.task.options[-1]
    for opt in (ml_hi, ml_lo):
        model = opt.metadata.get("ml")
        if type(model) is not MLModelProfile:
            return None
    for opt in (radio_hi, radio_lo):
        if opt.metadata.get("quality") not in ("high", "low"):
            return None
    prep_opt = prep_ref.task.highest_quality
    # The kernel chains a finished job's next decision into the same
    # lockstep round; sub-epsilon task durations would make that chain
    # unbounded, so leave them to the scalar engine.
    for opt in (ml_hi, ml_lo, prep_opt, radio_hi, radio_lo):
        if opt.cost.t_exe_s <= TIME_EPSILON:
            return None
    return (ml_ref, ml_hi, ml_lo, prep_ref, prep_opt, radio_ref, radio_hi, radio_lo)


class _Lane:
    """One device prepared for the kernel (inputs shared with any fallback).

    ``traces`` / ``schedules`` are optional per-shard caches keyed by the
    config's ``trace_key()`` / ``schedule_key()`` (the same keys the
    experiment runner's grid cache uses), so lanes with identical
    generation parameters share one immutable trace/schedule object
    instead of rebuilding it.  Fleet specs draw per-device seeds, so the
    win is modest there, but grid-style shards with repeated seeds build
    each artifact once.
    """

    __slots__ = (
        "device", "policy_name", "config", "trace", "schedule", "app",
        "sim", "shape", "kind", "storage",
    )

    def __init__(self, device, policy_name, config, traces=None, schedules=None,
                 trace=None, schedule=None):
        self.device = device
        self.policy_name = policy_name
        self.config = config
        # Prebuilt (store-attached) artifacts win outright; otherwise fall
        # through to the per-chunk generator caches.
        if trace is not None:
            self.trace = trace
        elif traces is None:
            self.trace = config.build_trace()
        else:
            key = config.trace_key()
            trace = traces.get(key)
            if trace is None:
                trace = traces[key] = config.build_trace()
            self.trace = trace
        if schedule is not None:
            self.schedule = schedule
        elif schedules is None:
            self.schedule = config.build_schedule()
        else:
            key = config.schedule_key()
            schedule = schedules.get(key)
            if schedule is None:
                schedule = schedules[key] = config.build_schedule()
            self.schedule = schedule
        self.app = None
        self.sim = None
        self.shape = None
        self.kind = None
        self.storage = None


def _lane_eligible(lane: _Lane, kinds, apps=None) -> bool:
    """Config-level envelope of the vector kernel (trace, app, storage, sim)."""
    kind = kinds.get(lane.policy_name)
    if kind is None:
        return False
    sim = lane.config.build_sim_config()
    if (
        sim.cost_jitter_sigma != 0.0
        or sim.buffer_capacity is None
        or sim.buffer_capacity < 1
        or sim.capture_period_s <= 0
    ):
        return False
    storage = lane.config.build_storage()
    if type(storage) is not Supercapacitor:
        return False
    ckpt = CheckpointModel()
    if ckpt.save_time_s <= 0 or ckpt.restore_time_s <= 0:
        return False
    if type(lane.schedule) is not EventSchedule:
        return False
    if not _integer_grid(lane.trace):
        return False
    # The kernel and the fallback path only *read* the app's task/option
    # tables, so lanes on the same MCU profile can share one instance.
    if apps is None:
        app = lane.config.build_app()
    else:
        key = id(lane.config.mcu)
        app = apps.get(key)
        if app is None:
            app = apps[key] = lane.config.build_app()
    shape = _app_shape(app)
    if shape is None:
        return False
    lane.app = app
    lane.sim = sim
    lane.shape = shape
    lane.kind = kind
    lane.storage = storage
    return True


# --------------------------------------------------------------------------
# Packed hot-state layout.  One row per field; handler attributes are views
# of these rows, rebound by ``_bind`` whenever the batch compacts.
# --------------------------------------------------------------------------

#: float64 rows filled once from the lane tables (``_lane_float_consts``
#: must return values in exactly this order; ``energy`` is the storage's
#: initial charge and mutates from there).
_F_CONST_FIELDS = (
    "epp", "diff_p", "bg_diff_p", "sched_end", "hard_end", "hard_end_eps",
    "sleep_p", "capacity", "restart", "overdraw_floor", "th_thresh",
    "pz_thresh",
    "ml_t0", "ml_t1", "ml_p0", "ml_p1", "fnr0", "fnr1", "fpr0", "fpr1",
    "prep_t", "prep_p", "radio_t0", "radio_t1", "radio_p0", "radio_p1",
    "energy",
)
#: float64 rows that start at zero (clock, span registers, float metrics).
#: seg_nb/seg_p belong to the incremental segment cursor (see
#: ``_seg_advance``) and are re-seeded by ``__init__``.
_F_DYN_FIELDS = (
    "now", "adv_target", "adv_draw", "adv_stop", "rech_start",
    "blk_rem", "blk_start", "task_t0", "task_t1", "task_p0", "task_p1",
    "seg_nb", "seg_p", "next_cap", "ev_next_start", "ev_cur_end",
    "m_energy_harvested", "m_energy_consumed", "m_recharge_time", "m_sim_end",
)
_F_FIELDS = _F_CONST_FIELDS + _F_DYN_FIELDS

#: int64 rows: cursors, buffer occupancy, and integer metric counters.
_I_FIELDS = (
    "cap_idx", "cap_pos", "cap_fill", "cls_pos", "cls_fill",
    "occ", "ev_idx", "exec_slot", "seg",
    "m_captures_active", "m_captures_interesting",
    "m_stored", "m_ibo_drops", "m_ibo_drops_interesting",
    "m_jobs_completed", "m_jobs_degraded", "m_false_negatives",
    "m_true_negatives", "m_packets_ih", "m_packets_il",
    "m_packets_uh", "m_packets_ul", "m_power_failures",
    "m_policy_invocations", "m_leftover_total", "m_leftover_interesting",
    "optc_ml_hi", "optc_ml_lo", "optc_radio_hi", "optc_radio_lo",
    "trow",
)

#: int8 rows: small enums.
_B_FIELDS = ("state", "kind", "adv_cont", "rech_cont", "n_tasks",
             "cur_task", "exec_job")

#: bool rows: flags and per-lane constants consumed as masks.
#: exec_deg doubles as the low-quality-option flag: the planner always
#: picks the degraded option exactly when the policy degraded the job.
_M_FIELDS = ("anomaly", "adv_has_stop", "exec_pos", "exec_deg", "exec_int",
             "radio_hiq0", "radio_hiq1", "ev_cur_int")

#: 2D per-lane arrays compacted by row selection alongside the matrices.
#: Trace tables stay lane-major: lane sim-times diverge by hours, so a
#: lane-minor layout would not cluster the segment gathers (measured
#: slower at 8192 lanes).  ``powers``/``cum`` are deliberately *not*
#: here: they dominate batch memory (D x N float64 each), so compaction
#: leaves them in place and every gather goes through the ``trow``
#: row-indirection instead — that keeps compaction O(hot state), cheap
#: enough to run aggressively.
_ROW_ARRAYS = ("buf_t", "buf_int", "buf_job", "buf_used")
#: The lane-minor (transposed) tables — RNG draw chunks and event
#: tables — are likewise left full-size behind ``trow``.  Draw positions
#: and event cursors are near-synchronized across lanes (every lane
#: draws once per capture tick; schedules have similar event densities),
#: so one tick still reads a narrow band of contiguous rows; compaction
#: keeps ``trow`` sorted, so the column gather stays forward-marching
#: even with dead-lane gaps.


def _lane_float_consts(lane: _Lane) -> tuple:
    """Per-lane float constants, in ``_F_CONST_FIELDS`` order."""
    trace = lane.trace
    sched = lane.schedule
    storage = lane.storage
    cap = storage._capacity
    kind, param = lane.kind
    th = param if kind == _K_BUFFER else 0.0
    if kind == _K_POWER:
        fraction, datasheet = param
        reference = datasheet if datasheet is not None else trace.max_power
        pz = fraction * reference
    else:
        pz = 0.0
    (ml_ref, ml_hi, ml_lo, prep_ref, prep_opt,
     radio_ref, radio_hi, radio_lo) = lane.shape
    hard_end = sched.end_time + lane.sim.drain_timeout_s
    return (
        trace._energy_per_period,
        sched.diff_probability,
        sched.background_diff_probability,
        sched.end_time,
        hard_end,
        hard_end - TIME_EPSILON,
        lane.config.mcu.sleep_power_w,
        cap,
        storage._restart_energy,
        -1e-9 * (cap if cap > 1.0 else 1.0),
        th,
        pz,
        ml_hi.cost.t_exe_s, ml_lo.cost.t_exe_s,
        ml_hi.cost.p_exe_w, ml_lo.cost.p_exe_w,
        ml_hi.metadata["ml"].false_negative_rate,
        ml_lo.metadata["ml"].false_negative_rate,
        ml_hi.metadata["ml"].false_positive_rate,
        ml_lo.metadata["ml"].false_positive_rate,
        prep_opt.cost.t_exe_s, prep_opt.cost.p_exe_w,
        radio_hi.cost.t_exe_s, radio_lo.cost.t_exe_s,
        radio_hi.cost.p_exe_w, radio_lo.cost.p_exe_w,
        storage._energy,
    )


class _VectorBatch:
    """Lockstep packed-state simulation of one homogeneous-geometry batch.

    Every method replays the scalar engine's floating-point operations in
    the scalar op order; comments name the engine code being mirrored.
    The CTRL/ADV/RECHG entry points take a full-width boolean mask over
    the current columns and compute dense; minority sub-steps (decisions,
    exits, captures) stay index-based.  ``run()`` returns one
    ``RunMetrics`` per lane — in the original lane order, across any
    number of compactions — or ``None`` where the lane must be re-run on
    the scalar engine.
    """

    def __init__(self, lanes: list[_Lane], tracer=None) -> None:
        # Columns are ordered by policy kind so ``_decide`` can address
        # each family as a contiguous slice of its sorted lane indices
        # (compaction preserves column order, so the invariant holds for
        # the whole run).  ``orig`` maps columns back to caller order.
        order = sorted(range(len(lanes)), key=lambda i: lanes[i].kind[0])
        lanes = [lanes[i] for i in order]
        self.lanes = lanes
        D = self.D = len(lanes)
        self.N = N = lanes[0].trace._times.shape[0]
        self.C = C = int(lanes[0].sim.buffer_capacity)
        f8, i8 = np.float64, np.int64

        # -- per-batch scalars (engine __init__ / CheckpointModel defaults) --
        ckpt = CheckpointModel()
        self.SAVE_T = ckpt.save_time_s
        self.SAVE_P = ckpt.save_energy_j / ckpt.save_time_s
        self.REST_T = ckpt.restore_time_s
        self.REST_P = ckpt.restore_energy_j / ckpt.restore_time_s
        self.RESERVE = ckpt.save_energy_j
        self.THRESHOLD = self.RESERVE + _ENERGY_EPS
        self.PERIOD = float(N)
        # Uniform within a batch by group key; int64 * float and int64 /
        # float reproduce the engine's int * float / int / int arithmetic.
        self.CAPP = float(lanes[0].sim.capture_period_s)
        self.BUFL = float(C)
        # Trace grid: times[i] == float(i); padded with the period so the
        # next-boundary gather (seg + 1) never branches on the last segment.
        self.times1d = np.arange(N, dtype=f8)
        self.times_ext = np.arange(N + 1, dtype=f8)

        # -- packed hot-state matrices --
        self.F = np.zeros((len(_F_FIELDS), D), dtype=f8)
        self.I = np.zeros((len(_I_FIELDS), D), dtype=i8)
        self.B = np.zeros((len(_B_FIELDS), D), dtype=np.int8)
        self.M = np.zeros((len(_M_FIELDS), D), dtype=bool)
        self._bind()
        #: original column position of each current column (results index).
        self.orig = np.array(order, dtype=np.intp)
        self._ar = np.arange(D, dtype=np.intp)
        # Row indirection into the full-size trace tables (powers/cum):
        # compaction renumbers columns but never copies those tables.
        self.trow[:] = self._ar
        self.results: list = [None] * D

        # Bulk constant fill: one boxed tuple per lane, one transposed copy.
        self.F[: len(_F_CONST_FIELDS)] = np.array(
            [_lane_float_consts(lane) for lane in lanes], dtype=f8
        ).T
        self.kind[:] = [lane.kind[0] for lane in lanes]
        self.radio_hiq0[:] = [
            lane.shape[6].metadata["quality"] == "high" for lane in lanes
        ]
        self.radio_hiq1[:] = [
            lane.shape[7].metadata["quality"] == "high" for lane in lanes
        ]

        # -- per-lane trace / schedule tables --
        self.powers = np.empty((D, N), dtype=f8)
        self.cum = np.empty((D, N), dtype=f8)
        for i, lane in enumerate(lanes):
            trace = lane.trace
            self.powers[i] = trace._powers
            self.cum[i] = trace._cum_energy
        # Schedules expose their columnar (starts, durations, interesting)
        # view directly; ``starts + durations`` reproduces ``Event.end``
        # element-wise, so no per-event Python objects are touched here
        # (store-attached schedules never materialize them at all).
        sched_arrays = [lane.schedule.arrays() for lane in lanes]
        counts = [arr[0].shape[0] for arr in sched_arrays]
        E = max(counts, default=0)
        self.E = E
        # Event tables are event-major (lane-minor): event cursors advance
        # in loose lockstep, so a capture tick gathers from a narrow band
        # of rows instead of one scattered row per lane.  ev_ends/ev_int
        # carry one trailing sentinel row (-inf / False) so the
        # pre-first-event cursor (ev_idx == -1) wraps to a gather that
        # reads "not in an event" without a separate ``ei >= 0`` term.
        self.ev_starts = np.full((max(E, 1) + 1, D), np.inf, dtype=f8)
        self.ev_ends = np.full((max(E, 1) + 1, D), -np.inf, dtype=f8)
        self.ev_int = np.zeros((max(E, 1) + 1, D), dtype=bool)
        if E > 0:
            if all(count == E for count in counts):
                starts = np.array([arr[0] for arr in sched_arrays], dtype=f8)
                durations = np.array([arr[1] for arr in sched_arrays], dtype=f8)
                self.ev_starts[:E] = starts.T
                self.ev_ends[:E] = (starts + durations).T
                self.ev_int[:E] = np.array(
                    [arr[2] for arr in sched_arrays], dtype=bool
                ).T
            else:  # ragged schedules: pad per lane
                for i, (starts, durations, interesting) in enumerate(sched_arrays):
                    count = counts[i]
                    self.ev_starts[:count, i] = starts
                    self.ev_ends[:count, i] = starts + durations
                    self.ev_int[:count, i] = interesting
        self.opt_names = [
            (
                lane.shape[0].task.name, lane.shape[1].name, lane.shape[2].name,
                lane.shape[5].task.name, lane.shape[6].name, lane.shape[7].name,
            )
            for lane in lanes
        ]
        self.cls_rngs = [np.random.default_rng(lane.sim.seed) for lane in lanes]
        self.cap_rngs = [
            np.random.default_rng((lane.sim.seed, 0xD1FF)) for lane in lanes
        ]

        # -- dynamic state not covered by the zero-init of F/I/B/M --
        self.cap_idx[:] = 1
        # Cached ``cap_idx * CAPP``: re-derived only where cap_idx moves
        # (the capture-fire loop), so the handlers read it for free.
        self.next_cap[:] = 1 * self.CAPP
        # cap_pos/cls_pos (draws consumed) and cap_fill/cls_fill (draws
        # generated) are absolute per-lane counters; both start at zero,
        # so the first draw triggers a full-width cohort refill.
        self.ev_idx[:] = -1
        # Cached event-cursor reads (the cursor moves on a tiny fraction
        # of capture ticks, so per-tick 2D gathers from the event tables
        # are replaced by 1D rows refreshed only at move time).  The
        # cursor starts at -1, i.e. on the sentinel row: no event active.
        self.ev_next_start[:] = self.ev_starts[0]
        self.ev_cur_end[:] = -np.inf
        self.ev_cur_int[:] = False
        # Segment cursor at t = 0: segment 0, next boundary at 1.0 (every
        # grid segment has length exactly 1.0).
        self.seg_nb[:] = 1.0
        self.seg_p[:] = self.powers[:, 0]
        # Buffer SoA: +inf capture time marks a free slot, so FCFS selection
        # and free-slot search are both argmins.
        self.buf_t = np.full((D, C), np.inf, dtype=f8)
        self.buf_int = np.zeros((D, C), dtype=bool)
        self.buf_job = np.zeros((D, C), dtype=np.int8)
        self.buf_used = np.zeros((D, C), dtype=bool)
        # Chunked RNG draws, lane-minor (capture draws are near-synchronized
        # across lanes, so one tick reads a mostly-contiguous row) and
        # double-buffered: two chunk planes per lane, indexed by the
        # absolute counters modulo 2*chunk, so a cohort refill can land a
        # lane's next chunk while the current one still has unread draws.
        self.cap_chunk = np.zeros((2 * _CAP_CHUNK, D), dtype=f8)
        self.cls_chunk = np.zeros((2 * _CLS_CHUNK, D), dtype=f8)

        # -- phase accounting (read by the shard runner after run()) --
        self.iterations = 0
        self.compactions = 0
        self.ctrl_s = 0.0
        self.adv_s = 0.0
        self.rech_s = 0.0

        # -- opt-in tracing: handlers buffer (t, kind, device, dur, data)
        # rows; ``run()`` flushes them to the sink once per phase.  The
        # kernel emits the state-changing timeline (active captures, IBO
        # drops, decisions, degradations, power failures, checkpoint/
        # restore/recharge spans); quiescent capture ticks are elided —
        # their count is recoverable from RunMetrics.captures_total.
        self._trace = tracer
        if tracer is not None:
            # Device ids in packed-row order, indexed through ``trow`` so
            # the mapping survives compaction.
            self._trace_dev = np.array(
                [lane.device for lane in lanes], dtype=np.int64
            )
            self._trace_rows: list = []

    # --------------------------------------------------------------- layout --

    def _bind(self) -> None:
        """(Re)bind field attributes to the rows of the packed matrices."""
        for row, name in enumerate(_F_FIELDS):
            setattr(self, name, self.F[row])
        for row, name in enumerate(_I_FIELDS):
            setattr(self, name, self.I[row])
        for row, name in enumerate(_B_FIELDS):
            setattr(self, name, self.B[row])
        for row, name in enumerate(_M_FIELDS):
            setattr(self, name, self.M[row])

    def _compact(self, live) -> None:
        """Harvest finished columns and shrink every array to the live set."""
        self._harvest((~live).nonzero()[0])
        keep = live.nonzero()[0]
        self.F = np.ascontiguousarray(self.F[:, keep])
        self.I = np.ascontiguousarray(self.I[:, keep])
        self.B = np.ascontiguousarray(self.B[:, keep])
        self.M = np.ascontiguousarray(self.M[:, keep])
        self._bind()
        self.orig = self.orig[keep]
        for name in _ROW_ARRAYS:
            setattr(self, name, getattr(self, name)[keep])
        self._ar = np.arange(keep.size, dtype=np.intp)
        self.compactions += 1

    def _harvest(self, idx) -> None:
        """Materialize finished columns into ``results`` (None = fallback)."""
        results = self.results
        orig = self.orig
        anomaly = self.anomaly
        state = self.state
        for i in idx:
            i = int(i)
            if anomaly[i] or state[i] != _DONE:
                results[int(orig[i])] = None
            else:
                results[int(orig[i])] = self._metrics(i)

    # ------------------------------------------------------------- helpers --

    def _anomalize(self, lanes) -> None:
        self.anomaly[lanes] = True
        self.state[lanes] = _DONE

    def _finish(self, lanes) -> None:
        """Engine ``_finalize``: freeze sim_end and count leftovers."""
        self.m_sim_end[lanes] = self.now[lanes]
        self.m_leftover_total[lanes] = self.occ[lanes]
        self.m_leftover_interesting[lanes] = (
            (self.buf_int[lanes] & self.buf_used[lanes]).sum(axis=1)
        )
        self.state[lanes] = _DONE

    def _seg_advance(self, lanes) -> None:
        """Catch the segment cursor up to each lane's clock (monotone).

        Replaces TraceCursor.span_at: after this, ``seg_p[lane]`` is the
        segment power at ``now`` and ``seg_nb[lane]`` the next boundary,
        with ``now < seg_nb`` (the scalar path's ``nb <= t`` nextafter
        guard cannot trigger on the integer grid, where every boundary
        value is an exactly-represented integer).  Clocks only move
        forward, and almost always by one segment per iteration, so the
        catch-up is a subset walk with per-lane sequential trace reads;
        lanes that jumped far (post-recharge) fall back to one direct
        fold after a few passes.  Bit-exact: boundaries are integers
        below 2**53, so ``+= 1.0`` equals the scalar ``k*period +
        times[seg+1]`` arithmetic, and ``seg_p`` gathers the same table.
        """
        behind = lanes[self.now[lanes] >= self.seg_nb[lanes]]
        passes = 0
        while behind.size:
            passes += 1
            if passes > 4:
                # Far behind: one direct fold (same truncation-as-floor
                # lookup the dense span evaluation used).
                t = self.now[behind]
                local, k = self._fold(t)
                seg = local.astype(np.intp)
                self.seg[behind] = seg
                self.seg_nb[behind] = k * self.PERIOD + self.times_ext[seg + 1]
                self.seg_p[behind] = self.powers[self.trow[behind], seg]
                return
            seg = self.seg[behind] + 1
            wrap = seg == self.N
            if wrap.any():
                seg = np.where(wrap, 0, seg)
            self.seg[behind] = seg
            self.seg_nb[behind] += 1.0
            self.seg_p[behind] = self.powers[self.trow[behind], seg]
            behind = behind[self.now[behind] >= self.seg_nb[behind]]

    def _fold(self, t):
        """PiecewiseConstantTrace._fold, vectorized (k kept as float64)."""
        k = np.floor(t / self.PERIOD)
        local = t - k * self.PERIOD
        adjust = local >= self.PERIOD
        if adjust.any():
            local = np.where(adjust, local - self.PERIOD, local)
            k = np.where(adjust, k + 1.0, k)
        return local, k

    def _efz(self, lanes, local):
        """TraceCursor._energy_from_zero: cum[idx] + p[idx]*(local-times[idx]).

        ``local`` is a folded offset in [0, PERIOD), so truncation equals
        the scalar path's clipped floor.
        """
        seg = local.astype(np.intp)
        rows = self.trow[lanes]
        return self.cum[rows, seg] + self.powers[rows, seg] * (
            local - self.times1d[seg]
        )

    def _refill(self, pos, fill, rngs, table, chunk) -> None:
        """Cohort-batched, double-buffered chunk refill (see _CLS_CHUNK note).

        Called when some drawing lane ran dry; tops up *every* live column
        within one chunk of empty in the same pass, so loosely-desynced
        lanes share refill passes instead of each triggering its own.
        Each lane gets one C-level ``Generator.random(out=)`` fill into a
        row of the staging block (no per-lane allocation, same stream as
        chunked scalar draws), and the staging rows land in the lane's
        free buffer plane in two contiguous strided stores grouped by
        plane parity.  ``fill - pos <= chunk`` guarantees the landing
        plane holds no unconsumed draws (buffer capacity is 2*chunk).
        """
        cohort = ((fill - pos) <= chunk).nonzero()[0]
        # Group by landing plane first so each plane's store is one
        # contiguous slice of the staging block.
        offsets = fill[cohort] & (2 * chunk - 1)  # 0 or chunk per lane
        cohort = cohort[np.argsort(offsets, kind="stable")]
        low = int(np.count_nonzero(offsets == 0))
        rows = self.trow[cohort]
        stage = np.empty((rows.size, chunk), dtype=np.float64)
        for j, d in enumerate(rows.tolist()):
            rngs[d].random(out=stage[j])
        if low:
            table[:chunk, rows[:low]] = stage[:low].T
        if low < rows.size:
            table[chunk:, rows[low:]] = stage[low:].T
        fill[cohort] += chunk

    def _draw_caps(self, lanes):
        """One differencing-filter draw per lane (chunked like the engine)."""
        pos = self.cap_pos[lanes]
        if (pos == self.cap_fill[lanes]).any():
            self._refill(
                self.cap_pos, self.cap_fill, self.cap_rngs,
                self.cap_chunk, _CAP_CHUNK,
            )
        draws = self.cap_chunk[pos & (2 * _CAP_CHUNK - 1), self.trow[lanes]]
        self.cap_pos[lanes] = pos + 1
        return draws

    def _draw_cls(self, lanes):
        """One classification draw per lane (engine draws these singly)."""
        pos = self.cls_pos[lanes]
        if (pos == self.cls_fill[lanes]).any():
            self._refill(
                self.cls_pos, self.cls_fill, self.cls_rngs,
                self.cls_chunk, _CLS_CHUNK,
            )
        draws = self.cls_chunk[pos & (2 * _CLS_CHUNK - 1), self.trow[lanes]]
        self.cls_pos[lanes] = pos + 1
        return draws

    # ------------------------------------------------------------- captures --

    def _fire_due_captures(self, lanes, t, limit=None) -> None:
        """Engine ``_fire_due_captures`` fast body, one tick per pass.

        Callers pass ``t = cap_idx * CAPP`` for lanes they already proved
        due (the boundary reached the next capture tick) and ``limit`` as
        those lanes' post-advance clocks; later passes re-derive dueness
        against ``limit`` for the rare multi-tick catch-up.
        """
        if limit is None:
            limit = self.now[lanes]
        while True:
            # captures_total is not counted here: every fired tick bumps
            # ``cap_idx`` below, so it is always ``cap_idx - 1`` (both
            # start one apart) and the harvest derives it for free.
            # EventCursor.event_at: monotone advance over start times.
            # The cached ``ev_next_start`` row decides whether any lane
            # moves this tick; only movers touch the 2D event tables.
            adv = (self.ev_next_start[lanes] <= t).nonzero()[0]
            if adv.size:
                ml = lanes[adv]
                mr = self.trow[ml]
                mt = t[adv]
                ei = self.ev_idx[ml] + 1  # first step already proven due
                while True:
                    step = self.ev_starts[ei + 1, mr] <= mt
                    if not step.any():
                        break
                    ei = ei + step
                self.ev_idx[ml] = ei
                self.ev_next_start[ml] = self.ev_starts[ei + 1, mr]
                self.ev_cur_end[ml] = self.ev_ends[ei, mr]
                self.ev_cur_int[ml] = self.ev_int[ei, mr]
            in_event = t < self.ev_cur_end[lanes]
            draws = self._draw_caps(lanes)
            if in_event.any():
                ev_interesting = in_event & self.ev_cur_int[lanes]
                active = draws < np.where(
                    in_event, self.diff_p[lanes], self.bg_diff_p[lanes]
                )
                interesting = active & ev_interesting
                if ev_interesting.any():  # all-zero adds are pure overhead
                    self.m_captures_interesting[lanes] += interesting
            else:
                active = draws < self.bg_diff_p[lanes]
                interesting = np.zeros(lanes.shape[0], dtype=bool)
            act = active.nonzero()[0]
            if act.size:
                a_lanes = lanes[act]
                a_int = interesting[act]
                a_t = t[act]
                self.m_captures_active[a_lanes] += 1
                full = self.occ[a_lanes] >= self.C
                if self._trace is not None:
                    rows = self._trace_rows
                    dev = self._trace_dev[self.trow[a_lanes]]
                    occ = self.occ[a_lanes]
                    en = self.energy[a_lanes]
                    for j in range(act.size):
                        rows.append((
                            float(a_t[j]), "capture", int(dev[j]), 0.0,
                            {"active": True, "interesting": bool(a_int[j]),
                             "occupancy": int(occ[j]),
                             "energy_j": float(en[j])},
                        ))
                        if full[j]:
                            rows.append((
                                float(a_t[j]), "ibo", int(dev[j]), 0.0,
                                {"interesting": bool(a_int[j])},
                            ))
                fl = full.nonzero()[0]
                if fl.size:
                    f_lanes = a_lanes[fl]
                    self.m_ibo_drops[f_lanes] += 1
                    self.m_ibo_drops_interesting[f_lanes] += a_int[fl]
                ins = (~full).nonzero()[0]
                if ins.size:
                    i_lanes = a_lanes[ins]
                    slot = np.argmin(self.buf_used[i_lanes], axis=1)
                    self.buf_used[i_lanes, slot] = True
                    self.buf_t[i_lanes, slot] = a_t[ins]
                    self.buf_int[i_lanes, slot] = a_int[ins]
                    self.buf_job[i_lanes, slot] = 0
                    self.occ[i_lanes] += 1
                    self.m_stored[i_lanes] += 1
            self.cap_idx[lanes] += 1
            t = self.cap_idx[lanes] * self.CAPP
            self.next_cap[lanes] = t
            due = (t <= limit + TIME_EPSILON).nonzero()[0]
            if not due.size:
                return
            lanes = lanes[due]
            t = t[due]
            limit = limit[due]

    # ---------------------------------------------------------------- control --

    def _ctrl(self, m, count: int) -> None:
        """The engine ``run()`` loop head: end / decide / idle.

        CTRL holds a minority of lanes most iterations (decisions resolve
        into multi-pass ADV/RECHG stints), so the handler goes subset-first
        — one ``nonzero`` up front, then everything gathers through the
        lane list — unlike ``_adv``, whose ~50% live fraction favours
        dense full-width arithmetic.  ``count`` is the number of lanes in
        ``m``, so emptiness checks are integer arithmetic.
        """
        lanes = m.nonzero()[0]
        at_end = self.now[lanes] >= self.hard_end_eps[lanes]
        ae = at_end.nonzero()[0]
        if ae.size:
            self._finish(lanes[ae])
            count -= ae.size
            if not count:
                return
            lanes = lanes[(~at_end).nonzero()[0]]
        busy = self.occ[lanes] > 0
        idle = lanes[(~busy).nonzero()[0]]
        if idle.size:
            next_cap = self.next_cap[idle]
            over = next_cap > self.sched_end[idle]
            if over.any():
                self._finish(idle[over])  # nothing left to capture
                keep = ~over
                idle = idle[keep]
                next_cap = next_cap[keep]
            if idle.size:
                self.adv_target[idle] = next_cap
                self.adv_draw[idle] = self.sleep_p[idle]
                self.adv_stop[idle] = 0.0
                self.adv_has_stop[idle] = True
                self.adv_cont[idle] = _C_IDLE
                self.state[idle] = _ADV
        work = lanes[busy.nonzero()[0]]
        if work.size:
            self._decide(work)

    def _decide(self, lanes) -> None:
        """_invoke_policy + plan(): FCFS pick, degrade flag, task table."""
        self.m_policy_invocations[lanes] += 1
        # Columns are kind-sorted and ``lanes`` ascending, so each policy
        # family is one contiguous run: a searchsorted replaces three
        # mask/nonzero scans and the runs slice for free.
        kind = self.kind[lanes]
        b = kind.searchsorted((_K_ALWAYS, _K_BUFFER, _K_POWER, _K_POWER + 1))
        degrade = np.zeros(lanes.shape[0], dtype=bool)
        degrade[b[0]:b[1]] = True
        if b[2] > b[1]:
            t_lanes = lanes[b[1]:b[2]]
            fill = self.occ[t_lanes] / self.BUFL
            degrade[b[1]:b[2]] = fill >= self.th_thresh[t_lanes]
        if b[3] > b[2]:
            p_lanes = lanes[b[2]:b[3]]
            self._seg_advance(p_lanes)
            degrade[b[2]:b[3]] = self.seg_p[p_lanes] < self.pz_thresh[p_lanes]
        # FCFS == global argmin capture time (free slots sit at +inf).
        slot = np.argmin(self.buf_t[lanes], axis=1)
        job = self.buf_job[lanes, slot]
        interesting = self.buf_int[lanes, slot]
        self.exec_slot[lanes] = slot
        self.exec_job[lanes] = job
        self.exec_deg[lanes] = degrade
        self.exec_int[lanes] = interesting
        if self._trace is not None:
            rows = self._trace_rows
            trow = self.trow[lanes]
            dev = self._trace_dev[trow]
            now = self.now[lanes]
            for j in range(lanes.shape[0]):
                names = self.opt_names[int(trow[j])]
                if job[j]:
                    jname = TRANSMIT_JOB
                    opt = names[5] if degrade[j] else names[4]
                else:
                    jname = DETECT_JOB
                    opt = names[2] if degrade[j] else names[1]
                rows.append((
                    float(now[j]), "decision", int(dev[j]), 0.0,
                    {"job": jname, "option": opt,
                     "degraded": bool(degrade[j])},
                ))
                if degrade[j]:
                    rows.append((
                        float(now[j]), "degradation", int(dev[j]), 0.0,
                        {"job": jname, "option": opt},
                    ))
        det = (job == 0).nonzero()[0]
        if det.size:
            d_lanes = lanes[det]
            d_deg = degrade[det]
            draws = self._draw_cls(d_lanes)
            # MLModelProfile.classify: interesting -> u >= fnr, else u < fpr.
            fnr = np.where(d_deg, self.fnr1[d_lanes], self.fnr0[d_lanes])
            fpr = np.where(d_deg, self.fpr1[d_lanes], self.fpr0[d_lanes])
            positive = np.where(interesting[det], draws >= fnr, draws < fpr)
            self.exec_pos[d_lanes] = positive
            self.task_t0[d_lanes] = np.where(
                d_deg, self.ml_t1[d_lanes], self.ml_t0[d_lanes]
            )
            self.task_p0[d_lanes] = np.where(
                d_deg, self.ml_p1[d_lanes], self.ml_p0[d_lanes]
            )
            self.task_t1[d_lanes] = self.prep_t[d_lanes]
            self.task_p1[d_lanes] = self.prep_p[d_lanes]
            self.n_tasks[d_lanes] = np.where(positive, 2, 1)
        tx = (job == 1).nonzero()[0]
        if tx.size:
            t_lanes = lanes[tx]
            t_deg = degrade[tx]
            self.task_t0[t_lanes] = np.where(
                t_deg, self.radio_t1[t_lanes], self.radio_t0[t_lanes]
            )
            self.task_p0[t_lanes] = np.where(
                t_deg, self.radio_p1[t_lanes], self.radio_p0[t_lanes]
            )
            self.n_tasks[t_lanes] = 1
        self.cur_task[lanes] = 0
        self.blk_rem[lanes] = self.task_t0[lanes]
        self._block_top(lanes)

    def _block_top(self, lanes) -> None:
        """_run_block loop head: done / recharge-first / advance."""
        done = self.blk_rem[lanes] <= TIME_EPSILON
        if done.any():
            self._task_done(lanes[done])
            lanes = lanes[~done]
        if not lanes.size:
            return
        low = self.energy[lanes] <= self.THRESHOLD
        rech = lanes[low]
        if rech.size:
            self.rech_cont[rech] = _R_BLOCK
            self.rech_start[rech] = self.now[rech]
            self.state[rech] = _RECHG
        go = lanes[~low]
        if go.size:
            self.blk_start[go] = self.now[go]
            self.adv_target[go] = self.now[go] + self.blk_rem[go]
            second = self.cur_task[go] == 1
            self.adv_draw[go] = np.where(
                second, self.task_p1[go], self.task_p0[go]
            )
            self.adv_stop[go] = self.RESERVE
            self.adv_has_stop[go] = True
            self.adv_cont[go] = _C_TASK
            self.state[go] = _ADV

    def _task_done(self, lanes) -> None:
        self.cur_task[lanes] += 1
        more = self.cur_task[lanes] < self.n_tasks[lanes]
        nxt = lanes[more]
        if nxt.size:
            second = self.cur_task[nxt] == 1
            self.blk_rem[nxt] = np.where(
                second, self.task_t1[nxt], self.task_t0[nxt]
            )
            self._block_top(nxt)
        fin = lanes[~more]
        if fin.size:
            self._complete_job(fin)

    def _complete_job(self, lanes) -> None:
        """_execute_job epilogue: buffer effect, counters, packets."""
        self.m_jobs_completed[lanes] += 1
        lo = self.exec_deg[lanes]
        self.m_jobs_degraded[lanes] += lo  # bool upcasts to int64
        slot = self.exec_slot[lanes]
        interesting = self.exec_int[lanes]
        det = (self.exec_job[lanes] == 0).nonzero()[0]
        if det.size:
            d_lanes = lanes[det]
            d_lo = lo[det]
            self.optc_ml_hi[d_lanes] += ~d_lo
            self.optc_ml_lo[d_lanes] += d_lo
            positive = self.exec_pos[d_lanes]
            pos = positive.nonzero()[0]
            if pos.size:
                # Positive: input stays buffered, retagged for transmit.
                self.buf_job[d_lanes[pos], slot[det][pos]] = 1
            neg = (~positive).nonzero()[0]
            if neg.size:
                n_lanes = d_lanes[neg]
                n_slot = slot[det][neg]
                self.buf_used[n_lanes, n_slot] = False
                self.buf_t[n_lanes, n_slot] = np.inf
                self.occ[n_lanes] -= 1
                n_int = interesting[det][neg]
                self.m_false_negatives[n_lanes] += n_int
                self.m_true_negatives[n_lanes] += ~n_int
        tx = (self.exec_job[lanes] == 1).nonzero()[0]
        if tx.size:
            t_lanes = lanes[tx]
            t_lo = lo[tx]
            self.optc_radio_hi[t_lanes] += ~t_lo
            self.optc_radio_lo[t_lanes] += t_lo
            t_slot = slot[tx]
            self.buf_used[t_lanes, t_slot] = False
            self.buf_t[t_lanes, t_slot] = np.inf
            self.occ[t_lanes] -= 1
            t_int = interesting[tx]
            high = np.where(
                t_lo, self.radio_hiq1[t_lanes], self.radio_hiq0[t_lanes]
            )
            self.m_packets_ih[t_lanes] += t_int & high
            self.m_packets_il[t_lanes] += t_int & ~high
            self.m_packets_uh[t_lanes] += ~t_int & high
            self.m_packets_ul[t_lanes] += ~t_int & ~high
        self.state[lanes] = _CTRL

    # ---------------------------------------------------------------- advance --

    def _adv(self, m, count: int) -> None:
        """One ``_advance_to`` span per live lane (dense masked).

        ``count`` tracks the lanes remaining in ``m`` so exit branches
        test an integer instead of reducing the mask again.

        Arithmetic runs full-width; masked-out columns may compute inf/nan
        garbage (``run()`` holds the divide/invalid errstate), which the
        ``where=`` stores discard.  Exit paths mutate only the columns they
        are handed, so reading the row views after an exit call is safe
        for every column still in ``m``.
        """
        now = self.now
        energy = self.energy
        reached = m & (now >= self.adv_target - TIME_EPSILON)
        r = reached.nonzero()[0]
        if r.size:
            self._adv_exit(r, depleted=False)
            count -= r.size
            if not count:
                return
            m = m & ~reached
        at_end = m & (now >= self.hard_end_eps)
        ae = at_end.nonzero()[0]
        if ae.size:
            self._finish(ae)
            count -= ae.size
            if not count:
                return
            m = m & ~at_end
        next_cap = self.next_cap
        self._seg_advance(m.nonzero()[0])
        p_in = self.seg_p
        boundary = np.minimum(np.minimum(self.adv_target, next_cap), self.seg_nb)
        boundary = np.minimum(boundary, self.hard_end)
        draw = self.adv_draw
        net = draw - p_in
        stop = m & self.adv_has_stop & (net > 0.0)
        depleting = None
        if stop.any():
            margin = energy - self.adv_stop
            immediate = stop & (margin <= _ENERGY_EPS)
            im = immediate.nonzero()[0]
            if im.size:
                # No headroom at span entry: stop without advancing.
                self._adv_exit(im, depleted=True)
                count -= im.size
                if not count:
                    return
                m = m & ~immediate
                stop = stop & ~immediate
            if stop.any():
                t_depleted = now + margin / net
                depleting = stop & (t_depleted < boundary - TIME_EPSILON)
                boundary = np.where(depleting, t_depleted, boundary)
        # _account_span / Supercapacitor.draw / .harvest, fused.  With
        # dtz = 0 every update below is an identity (consumed/harvested
        # add 0, stored clamps to 0, max(energy, 0) == energy), which is
        # exactly the engine's "skip accounting when dt <= 0" — but the
        # clock still moves to the boundary unconditionally, as it must.
        dt = boundary - now
        dtz = np.maximum(dt, 0.0)
        draining = net >= 0.0
        ndt = net * dtz
        remaining = energy - ndt
        overdraw = m & (remaining < self.overdraw_floor)
        ov = overdraw.nonzero()[0]
        if ov.size:
            self._anomalize(ov)
            count -= ov.size
            if not count:
                return
            m = m & ~overdraw
            if depleting is not None:
                depleting = depleting & m
        headroom = self.capacity - energy
        stored = np.minimum(-ndt, headroom)
        np.copyto(
            energy,
            np.where(draining, np.maximum(remaining, 0.0), energy + stored),
            where=m,
        )
        consumed = draw * dtz
        np.add(
            self.m_energy_consumed, consumed,
            out=self.m_energy_consumed, where=m,
        )
        np.add(
            self.m_energy_harvested,
            np.where(draining, p_in * dtz, consumed + stored),
            out=self.m_energy_harvested, where=m,
        )
        np.copyto(now, boundary, where=m)
        d = (m & (next_cap <= boundary + TIME_EPSILON)).nonzero()[0]
        if d.size:
            self._fire_due_captures(d, next_cap[d], boundary[d])
        if depleting is not None:
            dep = depleting.nonzero()[0]
            if dep.size:
                self._adv_exit(dep, depleted=True)
                m = m & ~depleting
        # Spans that just reached their target exit in the same pass: the
        # scalar engine has no iteration boundary between reaching a span
        # end and running its continuation, so dispatching now (instead
        # of letting the next call's reached-check do it) preserves each
        # lane's op sequence while halving the passes per span.
        arrived = m & (now >= self.adv_target - TIME_EPSILON)
        arr = arrived.nonzero()[0]
        if arr.size:
            self._adv_exit(arr, depleted=False)

    def _adv_exit(self, lanes, depleted: bool) -> None:
        """Dispatch a finished span to its continuation.

        One bincount decides which continuations are present, so absent
        ones cost nothing instead of a compare + scan each.
        """
        cont = self.adv_cont[lanes]
        cnt = np.bincount(cont, minlength=4)
        if cnt[_C_TASK]:
            task = lanes[cont == _C_TASK]
            # _run_block: remaining -= now - start, then maybe a failure.
            self.blk_rem[task] = self.blk_rem[task] - (
                self.now[task] - self.blk_start[task]
            )
            if depleted:
                failing = self.blk_rem[task] > TIME_EPSILON
                fail = task[failing]
                if fail.size:
                    # _power_failure: count it, then pay the save cost.
                    self.m_power_failures[fail] += 1
                    if self._trace is not None:
                        rows = self._trace_rows
                        dev = self._trace_dev[self.trow[fail]]
                        now = self.now[fail]
                        for j in range(fail.size):
                            rows.append((
                                float(now[j]), "power_fail",
                                int(dev[j]), 0.0, {},
                            ))
                    self.adv_target[fail] = self.now[fail] + self.SAVE_T
                    self.adv_draw[fail] = self.SAVE_P
                    self.adv_has_stop[fail] = False
                    self.adv_cont[fail] = _C_SAVE
                    self.state[fail] = _ADV
                done = task[~failing]
                if done.size:
                    self._block_top(done)
            else:
                self._block_top(task)
        if cnt[_C_SAVE]:
            save = lanes[cont == _C_SAVE]
            if self._trace is not None:
                # The save span just completed: now is its end.
                rows = self._trace_rows
                dev = self._trace_dev[self.trow[save]]
                now = self.now[save]
                for j in range(save.size):
                    rows.append((
                        float(now[j]) - self.SAVE_T, "checkpoint",
                        int(dev[j]), self.SAVE_T, {},
                    ))
            self.rech_cont[save] = _R_FAILURE
            self.rech_start[save] = self.now[save]
            self.state[save] = _RECHG
        if cnt[_C_RESTORE]:
            rest = lanes[cont == _C_RESTORE]
            if self._trace is not None:
                rows = self._trace_rows
                dev = self._trace_dev[self.trow[rest]]
                now = self.now[rest]
                for j in range(rest.size):
                    rows.append((
                        float(now[j]) - self.REST_T, "restore",
                        int(dev[j]), self.REST_T, {},
                    ))
            self._block_top(rest)
        if cnt[_C_IDLE]:
            idle = lanes[cont == _C_IDLE]
            if depleted:
                # Sleep-state brownout: wait for restart, then resume idling.
                self.rech_cont[idle] = _R_IDLE
                self.rech_start[idle] = self.now[idle]
                self.state[idle] = _RECHG
            else:
                self.state[idle] = _CTRL

    # --------------------------------------------------------------- recharge --

    def _rech(self, m, count: int) -> None:
        """One fused-recharge tick per lane (engine ``_recharge_to_restart``).

        RECHG holds the smallest lane population of the three states (a
        few percent most iterations), so the whole handler is subset-based
        — one ``nonzero``, then per-lane gathers; its core is dominated by
        per-lane trace-table gathers (``_efz``) whose cost is per *element
        touched* either way, and full-width evaluation of the state checks
        would do strictly more element work (measured ~2x on the fleet
        mix).
        """
        lanes = m.nonzero()[0]
        deficit = self.restart[lanes] - self.energy[lanes]
        full = deficit <= _ENERGY_EPS
        fu = full.nonzero()[0]
        if fu.size:
            self._rech_exit(lanes[fu])
            count -= fu.size
            if not count:
                return
            keep = (~full).nonzero()[0]
            lanes = lanes[keep]
            deficit = deficit[keep]
        at_end = self.now[lanes] >= self.hard_end_eps[lanes]
        ae = at_end.nonzero()[0]
        if ae.size:
            # Engine raises _RunEnded here: recharge_time is *not* booked.
            self._finish(lanes[ae])
            count -= ae.size
            if not count:
                return
            keep = (~at_end).nonzero()[0]
            lanes = lanes[keep]
            deficit = deficit[keep]
        now = self.now[lanes]
        next_cap = self.next_cap[lanes]
        hard = self.hard_end[lanes]
        cap = np.where(next_cap < hard, next_cap, hard)
        local0, k0 = self._fold(now)
        e0 = self._efz(lanes, local0)
        local1, k1 = self._fold(cap)
        e1 = self._efz(lanes, local1)
        e_cap = (k1 - k0) * self.epp[lanes] + e1 - e0
        boundary = cap  # np.where above returned a fresh writable array
        harvested = e_cap
        finishing = (~(e_cap < deficit)).nonzero()[0]
        if finishing.size:
            # Completes within this tick: reproduce the reference boundary
            # computation exactly (time_to_harvest + integrate), replayed
            # elementwise over the finishing subset.
            fin = lanes[finishing]
            t0 = now[finishing]
            wait = self._time_to_harvest_vec(fin, t0, deficit[finishing])
            bnd = t0 + wait
            nc = next_cap[finishing]
            bnd = np.where(nc < bnd, nc, bnd)
            hd = hard[finishing]
            bnd = np.where(hd < bnd, hd, bnd)
            boundary[finishing] = bnd
            harvested[finishing] = self._integrate_vec(fin, t0, bnd)
            # The walk anomalizes non-converging lanes (never in practice).
            alive = self.state[lanes] == _RECHG
            if not alive.all():
                keep = alive.nonzero()[0]
                lanes = lanes[keep]
                if not lanes.size:
                    return
                boundary = boundary[keep]
                harvested = harvested[keep]
                next_cap = next_cap[keep]
        negative = harvested < 0.0
        if negative.any():
            self._anomalize(lanes[negative])
            keep = (~negative).nonzero()[0]
            lanes = lanes[keep]
            if not lanes.size:
                return
            boundary = boundary[keep]
            harvested = harvested[keep]
            next_cap = next_cap[keep]
        energy = self.energy[lanes]
        headroom = self.capacity[lanes] - energy
        stored = np.where(harvested < headroom, harvested, headroom)
        self.energy[lanes] = energy + stored
        self.m_energy_harvested[lanes] += stored
        self.now[lanes] = boundary
        due = (next_cap <= boundary + TIME_EPSILON).nonzero()[0]
        if due.size:
            self._fire_due_captures(lanes[due], next_cap[due], boundary[due])
        # Lanes stay in _RECHG; the next iteration re-checks the deficit.

    def _rech_exit(self, lanes) -> None:
        self.m_recharge_time[lanes] += self.now[lanes] - self.rech_start[lanes]
        if self._trace is not None:
            rows = self._trace_rows
            dev = self._trace_dev[self.trow[lanes]]
            start = self.rech_start[lanes]
            dur = self.now[lanes] - start
            for j in range(lanes.shape[0]):
                if dur[j] > 0.0:
                    rows.append((
                        float(start[j]), "recharge", int(dev[j]),
                        float(dur[j]), {},
                    ))
        cont = self.rech_cont[lanes]
        cnt = np.bincount(cont, minlength=3)
        if cnt[_R_BLOCK]:
            self._block_top(lanes[cont == _R_BLOCK])
        if cnt[_R_FAILURE]:
            fail = lanes[cont == _R_FAILURE]
            # _power_failure: pay the restore cost, then back to the block.
            self.adv_target[fail] = self.now[fail] + self.REST_T
            self.adv_draw[fail] = self.REST_P
            self.adv_has_stop[fail] = False
            self.adv_cont[fail] = _C_RESTORE
            self.state[fail] = _ADV
        if cnt[_R_IDLE]:
            idle = lanes[cont == _R_IDLE]
            resume = self.now[idle] < self.adv_target[idle] - TIME_EPSILON
            back = idle[resume]
            if back.size:
                self.adv_draw[back] = self.sleep_p[back]
                self.adv_stop[back] = 0.0
                self.adv_has_stop[back] = True
                self.adv_cont[back] = _C_IDLE
                self.state[back] = _ADV
            arrived = idle[~resume]
            if arrived.size:
                self.state[arrived] = _CTRL

    # -- vectorized trace walks for the recharge-completion tick --------------

    def _integrate_vec(self, lanes, t0, t1):
        """TraceCursor.integrate (periodic path) over aligned arrays.

        ``k`` stays float64: the fold keeps it integer-valued and far below
        2**53, so ``k * period`` and ``(k1 - k0) * epp`` are bit-equal to
        the scalar int-arithmetic (the ``_fold`` precedent).
        """
        period = self.PERIOD
        k0 = np.floor(t0 / period)
        local0 = t0 - k0 * period
        adjust = local0 >= period
        if adjust.any():
            local0 = np.where(adjust, local0 - period, local0)
            k0 = np.where(adjust, k0 + 1.0, k0)
        e0 = self._efz(lanes, local0)
        k1 = np.floor(t1 / period)
        local1 = t1 - k1 * period
        adjust = local1 >= period
        if adjust.any():
            local1 = np.where(adjust, local1 - period, local1)
            k1 = np.where(adjust, k1 + 1.0, k1)
        e1 = self._efz(lanes, local1)
        out = (k1 - k0) * self.epp[lanes] + e1 - e0
        zero = t1 == t0
        if zero.any():
            out = np.where(zero, 0.0, out)
        return out

    def _time_to_harvest_vec(self, lanes, t0, energy):
        """TraceCursor.time_to_harvest replayed elementwise over ``lanes``.

        The scalar routine is a periodic fast path (whole-period skip) plus
        a fused segment walk; here every lane advances one segment per
        lockstep pass under a shrinking mask, preserving each lane's own
        op sequence exactly.  ``epp > 0`` is guaranteed by eligibility, so
        the starvation branch cannot trigger; where the scalar code would
        raise on non-convergence, the vector path anomalizes the lane so
        it falls back to the scalar engine instead of sinking the batch.
        """
        period = self.PERIOD
        epp = self.epp[lanes]
        out = np.zeros(lanes.shape[0], dtype=np.float64)
        active = energy != 0.0
        remaining = energy.copy()
        t = t0.copy()
        # Whole-period skip.  Masked-out columns ride along; their garbage
        # (inf - inf, etc.) is discarded by the where-blends.
        k = np.floor(t / period)
        local = t - k * period
        adjust = local >= period
        if adjust.any():
            local = np.where(adjust, local - period, local)
            k = np.where(adjust, k + 1.0, k)
        to_boundary = period - local
        e_to_boundary = self._integrate_vec(lanes, t, t + to_boundary)
        skipping = active & (e_to_boundary < remaining)
        if skipping.any():
            remaining = np.where(skipping, remaining - e_to_boundary, remaining)
            t = np.where(skipping, (k + 1.0) * period, t)
            periods = remaining / epp
            n_whole = np.floor(periods)
            skip = n_whole * period
            never = skipping & (
                (periods >= _MAX_HARVEST_PERIODS) | np.isinf(skip)
            )
            if never.any():
                out = np.where(never, np.inf, out)
                active = active & ~never
                skipping = skipping & ~never
            t = np.where(skipping, t + skip, t)
            remaining = np.where(skipping, remaining - n_whole * epp, remaining)
            done = skipping & (remaining <= 0.0)
            if done.any():
                out = np.where(done, t - t0, out)
                active = active & ~done
        # Fused segment walk, one segment per pass in lockstep.
        walk = active & (remaining > 0.0)
        guard = 0
        limit = 10 * self.N + 100
        while True:
            w = walk.nonzero()[0]
            if not w.size:
                break
            guard += 1
            if guard > limit:
                self._anomalize(lanes[w])
                break
            lw = lanes[w]
            tw = t[w]
            k = np.floor(tw / period)
            local = tw - k * period
            adjust = local >= period
            if adjust.any():
                local = np.where(adjust, local - period, local)
                k = np.where(adjust, k + 1.0, k)
            seg = np.minimum(local.astype(np.intp), self.N - 1)
            p = self.powers[self.trow[lw], seg]
            # Integer grid: the scalar "float(seg + 1) if seg + 1 < n else
            # period" collapses to seg + 1 because period == float(n).
            nxt = k * period + self.times_ext[seg + 1]
            low = nxt <= tw
            if low.any():
                nxt = np.where(low, np.nextafter(tw, np.inf), nxt)
            rw = remaining[w]
            harvest = p * (nxt - tw)
            fin = harvest >= rw
            if fin.any():
                wf = w[fin]
                out[wf] = (tw + rw / p)[fin] - t0[wf]
                walk[wf] = False
            cont = ~fin
            if cont.any():
                wc = w[cont]
                remaining[wc] = rw[cont] - harvest[cont]
                t[wc] = nxt[cont]
        return out

    # -------------------------------------------------------------------- run --

    def _flush_trace(self) -> None:
        """Emit buffered rows to the sink (called once per phase)."""
        rows = self._trace_rows
        if not rows:
            return
        emit = self._trace.emit
        for t, kind, device, dur, data in rows:
            emit(TraceEvent(t, kind, device=device, dur=dur, data=data))
        rows.clear()

    @staticmethod
    def _should_handoff(initial, live, iters, window_done, window_iters) -> bool:
        """Adaptive straggler cutoff, from measured live-width decay.

        Hand the surviving lanes to the scalar engine only when both hold:

        * the live width has decayed below ``initial / 64`` — dense
          full-width passes are amortizing over almost nothing; and
        * completions over the trailing ``window_iters`` iterations have
          collapsed below 1/8 of the whole-run average rate — the tail is
          *stalled*, not finishing, so the remaining in-kernel iteration
          count is large compared to a scalar rerun.

        Unlike the old fixed ``D // 64`` cutoff this never fires while the
        tail is still completing lanes at a healthy rate (each window
        re-measures), and it is pure policy: handed-off lanes are re-run
        from scratch on the scalar oracle, so the choice can never change
        a device's metrics (the parity sweep pins this).
        """
        if live == 0 or live * _HANDOFF_WIDTH_DIV > initial or iters <= 0:
            return False
        average_rate = (initial - live) / iters
        window_rate = window_done / window_iters
        return window_rate < average_rate / _HANDOFF_RATE_DIV

    def run(self) -> list[RunMetrics | None]:
        # Backstop far above any real run (spans per simulated second are
        # bounded by segment boundaries + captures + a few per job): lanes
        # still live at the cap are handed to the scalar engine.
        per_lane = self.hard_end / max(self.CAPP, 1e-9) + self.N
        max_iters = int(50 * float(per_lane.max(initial=0.0))) + 10_000
        iters = 0
        initial_width = self.D
        window_mark = _HANDOFF_WINDOW
        window_live = initial_width
        perf = time.perf_counter
        t_ctrl = t_adv = t_rech = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                state = self.state
                width = state.shape[0]
                counts = np.bincount(state, minlength=4)
                dead = int(counts[_DONE])
                if dead == width:
                    break
                if iters >= window_mark:
                    live = width - dead
                    if self._should_handoff(
                        initial_width, live, iters,
                        window_live - live, _HANDOFF_WINDOW,
                    ):
                        self._anomalize((state != _DONE).nonzero()[0])
                        break
                    window_mark = iters + _HANDOFF_WINDOW
                    window_live = live
                if dead >= _COMPACT_MIN and dead * 8 >= width:
                    self._compact(state != _DONE)
                    state = self.state
                iters += 1
                if iters > max_iters:
                    self._anomalize((state != _DONE).nonzero()[0])
                    break
                # Trace rows buffered by a phase's handlers flush inside
                # that phase's timed region: tracing cost is attributed to
                # the phase that produced the events.
                tracing = self._trace is not None
                t0 = perf()
                if counts[_CTRL]:
                    self._ctrl(state == _CTRL, int(counts[_CTRL]))
                    if tracing:
                        self._flush_trace()
                t1 = perf()
                if counts[_ADV]:
                    self._adv(state == _ADV, int(counts[_ADV]))
                    if tracing:
                        self._flush_trace()
                t2 = perf()
                if counts[_RECHG]:
                    self._rech(state == _RECHG, int(counts[_RECHG]))
                    if tracing:
                        self._flush_trace()
                t3 = perf()
                # Span/recharge exits above hand lanes back to CTRL; run
                # their loop-head step now instead of next iteration.  The
                # scalar engine has no iteration boundary between a span's
                # continuation and the next decision, so the per-lane op
                # sequence is unchanged — this only shortens each lane's
                # pass chain (and with it the batch's iteration count).
                post = state == _CTRL
                pc = int(np.count_nonzero(post))
                if pc:
                    self._ctrl(post, pc)
                    if tracing:
                        self._flush_trace()
                t4 = perf()
                t_ctrl += (t1 - t0) + (t4 - t3)
                t_adv += t2 - t1
                t_rech += t3 - t2
        if self._trace is not None:
            self._flush_trace()
        self._harvest(np.arange(self.state.shape[0]))
        self.iterations = iters
        self.ctrl_s = t_ctrl
        self.adv_s = t_adv
        self.rech_s = t_rech
        return self.results

    def _metrics(self, i: int) -> RunMetrics:
        option_use: dict = {}
        ml_task, ml_hi, ml_lo, radio_task, radio_hi, radio_lo = self.opt_names[
            int(self.trow[i])
        ]
        ml_counts = {}
        if self.optc_ml_hi[i]:
            ml_counts[ml_hi] = int(self.optc_ml_hi[i])
        if self.optc_ml_lo[i]:
            ml_counts[ml_lo] = int(self.optc_ml_lo[i])
        if ml_counts:
            option_use[ml_task] = ml_counts
        radio_counts = {}
        if self.optc_radio_hi[i]:
            radio_counts[radio_hi] = int(self.optc_radio_hi[i])
        if self.optc_radio_lo[i]:
            radio_counts[radio_lo] = int(self.optc_radio_lo[i])
        if radio_counts:
            option_use[radio_task] = radio_counts
        return RunMetrics(
            sim_end_s=float(self.m_sim_end[i]),
            captures_total=int(self.cap_idx[i]) - 1,
            captures_active=int(self.m_captures_active[i]),
            captures_interesting=int(self.m_captures_interesting[i]),
            stored=int(self.m_stored[i]),
            ibo_drops=int(self.m_ibo_drops[i]),
            ibo_drops_interesting=int(self.m_ibo_drops_interesting[i]),
            jobs_completed=int(self.m_jobs_completed[i]),
            jobs_degraded=int(self.m_jobs_degraded[i]),
            false_negatives=int(self.m_false_negatives[i]),
            true_negatives=int(self.m_true_negatives[i]),
            packets_interesting_high=int(self.m_packets_ih[i]),
            packets_interesting_low=int(self.m_packets_il[i]),
            packets_uninteresting_high=int(self.m_packets_uh[i]),
            packets_uninteresting_low=int(self.m_packets_ul[i]),
            leftover_total=int(self.m_leftover_total[i]),
            leftover_interesting=int(self.m_leftover_interesting[i]),
            energy_harvested_j=float(self.m_energy_harvested[i]),
            energy_consumed_j=float(self.m_energy_consumed[i]),
            power_failures=int(self.m_power_failures[i]),
            recharge_time_s=float(self.m_recharge_time[i]),
            policy_invocations=int(self.m_policy_invocations[i]),
            option_use=option_use,
        )


# --------------------------------------------------------------------------
# Shard orchestration.
# --------------------------------------------------------------------------

def _build_lanes(spec, chunk, kinds, store=None):
    """Build lanes for a device chunk; returns (vector, scalar, attach_s).

    Lane building allocates large long-lived arrays; cyclic GC passes over
    them are pure overhead, so collection is paused for the build.  Traces,
    schedules, and apps are shared across lanes via per-chunk caches.

    With a :class:`repro.trace.store.TraceStore`, traces and schedules are
    *attached* (zero-copy memmap views, memoized per distinct artifact) in
    place of regeneration; entries missing from the store fall back to the
    generator caches per artifact, so a partial store still helps.
    ``attach_s`` is the seconds spent in store lookups (a subset of the
    caller's lane-build wall time).
    """
    lanes = []
    traces: dict = {}
    schedules: dict = {}
    apps: dict = {}
    attach_s = 0.0
    perf = time.perf_counter
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for device in chunk:
            policy_name, config = spec.device_config(device)
            trace = schedule = None
            if store is not None:
                t0 = perf()
                trace = store.trace_for(config)
                schedule = store.schedule_for(config)
                attach_s += perf() - t0
            lanes.append(
                _Lane(device, policy_name, config, traces, schedules,
                      trace=trace, schedule=schedule)
            )
        vector_lanes = [
            lane for lane in lanes if _lane_eligible(lane, kinds, apps)
        ]
    finally:
        if gc_was_enabled:
            gc.enable()
    scalar_lanes = [lane for lane in lanes if lane.kind is None]
    return vector_lanes, scalar_lanes, attach_s


def _run_lane_groups(vector_lanes, stats: KernelStats | None = None,
                     tracer=None):
    """Run vector lanes through batches; returns [(lane, metrics-or-None)].

    Lanes are grouped by array geometry (trace samples, buffer width) and
    capture period, which the batch hoists to scalars.
    """
    groups: dict[tuple, list[_Lane]] = {}
    for lane in vector_lanes:
        key = (
            lane.trace._times.shape[0],
            lane.sim.buffer_capacity,
            lane.sim.capture_period_s,
        )
        groups.setdefault(key, []).append(lane)
    out = []
    perf = time.perf_counter
    for group in groups.values():
        # The batch kind-sorts its columns internally and returns results
        # in caller order, so groups go in as-is.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf()
            batch = _VectorBatch(group, tracer=tracer)
            t1 = perf()
            results = batch.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        if stats is not None:
            stats.batches += 1
            stats.batch_init_s += t1 - t0
            stats.iterations += batch.iterations
            stats.compactions += batch.compactions
            stats.ctrl_s += batch.ctrl_s
            stats.adv_s += batch.adv_s
            stats.rech_s += batch.rech_s
        out.extend(zip(group, results))
    return out


def vector_shard_outcomes(
    spec, device_range, retries: int = 1, factories=None,
    stats: KernelStats | None = None, tracer=None, store=None,
):
    """Simulate ``device_range`` of ``spec``; return ``{device: outcome}``.

    Outcomes are :class:`RunMetrics` or :class:`RunFailure`, bit-identical
    to what the scalar per-device loop produces.  Devices outside the
    vector envelope (and any lane the kernel flags as anomalous) fall back
    to the scalar engine via ``_attempt_spec``.  Pass a :class:`KernelStats`
    to accumulate the per-phase timing breakdown, and a
    :class:`repro.obs.TraceSink` to record device-stamped timeline events
    (fallback lanes emit through the scalar engine, wrapped in a
    stamping sink, so the stream stays device-attributed either way).
    ``store`` (a :class:`repro.trace.store.TraceStore`) replaces per-lane
    trace/schedule regeneration with zero-copy memmap attach.
    """
    if factories is None:
        from repro.experiments.harness import standard_policies

        factories = standard_policies()
    kinds = _vector_kernel_policies(factories)
    outcomes = {}
    devices = list(device_range)
    perf = time.perf_counter
    for start in range(0, len(devices), _MAX_BATCH):
        chunk = devices[start : start + _MAX_BATCH]
        t0 = perf()
        vector_lanes, scalar_lanes, attach_s = _build_lanes(
            spec, chunk, kinds, store
        )
        if stats is not None:
            stats.lane_build_s += perf() - t0
            stats.attach_s += attach_s
            stats.lanes += len(vector_lanes)
            stats.scalar_lanes += len(scalar_lanes)
        rerun = list(scalar_lanes)
        for lane, metrics in _run_lane_groups(vector_lanes, stats, tracer):
            if metrics is None:
                rerun.append(lane)
                if stats is not None:
                    stats.fallback_lanes += 1
            else:
                outcomes[lane.device] = metrics
        t2 = perf()
        for lane in rerun:
            outcomes[lane.device] = _attempt_spec(
                RunSpec(policy=lane.policy_name, seed=0, config=lane.config),
                factories[lane.policy_name],
                lane.trace,
                lane.schedule,
                retries,
                tracer=(
                    None if tracer is None
                    else stamping_sink(tracer, lane.device)
                ),
            )
        if stats is not None:
            stats.fallback_s += perf() - t2
    return outcomes
