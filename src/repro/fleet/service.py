"""The fleet batch-simulation service.

:func:`run_fleet` simulates every device of a :class:`FleetSpec`, sharded
across worker processes on the experiment runner's fork fan-out
(:func:`repro.experiments.runner.map_indexed`), and stream-aggregates the
results: each shard folds its devices into one constant-size
:class:`~repro.fleet.rollup.FleetRollup` as they complete, shard rollups
are journaled to the optional checkpoint directory the moment they
arrive, and the fleet total is the shard-order merge.  No per-device
metrics list ever exists — memory is O(shards + policies), not
O(devices).

Determinism contract (pinned by ``tests/fleet/``): for a given spec the
final rollup is bit-identical for any ``shards``/``jobs`` setting, and a
killed run resumed from its checkpoint equals an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.experiments.harness import standard_policies
from repro.experiments.runner import RunFailure, RunSpec, _attempt_spec, map_indexed
from repro.fleet.checkpoint import FleetCheckpoint
from repro.fleet.rollup import FleetRollup
from repro.fleet.spec import FleetSpec, shard_ranges
from repro.obs.events import TraceEvent
from repro.obs.tracer import RingBufferTracer, stamping_sink

__all__ = ["FleetResult", "resolve_kernel", "run_fleet", "run_shard"]


@dataclass
class FleetResult:
    """Outcome of one :func:`run_fleet` call.

    Attributes
    ----------
    spec / shards:
        The fleet recipe and the shard count it ran under.
    rollup:
        Fleet-total :class:`FleetRollup` (over every completed shard).
    computed_shards / resumed_shards:
        How many shards were simulated by this call vs restored from the
        checkpoint journal.
    complete:
        False when ``stop_after`` cut the run short (the checkpoint holds
        the completed shards; resume to finish).
    """

    spec: FleetSpec
    shards: int
    rollup: FleetRollup
    computed_shards: int = 0
    resumed_shards: int = 0
    complete: bool = True
    pending_shards: list = field(default_factory=list)

    def summary(self) -> dict:
        return self.rollup.summary()

    def render(self) -> str:
        header = (
            f"=== Fleet '{self.spec.name}': {self.spec.devices} devices, "
            f"{self.shards} shard(s) "
            f"({self.resumed_shards} resumed, {self.computed_shards} computed) ==="
        )
        body = self.rollup.render()
        if self.complete:
            return f"{header}\n{body}"
        return (
            f"{header}\n{body}\n"
            f"INCOMPLETE: shards {self.pending_shards} not yet run "
            f"(resume with --resume)"
        )


_KERNELS = ("scalar", "vector", "auto")


def _resolve_store(trace_store):
    """Normalize ``trace_store``: a directory path opens a TraceStore.

    Resolved once in the parent before the shard fan-out — forked workers
    inherit the already-parsed manifest and the read-only file mappings,
    so attaching a store adds no per-worker setup and no extra RSS (the
    mapped pages are shared).
    """
    if trace_store is None or isinstance(trace_store, str):
        if trace_store is None:
            return None
        from repro.trace.store import TraceStore

        return TraceStore.open(trace_store)
    return trace_store


def resolve_kernel(spec: FleetSpec, kernel: str, factories=None) -> str:
    """Collapse ``"auto"`` to a concrete kernel for ``spec``.

    ``auto`` picks the vector kernel when *every* policy in the spec's
    mix is inside the vector envelope (:func:`VECTOR_KERNEL_POLICIES`),
    and the scalar engine otherwise — a spec-level decision, so every
    shard of a fleet resolves identically.  Explicit kernels pass
    through unchanged (``"vector"`` still falls back per device for
    anything outside the envelope).
    """
    if kernel not in _KERNELS:
        raise ConfigurationError(
            f"kernel must be one of {_KERNELS}, got {kernel!r}"
        )
    if kernel != "auto":
        return kernel
    from repro.fleet.kernel import VECTOR_KERNEL_POLICIES

    if factories is None:
        factories = standard_policies()
    covered = VECTOR_KERNEL_POLICIES(factories)
    return "vector" if set(spec.policies) <= covered else "scalar"


def run_shard(
    spec: FleetSpec,
    shards: int,
    shard: int,
    retries: int = 1,
    kernel: str = "scalar",
    stats=None,
    tracer=None,
    trace_store=None,
) -> FleetRollup:
    """Simulate one shard's devices, folding outcomes in device order.

    Pure function of ``(spec, shards, shard)`` — the unit of recomputation
    for checkpoint resume.  ``kernel`` selects *how* the shard is
    simulated, never *what* it computes: ``"scalar"`` builds each device
    from scratch (derived config, fresh policy/trace/schedule/engine) and
    runs it on the reference engine; ``"vector"`` advances the shard's
    baseline-policy devices in lockstep on the numpy struct-of-arrays
    kernel (:mod:`repro.fleet.kernel`), which produces bit-identical
    per-device metrics and falls back to the scalar engine for any device
    outside its envelope (Quetzal policies included); ``"auto"`` resolves
    per :func:`resolve_kernel`.  Either way the rollup fold happens in
    ascending device order, failures become rollup failure records (never
    raised), and the result is kernel-independent.  ``stats`` optionally
    receives the vector kernel's per-phase timing
    (:class:`repro.fleet.kernel.KernelStats`) — pure telemetry, never
    part of the rollup.  ``tracer`` optionally receives device-stamped
    :class:`~repro.obs.events.TraceEvent` rows from every device in the
    shard (same observability status: never journaled, never part of the
    rollup, and the rollup stays bit-identical with or without it).
    ``trace_store`` optionally names (or is) a
    :class:`~repro.trace.store.TraceStore`; devices whose trace/schedule
    the store holds attach the memory-mapped arrays instead of
    regenerating them — a pure setup-time optimization, pinned
    byte-identical to the generator path by ``tests/fleet``.  Missing
    entries fall back to the generators silently.
    """
    kernel = resolve_kernel(spec, kernel)
    device_range = shard_ranges(spec.devices, shards)[shard]
    factories = standard_policies()
    store = _resolve_store(trace_store)
    rollup = FleetRollup()
    if kernel == "vector":
        from repro.fleet.kernel import vector_shard_outcomes

        outcomes = vector_shard_outcomes(
            spec, device_range, retries=retries, factories=factories,
            stats=stats, tracer=tracer, store=store,
        )
        for device in device_range:
            policy_name = spec.device_config(device)[0]
            outcome = outcomes[device]
            if isinstance(outcome, RunFailure):
                rollup.observe_failure(device, policy_name, outcome.error)
            else:
                rollup.observe_metrics(device, policy_name, outcome)
        return rollup
    for device in device_range:
        policy_name, config = spec.device_config(device)
        trace = schedule = None
        if store is not None:
            trace = store.trace_for(config)
            schedule = store.schedule_for(config)
        outcome = _attempt_spec(
            RunSpec(policy=policy_name, seed=0, config=config),
            factories[policy_name],
            trace if trace is not None else config.build_trace(),
            schedule if schedule is not None else config.build_schedule(),
            retries,
            tracer=None if tracer is None else stamping_sink(tracer, device),
        )
        if isinstance(outcome, RunFailure):
            rollup.observe_failure(device, policy_name, outcome.error)
        else:
            rollup.observe_metrics(device, policy_name, outcome)
    return rollup


def run_fleet(
    spec: FleetSpec,
    *,
    shards: int = 1,
    jobs: int | None = 1,
    checkpoint: str | None = None,
    resume: bool = False,
    retries: int = 1,
    kernel: str = "scalar",
    recorder=None,
    stop_after: int | None = None,
    progress=None,
    trace=None,
    heartbeat=None,
    trace_store=None,
) -> FleetResult:
    """Run a whole fleet, sharded, stream-aggregated, and resumable.

    Parameters
    ----------
    spec:
        The fleet recipe (see :class:`FleetSpec`).
    shards:
        Work units the device range is split into (clamped to the fleet
        size).  More shards = finer checkpoint granularity and better
        fan-out; the result is bit-identical at any setting.
    jobs:
        Worker processes shards fan out over (``0``/``None`` = one per
        CPU, ``1`` = serial in-process), exactly like ``run_grid``.
    checkpoint:
        Directory to journal completed shards into (created if needed).
    resume:
        Load previously journaled shards from ``checkpoint`` instead of
        recomputing them (requires a matching manifest).
    retries:
        Per-device retry count before a run becomes a failure record.
    kernel:
        ``"scalar"`` (default) runs one reference engine per device;
        ``"vector"`` runs each shard's baseline-policy devices on the
        lockstep numpy kernel (bit-identical rollup; Quetzal and other
        uncovered devices fall back to the scalar engine automatically);
        ``"auto"`` picks vector when every policy in the spec's mix is
        inside the vector envelope, scalar otherwise (see
        :func:`resolve_kernel`), logging the choice via ``progress``.
    recorder:
        Optional :class:`repro.sim.telemetry.FleetRecorder`; receives one
        ``on_shard`` call per shard (in shard order) and ``on_fleet_end``
        with the total rollup.
    stop_after:
        Simulate a kill: journal only this many not-yet-done shards, then
        return an incomplete result (requires ``checkpoint``).  This is
        what ``make invariance`` and the resume tests drive.
    progress:
        Optional ``callable(str)`` for human-readable progress lines.
    trace:
        Optional :class:`repro.obs.TraceSink` receiving the fleet's
        device-stamped timeline events.  Workers record into a local
        bounded ring, ship the retained window back in the shard payload,
        and the parent folds windows in **shard order**, so the merged
        stream is deterministic for any ``jobs`` setting.  Resumed shards
        contribute no events (the checkpoint journal stays trace-free and
        kernel-invariant).
    heartbeat:
        Optional :class:`repro.obs.HeartbeatPublisher`; receives
        ``start``, one throttled ``on_shard`` per completed shard (in
        completion order — this is wall-clock telemetry, not part of the
        deterministic result), and ``finish``.
    trace_store:
        Optional :class:`~repro.trace.store.TraceStore` (or a store
        directory path) of prebuilt traces/schedules; see
        :func:`run_shard`.  The store is opened once here and inherited
        by forked shard workers, and the rollup is byte-identical with
        or without it.
    """
    shards = min(max(1, shards), spec.devices)
    trace_store = _resolve_store(trace_store)
    requested_kernel = kernel
    kernel = resolve_kernel(spec, kernel)
    if requested_kernel == "auto" and progress is not None:
        progress(
            f"[fleet] kernel auto -> {kernel} "
            f"(policies: {', '.join(spec.policies)})"
        )
    if stop_after is not None:
        if checkpoint is None:
            raise ConfigurationError("stop_after requires a checkpoint directory")
        if stop_after < 0:
            raise ConfigurationError(f"stop_after must be >= 0, got {stop_after}")

    journal = None
    done: dict[int, FleetRollup] = {}
    if checkpoint is not None:
        journal = FleetCheckpoint(checkpoint, spec, shards)
        done = journal.initialize(resume)
    elif resume:
        raise ConfigurationError("resume requires a checkpoint directory")
    if progress is not None and done:
        progress(f"[fleet] resumed {len(done)} of {shards} shard(s) from journal")

    pending = [shard for shard in range(shards) if shard not in done]
    cut = pending[stop_after:] if stop_after is not None else []
    if cut:
        pending = pending[:stop_after]

    if heartbeat is not None:
        heartbeat.start(
            fleet=spec.name, devices=spec.devices, shards=shards, kernel=kernel
        )
    resumed_devices = sum(rollup.devices for rollup in done.values())
    beat = {
        "shards_done": len(done),
        "devices_done": resumed_devices,
        "phase_seconds": None,
    }
    trace_capacity = getattr(trace, "capacity", None)

    def worker(position: int) -> dict:
        # The payload carries the rollup (the result) plus pure telemetry:
        # the vector kernel's per-phase timing and the shard's retained
        # trace window.  Only the rollup ever reaches the checkpoint
        # journal — resumed shards have no stats or trace, and the journal
        # format is kernel- and observability-invariant.
        stats = None
        if kernel == "vector":
            from repro.fleet.kernel import KernelStats

            stats = KernelStats()
        local = None
        if trace is not None:
            local = (
                RingBufferTracer() if trace_capacity is None
                else RingBufferTracer(trace_capacity)
            )
        rollup = run_shard(
            spec, shards, pending[position], retries, kernel=kernel,
            stats=stats, tracer=local, trace_store=trace_store,
        )
        payload = {"rollup": rollup.to_dict(), "kernel_stats": stats}
        if local is not None:
            payload["trace"] = [event.as_dict() for event in local.events()]
            payload["trace_dropped"] = local.dropped
        return payload

    def journal_result(position: int, payload: dict) -> None:
        shard = pending[position]
        if journal is not None:
            journal.write_shard(shard, FleetRollup.from_dict(payload["rollup"]))
        if progress is not None:
            progress(
                f"[fleet] shard {shard} done "
                f"({payload['rollup']['devices']} devices)"
            )
        if heartbeat is not None:
            beat["shards_done"] += 1
            beat["devices_done"] += payload["rollup"]["devices"]
            stats = payload["kernel_stats"]
            if stats is not None:
                phases = beat["phase_seconds"] or {}
                for key in ("setup_s", "ctrl_s", "adv_s", "rech_s", "fallback_s"):
                    phases[key] = phases.get(key, 0.0) + getattr(stats, key)
                beat["phase_seconds"] = phases
            heartbeat.on_shard(
                shards_done=beat["shards_done"],
                shards_total=shards,
                devices_done=beat["devices_done"],
                devices_total=spec.devices,
                kernel=kernel,
                phase_seconds=beat["phase_seconds"],
            )

    payloads = map_indexed(worker, len(pending), jobs, on_result=journal_result)
    computed = {}
    for shard, payload in zip(pending, payloads):
        computed[shard] = (
            FleetRollup.from_dict(payload["rollup"]), payload["kernel_stats"]
        )
        if trace is not None and "trace" in payload:
            # Fold each shard's window in shard order: the merged stream
            # is deterministic for any jobs setting.
            absorb = getattr(trace, "absorb_rows", None)
            if absorb is not None:
                absorb(payload["trace"], payload.get("trace_dropped", 0))
            else:
                for row in payload["trace"]:
                    trace.emit(TraceEvent.from_dict(row))

    total = FleetRollup()
    for shard in range(shards):
        if shard in done:
            rollup, stats = done[shard], None
        elif shard in computed:
            rollup, stats = computed[shard]
        else:
            continue
        if recorder is not None:
            recorder.on_shard(
                shard, rollup, resumed=shard in done, kernel_stats=stats
            )
        total.merge(rollup)

    result = FleetResult(
        spec=spec,
        shards=shards,
        rollup=total,
        computed_shards=len(computed),
        resumed_shards=len(done),
        complete=not cut,
        pending_shards=cut,
    )
    if recorder is not None:
        recorder.on_fleet_end(total)
    if heartbeat is not None:
        heartbeat.finish(
            devices=total.devices,
            failures=total.failure_count,
            complete=not cut,
            kernel=kernel,
            phase_seconds=beat["phase_seconds"],
        )
    if progress is not None:
        progress(
            f"[fleet] {total.devices} devices folded; "
            f"{total.failure_count} failed"
        )
    return result
