"""Parallel, fault-tolerant execution of experiment run grids.

Every figure, benchmark, and ablation in the reproduction funnels through
the same shape of work: a list of ``(policy, seed, config)`` run specs,
each an independent, deterministic simulation.  This module executes such
spec lists

* **in parallel** — fanned out over a :class:`~concurrent.futures.
  ProcessPoolExecutor` when ``jobs > 1``, with a serial fallback for
  ``jobs=1`` and for platforms without the ``fork`` start method (policy
  factories are arbitrary callables — often lambdas — so workers inherit
  them by forking rather than by pickling);
* **without re-synthesizing inputs** — solar traces and event schedules
  are built once per distinct :meth:`~repro.experiments.configs.
  ExperimentConfig.trace_key` / ``schedule_key`` and shared by every run
  (they are immutable after construction, so sharing is safe);
* **fault-tolerantly** — a run that raises is retried once and, if it
  raises again, recorded as a structured :class:`RunFailure` in the
  result list instead of killing the whole sweep.

Results are returned in spec order regardless of worker count, and each
run's randomness derives only from its config's seeds, so a sweep is
bit-identical at any ``jobs`` setting (``tests/experiments/
test_runner.py`` checks this).
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.env.events import EventSchedule
from repro.errors import ConfigurationError
from repro.experiments.configs import ExperimentConfig
from repro.policies.base import Policy
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import RunMetrics
from repro.trace.power_trace import PowerTrace

__all__ = [
    "RunSpec",
    "RunFailure",
    "GridResults",
    "ExperimentRunner",
    "grid_specs",
    "default_jobs",
    "resolve_jobs",
    "map_indexed",
    "set_default_trace_store",
]

#: A factory producing a *fresh* policy instance per run attempt.
PolicyFactory = Callable[[], Policy]


@dataclass(frozen=True)
class RunSpec:
    """One simulation run: a named policy on a seed-shifted config.

    Attributes
    ----------
    policy:
        Grid name of the policy (the key into the factory mapping).
    seed:
        Seed offset applied via :meth:`ExperimentConfig.with_seeds`.
    config:
        The *base* (unshifted) experiment configuration.
    """

    policy: str
    seed: int
    config: ExperimentConfig

    def seeded_config(self) -> ExperimentConfig:
        return self.config.with_seeds(self.seed)


@dataclass(frozen=True)
class RunFailure:
    """A run that raised on its initial attempt and its retry.

    Attributes
    ----------
    policy / seed:
        Identify the failed spec within the sweep.
    error:
        ``repr`` of the final exception.
    traceback:
        Full formatted traceback of the final attempt.
    """

    policy: str
    seed: int
    error: str
    traceback: str

    def __str__(self) -> str:
        return f"run ({self.policy!r}, seed {self.seed}) failed: {self.error}"


class GridResults(dict):
    """``name -> AggregateMetrics`` mapping plus structured failures.

    Behaves exactly like the plain dict :func:`~repro.experiments.harness.
    run_grid` used to return; sweeps with failed runs expose them on
    :attr:`failures` (a policy whose every replica failed has no
    aggregate entry).
    """

    def __init__(self, results=(), failures: Sequence[RunFailure] = ()) -> None:
        super().__init__(results)
        self.failures: list[RunFailure] = list(failures)

    @property
    def ok(self) -> bool:
        """True when every run in the sweep completed."""
        return not self.failures


def default_jobs() -> int:
    """Worker count for ``jobs=None`` / ``jobs=0``: one per CPU."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a jobs setting: ``None``/``0`` mean one worker per CPU.

    Every parallelism knob in the repo (``--jobs``, ``BENCH_JOBS``,
    :class:`ExperimentRunner`, :func:`repro.fleet.run_fleet`) funnels
    through this, so ``0`` is "one per CPU" everywhere rather than only
    on the ``repro.experiments`` CLI.
    """
    if jobs is None or jobs == 0:
        return default_jobs()
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0 (0 = one per CPU), got {jobs}")
    return jobs


#: Fallback store for runners constructed without an explicit
#: ``trace_store`` — the hook ``python -m repro.experiments
#: --trace-store`` uses to thread a store through every figure's grids
#: without widening each figure function's signature.
_default_trace_store = None


def set_default_trace_store(store) -> None:
    """Install the process-wide default read-through :class:`TraceStore`.

    ``None`` clears it.  Runners constructed *after* this call (with no
    explicit ``trace_store``) read their grid inputs through the store;
    results are byte-identical either way, so this is purely a setup-time
    optimization knob.
    """
    global _default_trace_store
    _default_trace_store = store


def grid_specs(
    config: ExperimentConfig,
    policies: Mapping[str, PolicyFactory],
    seeds: Sequence[int],
) -> list[RunSpec]:
    """The spec list for a policy grid, in grid order (policy-major)."""
    return [
        RunSpec(policy=name, seed=offset, config=config)
        for name in policies
        for offset in seeds
    ]


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# Worker-side execution.
#
# Parallel workers are forked *after* the parent installs the shared worker
# below, so arbitrary (unpicklable) state — policy factories, prebuilt
# trace/schedule caches, whole fleet shards — is inherited by memory image;
# submissions only cross the pipe as indices and results come back as
# picklable values.
# ---------------------------------------------------------------------------

_shared_worker: Callable[[int], object] | None = None


def _indexed_call(index: int) -> tuple[int, object]:
    worker = _shared_worker
    assert worker is not None, "worker process forked without shared worker"
    return index, worker(index)


def map_indexed(
    worker: Callable[[int], object],
    count: int,
    jobs: int | None = 1,
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """Run ``worker(0) .. worker(count-1)``, fanned over forked processes.

    The reusable fan-out under both the experiment grid and the fleet
    shard executor.  ``worker`` may close over arbitrary unpicklable state
    (inherited by fork); its *results* must be picklable.  Results are
    returned in index order regardless of worker count, and ``on_result``
    (if given) is invoked *as each result arrives*, in completion order —
    fleet checkpointing journals each shard from it, so a finished shard
    is durable even while earlier-indexed shards are still running.
    Callers needing a deterministic fold must do it over the returned
    (index-ordered) list, not from ``on_result``.  Platforms without the
    ``fork`` start method, ``jobs=1``, and single-item maps all run
    serially in-process.
    """
    jobs = resolve_jobs(jobs)
    results: list = [None] * count
    if jobs > 1 and count > 1 and _fork_available():
        global _shared_worker
        if _shared_worker is not None:
            raise ConfigurationError(
                "map_indexed does not support nested parallel maps"
            )
        _shared_worker = worker
        try:
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                max_workers=min(jobs, count), mp_context=context
            ) as pool:
                futures = [pool.submit(_indexed_call, index) for index in range(count)]
                for future in as_completed(futures):
                    index, outcome = future.result()
                    results[index] = outcome
                    if on_result is not None:
                        on_result(index, outcome)
        finally:
            _shared_worker = None
        return results
    for index in range(count):
        results[index] = worker(index)
        if on_result is not None:
            on_result(index, results[index])
    return results


def _execute_spec(
    spec: RunSpec,
    factory: PolicyFactory,
    trace: PowerTrace,
    schedule: EventSchedule,
    tracer=None,
) -> RunMetrics:
    """Run one spec once with prebuilt inputs (fresh engine and policy)."""
    cfg = spec.seeded_config()
    engine = SimulationEngine(
        app=cfg.build_app(),
        policy=factory(),
        trace=trace,
        schedule=schedule,
        mcu=cfg.mcu,
        storage=cfg.build_storage(),
        config=cfg.build_sim_config(),
        tracer=tracer,
    )
    return engine.run()


def _attempt_spec(
    spec: RunSpec,
    factory: PolicyFactory,
    trace: PowerTrace,
    schedule: EventSchedule,
    retries: int,
    tracer=None,
) -> RunMetrics | RunFailure:
    """Run one spec, retrying ``retries`` times before recording failure."""
    for attempt in range(retries + 1):
        try:
            return _execute_spec(spec, factory, trace, schedule, tracer=tracer)
        except Exception as exc:  # noqa: BLE001 - failures become data
            if attempt >= retries:
                return RunFailure(
                    policy=spec.policy,
                    seed=spec.seed,
                    error=repr(exc),
                    traceback=traceback.format_exc(),
                )
    raise AssertionError("unreachable")  # pragma: no cover


class ExperimentRunner:
    """Executes run-spec lists, optionally across worker processes.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (the default) runs serially in-process and
        ``None`` or ``0`` use one worker per CPU.  Platforms without the
        ``fork`` start method always run serially (factories need not be
        picklable).
    retries:
        How many times a raising run is re-attempted (fresh policy and
        engine each time) before it is recorded as a :class:`RunFailure`.
    trace_store:
        Optional :class:`~repro.trace.store.TraceStore` (or a store
        directory path) the per-grid input cache reads through: configs
        whose trace/schedule the store holds attach the memory-mapped
        arrays instead of regenerating them, and entries the store lacks
        fall back to the generators silently — results are byte-identical
        either way.  Defaults to the process-wide store installed via
        :func:`set_default_trace_store` (usually none).  This is the
        fleet path's persistent artifact layer generalized to grids: the
        same ``(params, seed)`` entry is shared across *different* grids
        and fleet specs because the store key ignores everything else.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        retries: int = 1,
        trace_store=None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        if trace_store is None:
            trace_store = _default_trace_store
        if isinstance(trace_store, str):
            from repro.trace.store import TraceStore

            trace_store = TraceStore.open(trace_store)
        self.trace_store = trace_store

    # -- input caching -----------------------------------------------------------

    @staticmethod
    def build_caches(specs: Sequence[RunSpec]) -> tuple[dict, dict]:
        """Build each distinct trace/schedule exactly once.

        Replicas of the same config share the trace (seed offsets shift
        only the schedule and classification streams), so a grid of P
        policies x S seeds builds 1 trace and S schedules instead of
        P x S of each.
        """
        traces: dict = {}
        schedules: dict = {}
        for spec in specs:
            cfg = spec.seeded_config()
            t_key = cfg.trace_key()
            if t_key not in traces:
                traces[t_key] = cfg.build_trace()
            s_key = cfg.schedule_key()
            if s_key not in schedules:
                schedules[s_key] = cfg.build_schedule()
        return traces, schedules

    def _build_caches(self, specs: Sequence[RunSpec]) -> tuple[dict, dict]:
        """The per-grid input cache, reading through ``self.trace_store``.

        Identical to :meth:`build_caches` when no store is attached; with
        one, each distinct key is first looked up in the store (zero-copy
        mmap attach) and only generated on a miss.
        """
        store = self.trace_store
        if store is None:
            return self.build_caches(specs)
        traces: dict = {}
        schedules: dict = {}
        for spec in specs:
            cfg = spec.seeded_config()
            t_key = cfg.trace_key()
            if t_key not in traces:
                attached = store.trace_for(cfg)
                traces[t_key] = attached if attached is not None else cfg.build_trace()
            s_key = cfg.schedule_key()
            if s_key not in schedules:
                attached = store.schedule_for(cfg)
                schedules[s_key] = (
                    attached if attached is not None else cfg.build_schedule()
                )
        return traces, schedules

    # -- execution ---------------------------------------------------------------

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        factories: Mapping[str, PolicyFactory],
    ) -> list[RunMetrics | RunFailure]:
        """Run every spec; results are returned in spec order.

        Raises :class:`ConfigurationError` if a spec names a policy absent
        from ``factories`` (a wiring bug, not a run failure).
        """
        specs = list(specs)
        for spec in specs:
            if spec.policy not in factories:
                raise ConfigurationError(
                    f"spec names unknown policy {spec.policy!r}"
                )
        traces, schedules = self._build_caches(specs)
        retries = self.retries

        def run_one(index: int) -> RunMetrics | RunFailure:
            spec = specs[index]
            seeded = spec.seeded_config()
            return _attempt_spec(
                spec,
                factories[spec.policy],
                traces[seeded.trace_key()],
                schedules[seeded.schedule_key()],
                retries,
            )

        return map_indexed(run_one, len(specs), self.jobs)
