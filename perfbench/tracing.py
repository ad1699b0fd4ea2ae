"""Layer spans for the traced benchmark run.

The traced run wraps the public entry point of each layer of the
``repro`` package from here, outside ``src/``: every call into a wrapped
function becomes one span ``(id, name, start, end, parent, request)``.
Spans are kept in memory as flat float rows (one ``array.extend`` per
span, which is atomic under the interpreter lock, so the serve tier's
loop and executor threads can record concurrently) and written out once
the run ends.  A layer's self time is its spans' duration minus the part
covered by their child spans.

Spans whose thread has no open span are parented to the benchmark's
current request span: the serve workload's client is a closed loop with
one request in flight, so work on the server's threads belongs to it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

#: Span row layout, as written to ``spans-*.npy``.
COLUMNS = ("id", "name", "start_s", "end_s", "parent", "request")


class SpanRecorder:
    """In-memory span log plus per-name self-time and call totals."""

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._rows = array("d")
        self._ids = itertools.count()
        self._local = threading.local()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.request = -1
        self.request_kind = ""
        self._request_frame = None
        self._request_state = None
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- spans -------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list, list, float]:
        stack = self._stack()
        parent = stack[-1] if stack else self._request_frame
        # frame = [span id, summed child duration]
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        return stack, parent, time.perf_counter()

    def _close(self, name: str, stack, parent, frame_start: float) -> None:
        end = time.perf_counter()
        frame = stack.pop()
        duration = end - frame_start
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        if parent is not None:
            parent[1] += duration
        self._rows.extend((
            frame[0], self._name_id(name), frame_start - self._t0,
            end - self._t0, -1 if parent is None else parent[0], self.request,
        ))

    def begin_request(self, request: int, kind: str) -> None:
        """Open the span every server-side span of ``request`` hangs off."""
        self.request = request
        self.request_kind = kind
        stack, parent, start = self._open()
        self._request_frame = stack[-1]
        self._request_state = (stack, parent, start)

    def end_request(self) -> None:
        stack, parent, start = self._request_state
        self._close(f"bench.{self.request_kind}_request", stack, parent, start)
        self._request_frame = None
        self.request = -1
        self.request_kind = ""

    def wrap(self, name: str, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(recorder, args, result)``
        counts its work."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, parent, start = recorder._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(name, stack, parent, start)
            if observe is not None:
                observe(recorder, args, result)
            return result

        return traced

    # -- installing wrappers -----------------------------------------------------

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` (class or module) by its traced wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__, observe))
        else:
            wrapped = self.wrap(name, raw, observe)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (latest first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._rows) // len(COLUMNS)

    def spans(self) -> np.ndarray:
        rows = np.frombuffer(self._rows, dtype=np.float64).reshape(-1, len(COLUMNS))
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def write(self, stem) -> None:
        """Write ``<stem>.npy`` (span rows) and ``<stem>.json`` (legend)."""
        np.save(f"{stem}.npy", self.spans())
        legend = {
            "workload": self.workload,
            "run_id": self.run_id,
            "columns": list(COLUMNS),
            "names": self.names,
            "spans": self.span_count,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
        }
        with open(f"{stem}.json", "w") as handle:
            json.dump(legend, handle, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# The layer entry points the traced run wraps.
# ---------------------------------------------------------------------------


def _count_runs(recorder, args, metrics) -> None:
    recorder.counters["decision_cache_hits"] += metrics.decision_cache_hits
    recorder.counters["decision_cache_misses"] += metrics.decision_cache_misses


def _count_store_build(recorder, args, built) -> None:
    recorder.counters["store_entries_built"] += built["traces"] + built["schedules"]
    recorder.counters["store_entries_reused"] += built["reused"]


def _count_specs(recorder, args, results) -> None:
    recorder.counters["experiments_runs"] += len(results)


def _count_shard(recorder, args, rollup) -> None:
    if recorder.request_kind == "hit":
        recorder.counters["shards_recomputed_on_hit"] += 1


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points (undo with ``uninstall``)."""
    import repro.fleet.service as fleet_service
    import repro.serve.server as serve_server
    from repro.core.runtime import QuetzalRuntime
    from repro.env.activity import SensingEnvironment
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.runner import ExperimentRunner
    from repro.fleet.checkpoint import FleetCheckpoint
    from repro.fleet.rollup import FleetRollup
    from repro.policies.base import Policy
    from repro.serve.cache import ResultCache
    from repro.sim.engine import SimulationEngine
    from repro.trace.store import TraceStore

    patch = recorder.patch
    patch(SimulationEngine, "run", "sim.run", _count_runs)
    # The fast decision path rebinds ``select`` per instance to
    # ``_select_fast``, so both class functions are wrapped.
    patch(QuetzalRuntime, "select", "core.select")
    patch(QuetzalRuntime, "_select_fast", "core.select")
    pending = list(Policy.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if not issubclass(cls, QuetzalRuntime) and "select" in cls.__dict__:
            patch(cls, "select", "policies.select")
    patch(ExperimentConfig, "build_trace", "trace.build")
    patch(SensingEnvironment, "schedule", "env.schedule_build")
    patch(TraceStore, "build_for_spec", "trace.store_build", _count_store_build)
    patch(TraceStore, "trace_for", "trace.store_attach")
    patch(TraceStore, "schedule_for", "trace.store_attach")
    patch(fleet_service, "run_shard", "fleet.shard", _count_shard)
    patch(FleetRollup, "merge", "fleet.rollup_merge")
    patch(FleetCheckpoint, "write_shard", "fleet.journal_write")
    patch(ExperimentRunner, "build_caches", "experiments.cache_build")
    patch(ExperimentRunner, "_build_caches", "experiments.cache_build")
    patch(ExperimentRunner, "run_specs", "experiments.run_specs", _count_specs)
    patch(ResultCache, "get", "serve.cache_get")
    patch(ResultCache, "put", "serve.cache_put")
    patch(serve_server, "run_fleet", "serve.run_fleet")


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better).  Times are self times.
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("sim.run_s", "s", "lower"),
    ("sim.runs", "count", "lower"),
    ("core.select_s", "s", "lower"),
    ("core.select_calls", "count", "lower"),
    ("core.decision_cache_hit_ratio", "ratio", "higher"),
    ("core.decision_cache_lookups", "count", "lower"),
    ("policies.select_s", "s", "lower"),
    ("policies.select_calls", "count", "lower"),
    ("trace.build_s", "s", "lower"),
    ("trace.builds", "count", "lower"),
    ("env.schedule_build_s", "s", "lower"),
    ("env.schedule_builds", "count", "lower"),
    ("trace.store_build_s", "s", "lower"),
    ("trace.store_entries_built", "count", "lower"),
    ("trace.store_entries_reused", "count", "higher"),
    ("trace.store_attach_s", "s", "lower"),
    ("fleet.shard_s", "s", "lower"),
    ("fleet.shards", "count", "lower"),
    ("fleet.rollup_merge_s", "s", "lower"),
    ("fleet.journal_write_s", "s", "lower"),
    ("fleet.journal_writes", "count", "lower"),
    ("fleet.kernel.lane_build_s", "s", "lower"),
    ("fleet.kernel.batch_init_s", "s", "lower"),
    ("fleet.kernel.ctrl_s", "s", "lower"),
    ("fleet.kernel.adv_s", "s", "lower"),
    ("fleet.kernel.rech_s", "s", "lower"),
    ("fleet.kernel.fallback_s", "s", "lower"),
    ("fleet.kernel.iterations", "count", "lower"),
    ("fleet.kernel.compactions", "count", "lower"),
    ("fleet.kernel.fallback_lanes", "count", "lower"),
    ("fleet.kernel.vector_lane_ratio", "ratio", "higher"),
    ("experiments.runs", "count", "lower"),
    ("experiments.cache_build_s", "s", "lower"),
    ("serve.cache_get_s", "s", "lower"),
    ("serve.cache_gets", "count", "lower"),
    ("serve.cache_put_s", "s", "lower"),
    ("serve.cache_puts", "count", "lower"),
    ("serve.run_fleet_s", "s", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.shards_recomputed_on_hit", "count", "lower"),
    ("tracing.spans", "count", "lower"),
    ("tracing.overhead_s", "s", "lower"),
)

#: Metrics that must repeat exactly across traced runs with one seed.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "ratio"))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder: SpanRecorder, kernel_stats, serve_cache) -> dict:
    """The per-layer metric values (``PER_LAYER`` order, overhead excluded).

    ``kernel_stats`` is the fleet recorder's merged ``KernelStats`` (or
    None when no shard ran on the vector kernel); ``serve_cache`` is the
    served ``ResultCache`` (or None outside the serve workload).
    """
    self_s, calls, counters = recorder.self_s, recorder.calls, recorder.counters
    hits, misses = counters["decision_cache_hits"], counters["decision_cache_misses"]
    values = {
        "sim.run_s": self_s["sim.run"],
        "sim.runs": calls["sim.run"],
        "core.select_s": self_s["core.select"],
        "core.select_calls": calls["core.select"],
        "core.decision_cache_hit_ratio": _ratio(hits, hits + misses),
        "core.decision_cache_lookups": hits + misses,
        "policies.select_s": self_s["policies.select"],
        "policies.select_calls": calls["policies.select"],
        "trace.build_s": self_s["trace.build"],
        "trace.builds": calls["trace.build"],
        "env.schedule_build_s": self_s["env.schedule_build"],
        "env.schedule_builds": calls["env.schedule_build"],
        "trace.store_build_s": self_s["trace.store_build"],
        "trace.store_entries_built": counters["store_entries_built"],
        "trace.store_entries_reused": counters["store_entries_reused"],
        "trace.store_attach_s": self_s["trace.store_attach"],
        "fleet.shard_s": self_s["fleet.shard"],
        "fleet.shards": calls["fleet.shard"],
        "fleet.rollup_merge_s": self_s["fleet.rollup_merge"],
        "fleet.journal_write_s": self_s["fleet.journal_write"],
        "fleet.journal_writes": calls["fleet.journal_write"],
        "experiments.runs": counters["experiments_runs"],
        "experiments.cache_build_s": self_s["experiments.cache_build"],
        "serve.cache_get_s": self_s["serve.cache_get"],
        "serve.cache_gets": calls["serve.cache_get"],
        "serve.cache_put_s": self_s["serve.cache_put"],
        "serve.cache_puts": calls["serve.cache_put"],
        "serve.run_fleet_s": self_s["serve.run_fleet"],
        "serve.shards_recomputed_on_hit": counters["shards_recomputed_on_hit"],
        "tracing.spans": recorder.span_count,
    }
    stats = kernel_stats
    for field in ("lane_build_s", "batch_init_s", "ctrl_s", "adv_s", "rech_s",
                  "fallback_s", "iterations", "compactions", "fallback_lanes"):
        values[f"fleet.kernel.{field}"] = getattr(stats, field) if stats else 0
    lanes = stats.lanes if stats else 0
    values["fleet.kernel.vector_lane_ratio"] = _ratio(
        lanes - values["fleet.kernel.fallback_lanes"], lanes
    )
    values["serve.cache_hit_ratio"] = (
        _ratio(serve_cache.hits, serve_cache.hits + serve_cache.misses)
        if serve_cache is not None else 0.0
    )
    return values
