"""Unified observability: device-timeline tracing, metrics, telemetry.

Three layers over one event model (see DESIGN.md "Observability"):

* :mod:`repro.obs.events` / :mod:`repro.obs.tracer` — typed
  :class:`TraceEvent` rows emitted by the scalar engine, the Quetzal
  runtime, and the vector kernel into any :class:`TraceSink`
  (stock sink: the bounded :class:`RingBufferTracer`).
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto) and
  JSONL exporters plus schema validators.
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry with
  label sets, exact cross-shard merge, and Prometheus/JSON output.
* :mod:`repro.obs.heartbeat` — streaming JSONL progress records from
  ``run_fleet``.

Everything here is strictly opt-in: with no tracer/registry/publisher
attached, the engine and kernel hot paths are byte-for-byte the
pre-observability code (``bench_engine.py obs_overhead`` pins that an
untraced run builds zero trace events).
"""

from repro.obs.events import EVENT_KINDS, SPAN_KINDS, TraceEvent
from repro.obs.export import (
    read_jsonl,
    to_chrome_trace,
    validate_chrome_trace,
    validate_jsonl_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.heartbeat import HeartbeatPublisher
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    fleet_registry,
    kernel_stats_registry,
    serve_registry,
)
from repro.obs.tracer import RingBufferTracer, TraceSink, stamping_sink

__all__ = [
    "EVENT_KINDS",
    "SPAN_KINDS",
    "TraceEvent",
    "TraceSink",
    "RingBufferTracer",
    "stamping_sink",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "validate_chrome_trace",
    "validate_jsonl_events",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "fleet_registry",
    "serve_registry",
    "kernel_stats_registry",
    "HeartbeatPublisher",
]
