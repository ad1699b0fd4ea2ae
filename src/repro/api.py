"""The supported public API of the Quetzal reproduction.

One curated import surface::

    from repro.api import (
        simulate, SimulationConfig, QuetzalRuntime, build_apollo_app,
        run_grid, run_fleet, FleetSpec,
    )

Everything exported here — and exactly this list, pinned by
``tests/test_api_surface.py`` — is the stable, documented contract:

* **single runs** — ``simulate`` / ``SimulationConfig`` / ``RunMetrics``
  (the one record of the decision-path work counters), with a
  ``TelemetryRecorder`` trace sink for trajectories
  (``simulate(tracer=TelemetryRecorder())``);
* **the systems under test** — ``QuetzalRuntime`` and every paper
  baseline behind the common ``Policy`` interface;
* **workloads and worlds** — ``build_apollo_app`` / ``build_msp430_app``,
  solar traces, the named sensing environments, and the memory-mapped
  ``TraceStore`` of prebuilt traces/schedules
  (``run_fleet(trace_store=...)``);
* **grids** — ``ExperimentConfig`` / ``run_grid`` /
  ``standard_policies`` / ``ExperimentRunner`` for policy × seed sweeps;
* **fleets** — ``run_fleet`` over a ``FleetSpec`` for batch populations
  of devices, with ``FleetRecorder`` shard telemetry and an opt-in
  ``kernel="vector"`` lockstep numpy kernel (bit-identical rollups,
  scalar fallback for uncovered devices);
* **observability** — ``RingBufferTracer`` / ``TraceEvent`` device
  timelines (``simulate(tracer=...)``, ``run_fleet(trace=...)``),
  the ``MetricsRegistry`` with ``fleet_registry`` Prometheus/JSON
  projection, and ``HeartbeatPublisher`` streaming run telemetry —
  all strictly opt-in, with results bit-identical when off;
* **serving** — ``ServeConfig`` / ``FleetClient`` / ``submit`` /
  ``ResultCache`` for the fleet service (``python -m repro.serve``):
  async spec submission over a versioned wire protocol
  (``FleetSpec.to_json``/``from_json``), with a content-addressed
  result cache that answers repeated specs byte-identically and with
  zero recompute.

Anything importable from deeper modules but absent here (engine
internals, hardware circuit models, estimator classes, cursors, ...) is
considered internal: usable, but subject to change without a deprecation
cycle.  Top-level ``repro`` re-exports the public subset of these names
for convenience; internals are imported from their home modules.
"""

from repro import __version__
from repro.core.runtime import QuetzalRuntime
from repro.env.activity import environment_by_name
from repro.env.events import EventSchedule, EventScheduleGenerator
from repro.experiments.configs import (
    ExperimentConfig,
    apollo_simulation_config,
    hardware_experiment_config,
    msp430_simulation_config,
)
from repro.experiments.harness import run_grid, standard_policies
from repro.experiments.runner import ExperimentRunner, GridResults, RunFailure
from repro.fleet import FleetResult, FleetRollup, FleetSpec, run_fleet
from repro.obs import (
    HeartbeatPublisher,
    MetricsRegistry,
    RingBufferTracer,
    TraceEvent,
    fleet_registry,
)
from repro.policies.always_degrade import AlwaysDegradePolicy
from repro.policies.base import Policy
from repro.policies.buffer_threshold import BufferThresholdPolicy, catnap_policy
from repro.policies.noadapt import NoAdaptPolicy
from repro.policies.power_threshold import PowerThresholdPolicy
from repro.serve import FleetClient, ResultCache, ServeConfig, submit
from repro.sim.engine import SimulationConfig, SimulationEngine, simulate
from repro.sim.metrics import MetricsRollup, RunMetrics
from repro.sim.telemetry import FleetRecorder, TelemetryRecorder
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator
from repro.trace.store import TraceStore
from repro.workload.pipelines import build_apollo_app, build_msp430_app

__all__ = [
    # single runs
    "simulate",
    "SimulationConfig",
    "SimulationEngine",
    "RunMetrics",
    "TelemetryRecorder",
    # systems under test
    "QuetzalRuntime",
    "Policy",
    "NoAdaptPolicy",
    "AlwaysDegradePolicy",
    "BufferThresholdPolicy",
    "PowerThresholdPolicy",
    "catnap_policy",
    # workloads and worlds
    "build_apollo_app",
    "build_msp430_app",
    "SolarTraceGenerator",
    "SolarTraceConfig",
    "TraceStore",
    "environment_by_name",
    "EventSchedule",
    "EventScheduleGenerator",
    # experiment grids
    "ExperimentConfig",
    "apollo_simulation_config",
    "hardware_experiment_config",
    "msp430_simulation_config",
    "run_grid",
    "standard_policies",
    "ExperimentRunner",
    "GridResults",
    "RunFailure",
    # fleets
    "run_fleet",
    "FleetSpec",
    "FleetResult",
    "FleetRollup",
    "MetricsRollup",
    "FleetRecorder",
    # observability
    "TraceEvent",
    "RingBufferTracer",
    "MetricsRegistry",
    "fleet_registry",
    "HeartbeatPublisher",
    # serving
    "ServeConfig",
    "FleetClient",
    "submit",
    "ResultCache",
    # meta
    "__version__",
]
