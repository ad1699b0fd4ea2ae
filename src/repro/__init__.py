"""Quetzal reproduction: energy-aware scheduling and IBO prevention.

A faithful Python reproduction of *"Energy-aware Scheduling and Input
Buffer Overflow Prevention for Energy-harvesting Systems"* (Desai, Wang,
Lucia — ASPLOS 2025): the Quetzal runtime (energy-aware SJF scheduling,
Little's-Law IBO prediction, quality-minimal task degradation, PID error
mitigation, and the division-free power-measurement circuit), every
baseline the paper compares against, and the full simulation substrate its
evaluation runs on.

**The supported import surface is** :mod:`repro.api` — one curated module
re-exporting everything documented, including the experiment grids and
the fleet batch-simulation service::

    from repro.api import (
        QuetzalRuntime, NoAdaptPolicy, build_apollo_app, simulate,
        SolarTraceGenerator, environment_by_name, SimulationConfig,
    )

    app = build_apollo_app()
    trace = SolarTraceGenerator(seed=1).generate()
    schedule = environment_by_name("crowded").schedule(n_events=100, seed=2)
    metrics = simulate(app, QuetzalRuntime(), trace, schedule)
    print(f"{metrics.interesting_discarded_fraction:.1%} interesting inputs lost")

Importing the same names from ``repro`` keeps working.  Engine and
circuit internals (``IBOEngine``, ``PowerMonitor``, ...) are not
re-exported here: import them from their home modules.

See DESIGN.md for the architecture and EXPERIMENTS.md for the paper-vs-
measured record of every figure.
"""

from repro.core import (
    EnergyAwareSJF,
    FCFSScheduler,
    LCFSScheduler,
    QuetzalRuntime,
)
from repro.device import (
    APOLLO4,
    MSP430FR5994,
    InputBuffer,
    MCUProfile,
    Supercapacitor,
    mcu_by_name,
)
from repro.env import (
    APOLLO_ENVIRONMENTS,
    Event,
    EventSchedule,
    EventScheduleGenerator,
    SensingEnvironment,
    environment_by_name,
)
from repro.policies import (
    AlwaysDegradePolicy,
    BufferThresholdPolicy,
    NoAdaptPolicy,
    Policy,
    PowerThresholdPolicy,
    catnap_policy,
)
from repro.sim import (
    RunMetrics,
    SimulationConfig,
    SimulationEngine,
    TelemetryRecorder,
    simulate,
)
from repro.trace import (
    PiecewiseConstantTrace,
    SolarTraceConfig,
    SolarTraceGenerator,
    constant_trace,
    square_wave_trace,
)
from repro.workload import (
    DegradationOption,
    Job,
    JobSet,
    MLModelProfile,
    Task,
    TaskCost,
    TaskRef,
    build_apollo_app,
    build_msp430_app,
)

__version__ = "1.0.0"


def __getattr__(name):
    if name in ("api", "fleet", "experiments"):
        import importlib

        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    # core
    "QuetzalRuntime",
    "EnergyAwareSJF",
    "FCFSScheduler",
    "LCFSScheduler",
    # policies
    "Policy",
    "NoAdaptPolicy",
    "AlwaysDegradePolicy",
    "BufferThresholdPolicy",
    "catnap_policy",
    "PowerThresholdPolicy",
    # device
    "MCUProfile",
    "APOLLO4",
    "MSP430FR5994",
    "mcu_by_name",
    "Supercapacitor",
    "InputBuffer",
    # environment
    "Event",
    "EventSchedule",
    "EventScheduleGenerator",
    "SensingEnvironment",
    "APOLLO_ENVIRONMENTS",
    "environment_by_name",
    # traces
    "PiecewiseConstantTrace",
    "SolarTraceGenerator",
    "SolarTraceConfig",
    "constant_trace",
    "square_wave_trace",
    # workload
    "Task",
    "TaskCost",
    "TaskRef",
    "DegradationOption",
    "Job",
    "JobSet",
    "MLModelProfile",
    "build_apollo_app",
    "build_msp430_app",
    # simulation
    "SimulationEngine",
    "SimulationConfig",
    "RunMetrics",
    "simulate",
    "TelemetryRecorder",
    "__version__",
]
