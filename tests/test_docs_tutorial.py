"""Executable check of docs/tutorial.md's code blocks.

Each section of the tutorial is replayed here (with scaled-down sizes) so
the documentation cannot silently rot.
"""

import pytest

from repro import (
    AlwaysDegradePolicy,
    BufferThresholdPolicy,
    NoAdaptPolicy,
    PowerThresholdPolicy,
    QuetzalRuntime,
    SimulationConfig,
    SimulationEngine,
    SolarTraceConfig,
    SolarTraceGenerator,
    TelemetryRecorder,
    build_apollo_app,
    catnap_policy,
    environment_by_name,
    simulate,
)
from repro.core.analysis import is_stable, stability_power_w
from repro.trace.stats import fraction_above, summarize


@pytest.fixture(scope="module")
def tutorial_world():
    trace = SolarTraceGenerator(SolarTraceConfig(cells=6), seed=1).generate()
    schedule = environment_by_name("crowded").schedule(n_events=30, seed=7)
    return build_apollo_app(), trace, schedule


def test_section1_trace(tutorial_world):
    _, trace, _ = tutorial_world
    assert trace.power(100.0) >= 0
    assert trace.integrate(0.0, 600.0) > 0
    assert "mean power" in summarize(trace).render()
    assert 0.0 <= fraction_above(trace, 0.144) <= 1.0


def test_section2_schedule(tutorial_world):
    _, _, schedule = tutorial_world
    assert schedule.interesting_count > 0
    assert schedule.end_time > 0


def test_section3_application(tutorial_world):
    app, _, _ = tutorial_world
    detect = app.jobs.job("detect")
    assert [o.name for o in detect.degradable_task.options] == [
        "mobilenetv2",
        "lenet",
    ]


def test_section4_analysis(tutorial_world):
    app, _, _ = tutorial_world
    p_star = stability_power_w(app.jobs, arrival_rate=0.35)
    assert 0.05 < p_star < 0.5
    assert is_stable(
        app.jobs, 0.35, 0.006, option_picker=lambda t: t.lowest_quality
    )


def test_sections5_and_6_policies_and_simulation(tutorial_world):
    app, trace, schedule = tutorial_world
    policies = {
        "quetzal": QuetzalRuntime(),
        "noadapt": NoAdaptPolicy(),
        "catnap": catnap_policy(),
        "threshold-50%": BufferThresholdPolicy(0.5),
        "zygarde-like": PowerThresholdPolicy(0.5),
        "always": AlwaysDegradePolicy(),
    }
    config = SimulationConfig(seed=42)
    for policy in policies.values():
        metrics = simulate(build_apollo_app(), policy, trace, schedule, config=config)
        assert 0.0 <= metrics.interesting_discarded_fraction <= 1.0


def test_section6_telemetry(tutorial_world):
    app, trace, schedule = tutorial_world
    telemetry = TelemetryRecorder()
    engine = SimulationEngine(
        build_apollo_app(), QuetzalRuntime(), trace, schedule,
        config=SimulationConfig(seed=42), tracer=telemetry,
    )
    engine.run()
    times, occupancy = telemetry.occupancy_series()
    assert len(times) == len(occupancy) > 0
    _, rates = telemetry.windowed_processing_rate(120.0)
    assert rates


def test_profiling_section_decision_counters(tutorial_world):
    """The 'Profiling a figure' walkthrough's telemetry-counter snippet."""
    app, trace, schedule = tutorial_world
    runtime = QuetzalRuntime()
    metrics = simulate(
        build_apollo_app(), runtime, trace, schedule,
        config=SimulationConfig(seed=5),
    )
    assert (
        metrics.decision_scored_candidates
        == metrics.decision_cache_hits + metrics.decision_cache_misses
        > 0
    )
    stats = runtime.decision_stats
    assert stats.decisions == metrics.policy_invocations
    assert stats.score_table_rebuilds <= stats.cache_misses
    reference = simulate(
        build_apollo_app(), QuetzalRuntime(), trace, schedule,
        config=SimulationConfig(seed=5, fast_paths=False),
    )
    assert reference.decision_scored_candidates == 0


def test_section7_figures():
    from repro.experiments.figures import fig9_vs_nonadaptive

    text = fig9_vs_nonadaptive(n_events=6, seeds=(0,)).render()
    assert "Figure 9" in text


def test_section10_fleet():
    from repro.api import FleetRecorder, FleetSpec, run_fleet

    spec = FleetSpec(
        devices=6, seed=7, n_events=3,
        policies=("QZ", "NA", "TH50"),
        environments=("crowded", "less crowded"),
    )
    recorder = FleetRecorder()
    result = run_fleet(spec, shards=2, jobs=1, recorder=recorder)
    assert result.complete
    assert "devices" in result.render()
    assert "discarded_fraction_p99" in result.summary()
    assert recorder.devices_observed() == 6
    assert result.rollup == run_fleet(spec, shards=1, jobs=1).rollup
    # The vector kernel is only ever a faster spelling of the scalar one.
    assert result.rollup == run_fleet(spec, shards=1, jobs=1, kernel="vector").rollup


def test_section8_parallel_grids():
    from repro.experiments import apollo_simulation_config, run_grid
    from repro.experiments.harness import quetzal_factory

    cfg = apollo_simulation_config("crowded", n_events=6)
    grid = {"QZ": quetzal_factory(), "NA": NoAdaptPolicy}
    results = run_grid(cfg, grid, seeds=(0, 1), jobs=2)
    assert results == run_grid(cfg, grid, seeds=(0, 1), jobs=1)
    assert results.ok and not results.failures
    assert results["QZ"].ibo_fraction_std >= 0.0


def test_section12_serving(tmp_path):
    """The 'Serving fleets' walkthrough: submit -> watch -> fetch."""
    from repro.api import FleetClient, FleetSpec, submit
    from repro.serve import ServeConfig, start_background

    spec = FleetSpec(devices=6, seed=7, n_events=3, policies=("NA", "TH50"))
    config = ServeConfig(data_dir=str(tmp_path / "serve"))
    with start_background(config) as handle:
        with FleetClient(port=handle.port) as client:
            ticket = client.submit(spec, shards=2)
            assert ticket["state"] in ("queued", "running", "done")
            beats = list(client.watch(spec))
            assert [b["type"] for b in beats][0] == "start"
            rollup = client.fetch_rollup(spec)
            assert client.fetch_json(spec) is not None
        # The one-shot helper returns the same (now cached) rollup.
        assert submit(spec, port=handle.port) == rollup


def test_section11_observability(tutorial_world, tmp_path):
    """The 'Watching a run' walkthrough: tracer, exporters, registry."""
    import json

    from repro.api import (
        FleetSpec,
        RingBufferTracer,
        fleet_registry,
        run_fleet,
    )
    from repro.obs import (
        validate_chrome_trace,
        validate_jsonl_events,
        write_chrome_trace,
        write_jsonl,
    )

    app, trace, schedule = tutorial_world
    tracer = RingBufferTracer()
    plain = simulate(build_apollo_app(), QuetzalRuntime(), trace, schedule,
                     config=SimulationConfig(seed=42))
    traced = simulate(build_apollo_app(), QuetzalRuntime(), trace, schedule,
                      config=SimulationConfig(seed=42), tracer=tracer)
    # Opt-in and free: observing never changes the result.
    assert traced.to_dict() == plain.to_dict()
    counts = tracer.counts_by_kind()
    assert counts["capture"] == traced.captures_total
    assert counts["decision"] == traced.policy_invocations

    chrome = str(tmp_path / "run.chrome.json")
    jsonl = str(tmp_path / "run.jsonl")
    write_chrome_trace(tracer.events(), chrome)
    write_jsonl(tracer.events(), jsonl)
    with open(chrome) as handle:
        assert validate_chrome_trace(json.load(handle)) == []
    with open(jsonl) as handle:
        rows = [json.loads(line) for line in handle]
    assert validate_jsonl_events(rows) == []

    # Per-shard registries merge to exactly the whole-fleet registry.
    spec = FleetSpec(devices=6, seed=7, n_events=3, policies=("NA", "TH50"))
    result = run_fleet(spec, shards=2, jobs=1)
    registry = fleet_registry(result.rollup)
    assert "repro_captures_total" in registry.to_prometheus()
    assert registry.to_dict() == fleet_registry(
        run_fleet(spec, shards=1, jobs=1, kernel="vector").rollup
    ).to_dict()
