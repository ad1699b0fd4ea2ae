"""Fast paths vs reference paths: bit-identical results, by construction.

``SimulationConfig(fast_paths=...)`` selects between the engine's
constant-amortized hot paths (monotone :class:`TraceCursor` /
:class:`EventCursor`, the fused span-integration loop in ``_advance_to``,
the cached-fold recharge loop, and the policy's cached decision path) and
the original stateless reference implementations.  The optimization
contract is *exact* floating-point equality — every metric, counter, and
telemetry-visible quantity must come out bit-identical, not merely close.
This suite runs both engines over every policy family, with and without
cost jitter, on bounded and unbounded buffers and on a dense sub-second
trace, and compares the full :class:`RunMetrics` dataclass trees with
``==`` (no ``approx``).

The only fields excluded from the contract are the decision-path *work
counters* (``decision_cache_hits`` etc.): they measure implementation
effort, which by design differs between the cached and reference paths.
``test_decision_counters_*`` pins their required behaviour instead.

Both paths are also pinned to a golden corpus: the sha256 of the
canonical ``json.dumps(asdict(RunMetrics), sort_keys=True)`` of every
case, generated from the reference path and committed in
``data/fast_paths_goldens.json``.  ``fast == reference`` alone cannot see
a change that moves both paths together; the goldens catch semantics
drift between commits.  After a deliberate semantics change, rewrite
them from the reference path with::

    PYTHONPATH=src python tests/sim/test_fast_paths.py
"""

import dataclasses
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.core.runtime import QuetzalRuntime
from repro.env.activity import CROWDED
from repro.policies.always_degrade import AlwaysDegradePolicy
from repro.policies.buffer_threshold import BufferThresholdPolicy, catnap_policy
from repro.policies.noadapt import NoAdaptPolicy
from repro.policies.power_threshold import PowerThresholdPolicy
from repro.sim.engine import SimulationConfig, simulate
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator
from repro.workload.pipelines import build_apollo_app

#: RunMetrics fields that count decision-path implementation work.  They
#: are zero on the reference path by definition (nothing is cached), so
#: the bit-identical comparison strips them; their behaviour is pinned
#: separately below.
WORK_COUNTER_FIELDS = (
    "decision_cache_hits",
    "decision_cache_misses",
    "decision_scored_candidates",
    "degradation_walks",
    "degradation_walk_steps",
)


@pytest.fixture(scope="module")
def solar_trace():
    return SolarTraceGenerator(seed=1).generate()


@pytest.fixture(scope="module")
def dense_trace():
    return SolarTraceGenerator(SolarTraceConfig(sample_period_s=0.05), seed=1).generate()


@pytest.fixture(scope="module")
def schedule():
    return CROWDED.schedule(40, seed=2)


POLICIES = {
    "noadapt": NoAdaptPolicy,
    "quetzal": QuetzalRuntime,
    "catnap": catnap_policy,
    "buffer-threshold": lambda: BufferThresholdPolicy(0.5),
    "power-threshold": lambda: PowerThresholdPolicy(0.05),
    "always-degrade": AlwaysDegradePolicy,
}


#: Every case this suite compares: id -> (policy, trace, config overrides).
CASES = {
    **{f"metrics[{name}]": (name, "solar", {}) for name in sorted(POLICIES)},
    **{
        f"jitter[{sigma}-{name}]": (name, "solar", {"cost_jitter_sigma": sigma})
        for sigma in (0.2, 0.7)
        for name in ("noadapt", "quetzal")
    },
    "unbounded-buffer": ("quetzal", "solar", {"buffer_capacity": None}),
    "dense-trace": ("noadapt", "dense", {}),
}

GOLDEN_PATH = Path(__file__).parent / "data" / "fast_paths_goldens.json"


def run_one(policy_factory, trace, schedule, *, fast, **config_kwargs):
    config = SimulationConfig(seed=5, fast_paths=fast, **config_kwargs)
    return simulate(build_apollo_app(), policy_factory(), trace, schedule, config=config)


def metrics_tree(metrics) -> dict:
    """``asdict(metrics)`` without the decision-path work counters.

    They describe the implementation, not the simulation, and are pinned
    separately.
    """
    tree = dataclasses.asdict(metrics)
    for field in WORK_COUNTER_FIELDS:
        tree.pop(field)
    return tree


def tree_digest(tree: dict) -> str:
    return hashlib.sha256(json.dumps(tree, sort_keys=True).encode()).hexdigest()


def run_case(case, *, fast, traces):
    policy_name, trace_name, config_kwargs = CASES[case]
    return metrics_tree(run_one(
        POLICIES[policy_name], traces[trace_name], traces["schedule"],
        fast=fast, **config_kwargs,
    ))


@pytest.fixture(scope="module")
def traces(solar_trace, dense_trace, schedule):
    return {"solar": solar_trace, "dense": dense_trace, "schedule": schedule}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def run_both(case, traces, goldens):
    """One run per path, each pinned to the golden digest of ``case``.

    Returns the two RunMetrics as plain dict trees (fast, reference).
    """
    out = [run_case(case, fast=fast, traces=traces) for fast in (True, False)]
    expected = goldens["cases"][case]
    for path, tree in zip(("fast", "reference"), out):
        assert tree_digest(tree) == expected, (
            f"{case}: {path} path drifted from the golden corpus "
            f"(recorded on Python {goldens['python']}, numpy {goldens['numpy']})"
        )
    return out


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_bit_identical_metrics(policy_name, traces, goldens):
    fast, reference = run_both(f"metrics[{policy_name}]", traces, goldens)
    assert fast == reference


@pytest.mark.parametrize("policy_name", ["noadapt", "quetzal"])
@pytest.mark.parametrize("sigma", [0.2, 0.7])
def test_bit_identical_with_cost_jitter(policy_name, sigma, traces, goldens):
    """Jitter draws extra RNG per task; the streams must stay aligned."""
    fast, reference = run_both(f"jitter[{sigma}-{policy_name}]", traces, goldens)
    assert fast == reference


def test_bit_identical_unbounded_buffer(traces, goldens):
    """The Ideal baseline: capacity=None exercises the no-IBO branches."""
    fast, reference = run_both("unbounded-buffer", traces, goldens)
    assert fast == reference


def test_bit_identical_dense_trace(traces, goldens):
    """Sub-second segments: many fused multi-segment steps per job."""
    fast, reference = run_both("dense-trace", traces, goldens)
    assert fast == reference


def test_goldens_cover_exactly_the_cases(goldens):
    assert sorted(goldens["cases"]) == sorted(CASES)


def test_fast_paths_default_on():
    assert SimulationConfig().fast_paths is True


# -- decision-path work counters (satellite: RunMetrics observability) --------


def test_decision_counters_zero_on_reference_path(solar_trace, schedule):
    """fast_paths=False disables the decision cache entirely: every work
    counter must read zero, proving the reference run took the uncached
    Alg. 1/2 path."""
    metrics = run_one(QuetzalRuntime, solar_trace, schedule, fast=False)
    for field in WORK_COUNTER_FIELDS:
        assert getattr(metrics, field) == 0, field


def test_decision_counters_populated_on_fast_path(solar_trace, schedule):
    """The cached path must account for its work: every decision scores
    its candidates exactly once, and each (decision, candidate) lookup is
    either a hit or a miss."""
    metrics = run_one(QuetzalRuntime, solar_trace, schedule, fast=True)
    scored = metrics.decision_scored_candidates
    lookups = metrics.decision_cache_hits + metrics.decision_cache_misses
    assert scored > 0
    assert lookups == scored
    assert metrics.jobs_completed > 0
    # Non-Quetzal policies have no decision cache: counters stay zero even
    # on the fast path.
    baseline = run_one(NoAdaptPolicy, solar_trace, schedule, fast=True)
    for field in WORK_COUNTER_FIELDS:
        assert getattr(baseline, field) == 0, field


def test_decision_counters_match_runtime_stats(solar_trace, schedule):
    """RunMetrics carries the runtime's decision-path counters verbatim."""
    runtime = QuetzalRuntime()
    config = SimulationConfig(seed=5, fast_paths=True)
    metrics = simulate(
        build_apollo_app(), runtime, solar_trace, schedule, config=config,
    )
    stats = runtime.decision_stats
    assert stats.decisions == metrics.policy_invocations > 0
    assert stats.cache_hits == metrics.decision_cache_hits
    assert stats.cache_misses == metrics.decision_cache_misses
    assert stats.scored_candidates == metrics.decision_scored_candidates
    assert stats.degradation_walks == metrics.degradation_walks
    assert stats.degradation_walk_steps == metrics.degradation_walk_steps


def write_goldens() -> None:
    """Rewrite the golden file from the reference path."""
    traces = {
        "solar": SolarTraceGenerator(seed=1).generate(),
        "dense": SolarTraceGenerator(
            SolarTraceConfig(sample_period_s=0.05), seed=1
        ).generate(),
        "schedule": CROWDED.schedule(40, seed=2),
    }
    payload = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cases": {
            case: tree_digest(run_case(case, fast=False, traces=traces))
            for case in CASES
        },
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cases'])} goldens -> {GOLDEN_PATH}")


if __name__ == "__main__":
    write_goldens()
