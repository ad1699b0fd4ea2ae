"""Randomized vector-vs-scalar parity sweep plus kernel selection/telemetry.

The fixed fixtures in ``test_kernel.py`` pin bit-exactness on one
heterogeneous spec; layout refactors (packed hot-state matrices, masked
full-width ops) can slip through a fixed fixture while breaking some
other policy/trace/MCU mix.  The sweep here draws small random
:class:`FleetSpec`s from the whole configuration space (seeded, so
failures replay) and asserts per-device ``RunMetrics`` equality against
the scalar oracle for every one.  The oracle's outcomes are themselves
pinned to sha256 goldens in ``data/kernel_parity_goldens.json``, so a
change that moves both engines together still fails; after a
*deliberate* semantics change regenerate them with
``PYTHONPATH=src python tests/fleet/test_kernel_parity.py``.

Also covered: ``kernel="auto"`` resolution, and the per-phase
:class:`KernelStats` telemetry (recorder exposure, rollup invariance).
"""

import dataclasses
import hashlib
import json
import pickle
import platform
import random
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.harness import standard_policies
from repro.experiments.runner import RunSpec, _attempt_spec
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.kernel import (
    VECTOR_KERNEL_POLICIES,
    KernelStats,
    vector_shard_outcomes,
)
from repro.fleet.service import resolve_kernel, run_shard

#: Draw pools for the randomized sweep.  Policies deliberately include
#: Quetzal (scalar fallback) alongside every vector-covered family.
POLICY_POOL = ("NA", "AD", "CN", "PZO", "PZI", "TH25", "TH50", "TH75", "QZ")
ENVIRONMENT_POOL = ("more crowded", "crowded", "less crowded")
MCU_POOL = ("apollo4", "msp430")
CELL_POOL = (2, 4, 6, 8)
BUFFER_POOL = (None, 4, 10)


#: Specs in the randomized sweep, each drawn from its own seeded stream.
SWEEP = range(8)

GOLDEN_PATH = Path(__file__).parent / "data" / "kernel_parity_goldens.json"


def scalar_outcome(spec: FleetSpec, device: int):
    """One device on the scalar reference engine (the oracle)."""
    policy_name, config = spec.device_config(device)
    return _attempt_spec(
        RunSpec(policy=policy_name, seed=0, config=config),
        standard_policies()[policy_name],
        config.build_trace(),
        config.build_schedule(),
        0,
    )


def outcomes_digest(outcomes) -> str:
    """sha256 of the canonical JSON of a device-ordered outcome list."""
    rows = [dataclasses.asdict(outcome) for outcome in outcomes]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def draw_spec(rng: random.Random, index: int) -> FleetSpec:
    """One small random fleet covering policy/trace/MCU/buffer mixes."""

    def subset(pool, at_least=1):
        k = rng.randint(at_least, len(pool))
        return tuple(rng.sample(pool, k))

    return FleetSpec(
        name=f"parity-sweep-{index}",
        devices=rng.randint(4, 9),
        seed=rng.randint(0, 10_000),
        n_events=rng.randint(5, 14),
        policies=subset(POLICY_POOL, at_least=2),
        environments=subset(ENVIRONMENT_POOL),
        mcus=subset(MCU_POOL),
        cells=subset(CELL_POOL),
        buffer_capacity=rng.choice(BUFFER_POOL),
    )


def sweep_spec(index: int) -> FleetSpec:
    return draw_spec(random.Random(0xC0FFEE + index), index)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


class TestRandomizedParity:
    @pytest.mark.parametrize("index", SWEEP)
    def test_random_spec_matches_scalar_oracle(self, index, goldens):
        spec = sweep_spec(index)
        outcomes = vector_shard_outcomes(spec, range(spec.devices), retries=0)
        expected = [scalar_outcome(spec, d) for d in range(spec.devices)]
        for device in range(spec.devices):
            policy_name, _ = spec.device_config(device)
            got = outcomes[device]
            assert dataclasses.asdict(got) == dataclasses.asdict(expected[device]), (
                f"spec {spec.name} (seed {spec.seed}) device {device} "
                f"({policy_name}) diverged from the scalar engine"
            )
        golden = goldens["specs"][spec.name]
        recorded = (
            f"(recorded on Python {goldens['python']}, numpy {goldens['numpy']})"
        )
        assert outcomes_digest(expected) == golden, (
            f"{spec.name}: scalar oracle drifted from the golden corpus {recorded}"
        )
        vector = [outcomes[d] for d in range(spec.devices)]
        assert outcomes_digest(vector) == golden, (
            f"{spec.name}: vector kernel drifted from the golden corpus {recorded}"
        )

    def test_goldens_cover_exactly_the_sweep(self, goldens):
        assert sorted(goldens["specs"]) == sorted(
            sweep_spec(index).name for index in SWEEP
        )

    def test_sweep_exercises_vector_and_fallback_devices(self):
        # The sweep is only meaningful if its draws actually hit both
        # sides of the envelope; guard against pool edits silencing it.
        covered = VECTOR_KERNEL_POLICIES(standard_policies())
        seen = set()
        for index in SWEEP:
            spec = sweep_spec(index)
            for device in range(spec.devices):
                seen.add(spec.device_config(device)[0])
        assert seen & covered
        assert seen - covered


class TestAutoKernel:
    def test_auto_resolves_vector_for_covered_mix(self):
        spec = FleetSpec(devices=4, policies=("NA", "AD", "TH50"))
        assert resolve_kernel(spec, "auto") == "vector"

    def test_auto_resolves_scalar_when_any_policy_uncovered(self):
        spec = FleetSpec(devices=4, policies=("NA", "QZ"))
        assert resolve_kernel(spec, "auto") == "scalar"

    def test_explicit_kernels_pass_through(self):
        spec = FleetSpec(devices=4, policies=("NA", "QZ"))
        assert resolve_kernel(spec, "scalar") == "scalar"
        assert resolve_kernel(spec, "vector") == "vector"

    def test_unknown_kernel_rejected(self):
        spec = FleetSpec(devices=4)
        with pytest.raises(ConfigurationError):
            resolve_kernel(spec, "warp")

    def test_run_fleet_auto_matches_explicit_and_logs_choice(self):
        spec = FleetSpec(devices=6, n_events=8, policies=("NA", "TH50"))
        lines = []
        auto = run_fleet(spec, shards=2, jobs=1, kernel="auto",
                         progress=lines.append)
        explicit = run_fleet(spec, shards=2, jobs=1, kernel="vector")
        assert auto.rollup.to_dict() == explicit.rollup.to_dict()
        assert any("kernel auto -> vector" in line for line in lines)

    def test_run_shard_accepts_auto(self):
        spec = FleetSpec(devices=4, n_events=8, policies=("NA", "QZ"))
        auto = run_shard(spec, 1, 0, retries=0, kernel="auto")
        scalar = run_shard(spec, 1, 0, retries=0, kernel="scalar")
        assert auto.to_dict() == scalar.to_dict()


class TestKernelStatsTelemetry:
    def test_vector_run_reports_phase_timings(self):
        from repro.sim.telemetry import FleetRecorder

        spec = FleetSpec(devices=6, n_events=8,
                         policies=("NA", "AD", "TH50", "QZ"))
        recorder = FleetRecorder()
        run_fleet(spec, shards=2, jobs=1, kernel="vector", recorder=recorder)
        total = recorder.kernel_stats_total()
        assert total is not None
        assert total.lanes + total.scalar_lanes == spec.devices
        assert total.scalar_lanes > 0  # QZ devices fell back
        assert total.batches >= 1
        assert total.iterations > 0
        assert total.kernel_s > 0
        assert total.setup_s > 0
        # Per-shard samples carry their own stats objects.
        per_shard = [s.kernel_stats for s in recorder.shard_samples]
        assert all(isinstance(s, KernelStats) for s in per_shard)

    def test_scalar_run_reports_no_stats(self):
        from repro.sim.telemetry import FleetRecorder

        spec = FleetSpec(devices=4, n_events=8, policies=("NA",))
        recorder = FleetRecorder()
        run_fleet(spec, shards=1, jobs=1, kernel="scalar", recorder=recorder)
        assert recorder.kernel_stats_total() is None
        assert all(s.kernel_stats is None for s in recorder.shard_samples)

    def test_stats_never_enter_rollup_or_journal(self, tmp_path):
        spec = FleetSpec(devices=6, n_events=8, policies=("NA", "TH50"))
        ckpt = str(tmp_path / "journal")
        vector = run_fleet(spec, shards=2, jobs=1, kernel="vector",
                           checkpoint=ckpt)
        scalar = run_fleet(spec, shards=2, jobs=1, kernel="scalar")
        # Rollup (and therefore the journal payload) is kernel-invariant:
        # stats are recorder-only telemetry.
        assert vector.rollup.to_dict() == scalar.rollup.to_dict()
        from repro.sim.telemetry import FleetRecorder

        recorder = FleetRecorder()
        resumed = run_fleet(spec, shards=2, jobs=1, kernel="vector",
                            checkpoint=ckpt, resume=True, recorder=recorder)
        assert resumed.resumed_shards == 2
        # Resumed shards were not recomputed, so they carry no stats.
        assert recorder.kernel_stats_total() is None

    def test_stats_roundtrip_and_render(self):
        stats = KernelStats(lanes=10, scalar_lanes=2, batches=1,
                            iterations=123, ctrl_s=0.5, adv_s=1.0,
                            rech_s=0.25, lane_build_s=0.1, batch_init_s=0.05)
        # Shard workers hand the object itself back across the process
        # boundary, so it must survive pickling intact.
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        merged = KernelStats()
        merged.merge(stats)
        merged.merge(clone)
        assert merged.iterations == 246
        assert merged.kernel_s == pytest.approx(3.5)
        text = stats.render()
        for token in ("CTRL", "ADV", "RECHG", "fallback", "setup"):
            assert token in text


def write_goldens() -> None:
    """Rewrite the golden file from the scalar oracle."""
    specs = {}
    for index in SWEEP:
        spec = sweep_spec(index)
        specs[spec.name] = outcomes_digest(
            [scalar_outcome(spec, d) for d in range(spec.devices)]
        )
    payload = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "specs": specs,
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(specs)} goldens -> {GOLDEN_PATH}")


if __name__ == "__main__":
    write_goldens()
