"""The vector kernel contract: a faster spelling of the scalar engine.

Every check here is an *equality* check, not a tolerance check — the
kernel promises bit-identical :class:`RunMetrics` for every device it
vectorizes (the same contract ``tests/sim/test_fast_paths.py`` pins for
the scalar engine's own fast paths), and scalar-engine fallback for
everything else, so the fleet rollup is kernel-invariant byte for byte.
"""

import dataclasses
import multiprocessing
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.harness import standard_policies
from repro.experiments.runner import RunFailure
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.kernel import VECTOR_KERNEL_POLICIES, vector_shard_outcomes
from repro.fleet.service import run_shard

from tests.fleet.test_kernel_parity import scalar_outcome

#: Heterogeneous mix: every vector-covered baseline plus Quetzal (which
#: must fall back to the scalar engine), over three cell counts.
MIXED = dict(
    name="kernel-mix",
    seed=11,
    n_events=12,
    policies=("NA", "AD", "TH50", "CN", "PZO", "PZI", "QZ"),
    cells=(4, 6, 8),
)


def mixed_spec(devices: int = 14) -> FleetSpec:
    return FleetSpec(devices=devices, **MIXED)


class TestPolicyCoverage:
    def test_baselines_covered_quetzal_excluded(self):
        covered = VECTOR_KERNEL_POLICIES(standard_policies())
        assert {"NA", "AD", "CN", "PZO", "PZI", "TH25", "TH50", "TH75"} <= covered
        assert not any(name.startswith("QZ") for name in covered)


class TestBitExactness:
    def test_every_device_matches_the_scalar_engine(self):
        spec = mixed_spec()
        outcomes = vector_shard_outcomes(spec, range(spec.devices), retries=0)
        policies_seen = set()
        for device in range(spec.devices):
            policy_name, _ = spec.device_config(device)
            policies_seen.add(policy_name)
            expected = scalar_outcome(spec, device)
            got = outcomes[device]
            assert not isinstance(got, RunFailure), (device, got)
            assert dataclasses.asdict(got) == dataclasses.asdict(expected), (
                f"device {device} ({policy_name}) diverged from the scalar engine"
            )
        # The spec mixes policies randomly; make sure the assertion above
        # actually exercised both vectorized and fallback devices.
        covered = VECTOR_KERNEL_POLICIES(standard_policies())
        assert policies_seen & covered
        assert policies_seen - covered

    def test_run_shard_rollup_is_kernel_invariant(self):
        spec = mixed_spec(devices=8)
        scalar = run_shard(spec, 2, 0, retries=0, kernel="scalar")
        vector = run_shard(spec, 2, 0, retries=0, kernel="vector")
        assert vector.to_dict() == scalar.to_dict()

    def test_run_fleet_rollup_is_kernel_invariant(self):
        spec = mixed_spec(devices=8)
        scalar = run_fleet(spec, shards=2, jobs=1)
        vector = run_fleet(spec, shards=2, jobs=1, kernel="vector")
        assert vector.rollup.to_dict() == scalar.rollup.to_dict()


class TestKernelValidation:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            run_shard(mixed_spec(devices=2), 1, 0, kernel="warp")
        with pytest.raises(ConfigurationError):
            run_fleet(mixed_spec(devices=2), kernel="warp")


class TestAllZeroDiscardFleet:
    def test_fleet_p99_discard_is_exactly_zero(self):
        # Unbounded buffers: no capture ever overflows, so every device's
        # input-buffer-overflow fraction is exactly 0.0 and the fleet p99
        # must report 0.0 — not the first histogram bin's upper edge (the
        # pre-fix behaviour reported 1/256).
        spec = FleetSpec(
            name="no-drops", devices=6, seed=5, n_events=4,
            policies=("NA", "AD"), buffer_capacity=None,
        )
        result = run_fleet(spec, shards=2, jobs=1)
        dist = result.rollup.overall.dists["ibo_fraction"]
        assert dist.count == 6
        assert dist.percentile(99.0) == 0.0
        assert dist.percentile(50.0) == 0.0


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs forked workers to finish shards out of order",
)
class TestOutOfOrderKillResume:
    def test_late_shards_survive_a_shard_0_crash(self, tmp_path, monkeypatch):
        """Shard 0 dies *after* later shards finish; resume recomputes only it.

        The journal writes from ``map_indexed``'s completion-order callback,
        so shards 1 and 2 must be durable even though shard 0 — submitted
        first — never completed.
        """
        import repro.fleet.service as service

        spec = mixed_spec(devices=6)
        straight = run_fleet(spec, shards=3, jobs=1)
        ckpt = str(tmp_path / "journal")

        real_run_shard = service.run_shard

        def slow_crash_shard_0(spec, shards, shard, retries=1, **kwargs):
            if shard == 0:
                time.sleep(1.0)  # let shards 1 and 2 finish and journal first
                raise RuntimeError("simulated kill")
            return real_run_shard(spec, shards, shard, retries, **kwargs)

        monkeypatch.setattr(service, "run_shard", slow_crash_shard_0)
        with pytest.raises(RuntimeError, match="simulated kill"):
            run_fleet(spec, shards=3, jobs=3, checkpoint=ckpt)
        monkeypatch.setattr(service, "run_shard", real_run_shard)

        computed = []

        def counting_run_shard(spec, shards, shard, retries=1, **kwargs):
            computed.append(shard)
            return real_run_shard(spec, shards, shard, retries, **kwargs)

        monkeypatch.setattr(service, "run_shard", counting_run_shard)
        resumed = run_fleet(
            spec, shards=3, jobs=1, checkpoint=ckpt, resume=True
        )
        assert computed == [0]
        assert resumed.resumed_shards == 2
        assert resumed.computed_shards == 1
        assert resumed.rollup.to_dict() == straight.rollup.to_dict()


class TestTraceStoreBacked:
    """Attaching a trace store must never change what gets computed."""

    def _store_for(self, spec, tmp_path):
        from repro.trace.store import TraceStore

        store = TraceStore.create(tmp_path / "store")
        for device in range(spec.devices):
            _, config = spec.device_config(device)
            store.put_for_config(config)
        store.save()
        return store

    def test_vector_outcomes_identical_with_store(self, tmp_path):
        spec = mixed_spec()
        store = self._store_for(spec, tmp_path)
        plain = vector_shard_outcomes(spec, range(spec.devices))
        backed = vector_shard_outcomes(spec, range(spec.devices), store=store)
        for device in range(spec.devices):
            assert dataclasses.asdict(backed[device]) == dataclasses.asdict(
                plain[device]
            )

    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_run_shard_rollup_identical_with_store(self, kernel, tmp_path):
        import json

        spec = mixed_spec()
        store = self._store_for(spec, tmp_path)
        plain = run_shard(spec, 1, 0, kernel=kernel)
        backed = run_shard(spec, 1, 0, kernel=kernel, trace_store=store)
        assert json.dumps(backed.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )

    def test_run_shard_accepts_store_path(self, tmp_path):
        spec = mixed_spec(devices=4)
        store = self._store_for(spec, tmp_path)
        plain = run_shard(spec, 1, 0, kernel="vector")
        backed = run_shard(
            spec, 1, 0, kernel="vector", trace_store=store.directory
        )
        assert backed == plain

    def test_partial_store_falls_back_to_generators(self, tmp_path):
        from repro.trace.store import TraceStore

        spec = mixed_spec()
        store = TraceStore.create(tmp_path / "store")
        _, config = spec.device_config(0)
        store.put_for_config(config)  # only device 0's inputs
        store.save()
        plain = run_shard(spec, 1, 0, kernel="vector")
        backed = run_shard(spec, 1, 0, kernel="vector", trace_store=store)
        assert backed == plain

    def test_attach_time_reported_in_stats(self, tmp_path):
        from repro.fleet.kernel import KernelStats

        spec = mixed_spec()
        store = self._store_for(spec, tmp_path)
        stats = KernelStats()
        run_shard(spec, 1, 0, kernel="vector", stats=stats, trace_store=store)
        assert stats.attach_s > 0.0
        assert stats.attach_s <= stats.lane_build_s
        assert "store attach" in stats.render()


class TestAdaptiveHandoff:
    """The straggler cutoff fires only on a genuinely collapsed tail."""

    def _handoff(self, **kwargs):
        from repro.fleet.kernel import _VectorBatch

        return _VectorBatch._should_handoff(**kwargs)

    def test_fires_on_narrow_slow_tail(self):
        # 8192 lanes down to 64 over 10k iterations (avg ~0.8 done/iter),
        # and the last window retired almost nobody.
        assert self._handoff(
            initial=8192, live=64, iters=10_000, window_done=1,
            window_iters=512,
        )

    def test_holds_while_wide(self):
        # Plenty of lanes still live: never hand off, however slow the
        # window looks.
        assert not self._handoff(
            initial=8192, live=1024, iters=10_000, window_done=0,
            window_iters=512,
        )

    def test_holds_while_window_is_productive(self):
        # Narrow but still retiring lanes at a healthy fraction of the
        # average rate.
        assert not self._handoff(
            initial=8192, live=64, iters=10_000, window_done=300,
            window_iters=512,
        )

    def test_holds_at_zero_live_or_iters(self):
        assert not self._handoff(
            initial=8192, live=0, iters=10_000, window_done=0,
            window_iters=512,
        )
        assert not self._handoff(
            initial=8192, live=64, iters=0, window_done=0, window_iters=512,
        )

    def test_boundary_width_is_inclusive(self):
        # live * 64 == initial sits exactly on the threshold and is
        # eligible (the guard is live * 64 > initial).
        assert self._handoff(
            initial=4096, live=64, iters=10_000, window_done=0,
            window_iters=512,
        )
