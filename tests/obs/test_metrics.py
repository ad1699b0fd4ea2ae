"""The metrics registry: exactness, merge, exposition, telemetry views."""

from fractions import Fraction

import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetSpec, run_fleet
from repro.obs import MetricsRegistry, fleet_registry
from repro.obs.metrics import (
    FRACTION_BUCKETS,
    _rebin_256_to_buckets,
    kernel_stats_registry,
)


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        c = registry.counter("x_total", "help", labels=("policy",))
        c.inc(2, policy="NA")
        c.inc(3, policy="NA")
        c.inc(1, policy="QZ")
        assert c.value(policy="NA") == 5
        assert c.value(policy="QZ") == 1
        assert c.value(policy="??") == 0

    def test_counters_only_go_up(self):
        c = MetricsRegistry().counter("x_total", "help")
        with pytest.raises(ConfigurationError, match="up"):
            c.inc(-1)

    def test_exact_fraction_values(self):
        c = MetricsRegistry().counter("x_sum", "help")
        c.inc(Fraction(1, 3))
        c.inc(Fraction(1, 3))
        c.inc(Fraction(1, 3))
        assert c.value() == 1

    def test_label_set_enforced(self):
        c = MetricsRegistry().counter("x_total", "help", labels=("policy",))
        with pytest.raises(ConfigurationError, match="labels"):
            c.inc(1, nope="NA")


class TestGaugeAndHistogram:
    def test_gauge_set_and_inc(self):
        g = MetricsRegistry().gauge("x", "help")
        g.set(10)
        g.inc(2)
        assert g.value() == 12

    def test_histogram_buckets(self):
        h = MetricsRegistry().histogram("x", "help", buckets=(0.5, 1.0))
        h.observe(0.2)
        h.observe(0.7)
        h.observe(2.0)  # above the top bound: only count/sum move
        row = h.series[()]
        assert row["counts"] == [1, 1]
        assert row["count"] == 3
        # Exact over the binary floats observed, not a decimal idealisation.
        assert row["sum"] == Fraction(0.2) + Fraction(0.7) + Fraction(2.0)

    def test_histogram_buckets_validated(self):
        with pytest.raises(ConfigurationError, match="sorted"):
            MetricsRegistry().histogram("x", "help", buckets=(1.0, 0.5))

    def test_observe_binned_width_checked(self):
        h = MetricsRegistry().histogram("x", "help", buckets=(0.5, 1.0))
        with pytest.raises(ConfigurationError, match="bucket counts"):
            h.observe_binned([1], 0, 1)


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "help")
        b = registry.counter("x_total", "help")
        assert a is b

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "help")
        with pytest.raises(ConfigurationError, match="re-registered"):
            registry.gauge("x", "help")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "help", labels=("policy",))
        with pytest.raises(ConfigurationError, match="re-registered"):
            registry.counter("x", "help", labels=("shard",))

    def test_merge_is_exact(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, amount in ((a, Fraction(1, 3)), (b, Fraction(2, 3))):
            registry.counter("x_sum", "help").inc(amount)
            registry.histogram("h", "help").observe(float(amount))
            registry.gauge("g", "help").inc(1)
        a.merge(b)
        assert a.get("x_sum").value() == 1
        assert a.get("h").series[()]["count"] == 2
        assert a.get("g").value() == 2

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "a counter", labels=("policy",)).inc(
            3, policy="NA"
        )
        registry.histogram("h", "a histogram", buckets=(0.5, 1.0)).observe(0.2)
        text = registry.to_prometheus()
        assert "# HELP x_total a counter" in text
        assert "# TYPE x_total counter" in text
        assert 'x_total{policy="NA"} 3' in text
        assert 'h_bucket{le="0.5"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_count 1" in text
        assert text.endswith("\n")

    def test_to_dict_is_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter("x_sum", "help").inc(Fraction(1, 3))
        registry.histogram("h", "help").observe(0.25)
        json.dumps(registry.to_dict())  # must not raise


class TestRebin:
    def test_groups_of_sixteen(self):
        bins = [1] * 256
        coarse = _rebin_256_to_buckets(bins)
        assert len(coarse) == len(FRACTION_BUCKETS)
        assert coarse == [16] * 16
        assert sum(coarse) == sum(bins)


def _canon(registry):
    """to_dict with every family's series sorted by its label values."""
    out = registry.to_dict()
    for family in out.values():
        family["series"] = sorted(
            family["series"], key=lambda row: sorted(row["labels"].items())
        )
    return out


def small_fleet(**kw):
    base = dict(devices=6, seed=11, name="m", n_events=3,
                policies=("NA", "AD", "TH50"))
    base.update(kw)
    return FleetSpec(**base)


class TestFleetRegistry:
    def test_totals_match_rollup(self):
        rollup = run_fleet(small_fleet(), shards=1, jobs=1).rollup
        registry = fleet_registry(rollup)
        assert registry.get("repro_fleet_devices").value() == rollup.devices
        captures = registry.get("repro_captures_total")
        total = sum(
            captures.value(policy=p) for p in rollup.by_policy
        )
        assert total == rollup.overall.counters["captures_total"]

    def test_shard_registries_merge_to_fleet_registry(self):
        spec = small_fleet()
        from repro.fleet.service import run_shard

        shard_regs = [
            fleet_registry(run_shard(spec, 3, shard)) for shard in range(3)
        ]
        merged = MetricsRegistry()
        for reg in shard_regs:
            merged.merge(reg)
        whole = fleet_registry(run_fleet(spec, shards=3, jobs=1).rollup)
        # devices/failure gauges sum across shards; every counter and
        # histogram merge is exact.  Series order may differ (a shard
        # need not see every policy), so compare canonically.
        assert _canon(merged) == _canon(whole)

    def test_signed_sums_survive_quetzal_fleets(self):
        # Quetzal's prediction_error_s sum is signed, so the _sum
        # families must be additive gauges, not monotone counters.
        rollup = run_fleet(
            small_fleet(policies=("NA", "QZ")), shards=2, jobs=1
        ).rollup
        registry = fleet_registry(rollup)
        family = registry.get("repro_prediction_error_s_sum")
        assert family.kind == "gauge"
        assert family.value(policy="QZ") == \
            rollup.by_policy["QZ"].sums["prediction_error_s"]
        assert registry.to_prometheus()

    def test_each_counter_family_is_one_rollup_field(self):
        # Every counter family names exactly one RunMetrics counter and
        # equals the rollup's per-policy sum of it; no fact is exported
        # twice under two names (QZ makes the decision-path counters
        # non-zero).
        from repro.sim.metrics import _COUNTER_FIELDS

        rollup = run_fleet(
            small_fleet(policies=("NA", "QZ")), shards=2, jobs=1
        ).rollup
        assert rollup.by_policy["QZ"].counters["decision_scored_candidates"] > 0
        fields = []
        for family in fleet_registry(rollup).families():
            if family.kind != "counter":
                continue
            name = family.name[len("repro_"):]
            if name not in _COUNTER_FIELDS:
                name = name[: -len("_total")]
            assert name in _COUNTER_FIELDS, family.name
            assert family.label_names == ("policy",), family.name
            for policy, sub in rollup.by_policy.items():
                assert family.value(policy=policy) == sub.counters[name], (
                    family.name, policy,
                )
            fields.append(name)
        assert sorted(fields) == sorted(_COUNTER_FIELDS)

    def test_registry_is_kernel_invariant(self):
        spec = small_fleet()
        scalar = fleet_registry(run_fleet(spec, shards=2, jobs=1,
                                          kernel="scalar").rollup)
        vector = fleet_registry(run_fleet(spec, shards=3, jobs=1,
                                          kernel="vector").rollup)
        assert scalar.to_prometheus() == vector.to_prometheus()
        assert scalar.to_dict() == vector.to_dict()


class TestTelemetryViews:
    def test_kernel_stats_registry(self):
        from repro.fleet.kernel import KernelStats

        stats = KernelStats(lanes=8, batches=1, ctrl_s=0.5, adv_s=1.5)
        registry = kernel_stats_registry(stats)
        assert registry.get("repro_kernel_lanes_total").value() == 8
        phase = registry.get("repro_kernel_phase_seconds")
        assert phase.value(phase="ctrl") == Fraction(0.5)
        assert phase.value(phase="adv") == Fraction(1.5)

    def test_fleet_registry_includes_kernel_stats_on_request(self):
        from repro.fleet.kernel import KernelStats

        rollup = run_fleet(small_fleet(), shards=1, jobs=1).rollup
        registry = fleet_registry(rollup, kernel_stats=KernelStats(lanes=6))
        assert registry.get("repro_kernel_lanes_total").value() == 6
        assert "repro_kernel_lanes_total" not in fleet_registry(rollup)
