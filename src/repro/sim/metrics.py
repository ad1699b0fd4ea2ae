"""Run metrics: everything the paper's figures are computed from.

The evaluation's figure of merit is *interesting inputs discarded*, broken
down by cause (paper Figures 3 and 8-13):

* **IBO drops** — interesting inputs that arrived to a full buffer;
* **false negatives** — interesting inputs the (possibly degraded) ML
  model misclassified and discarded;

plus the *radio packet distribution* — how many interesting inputs were
reported, and of those, how many at high quality (full image) vs low
quality (single byte).

:class:`RunMetrics` also tracks energy/intermittence counters and
prediction-accuracy sums used by the sensitivity analyses and tests.

For populations of runs (seed replicas, device fleets) this module also
provides :class:`MetricsRollup`: a constant-size, *mergeable* streaming
fold over :class:`RunMetrics` values.  Rollups accumulate with exact
rational arithmetic, so any partition of the same runs into partial
rollups merges to a bit-identical result — the property the fleet
subsystem's serial-vs-sharded and checkpoint-resume guarantees rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from repro.errors import SimulationError

__all__ = ["RunMetrics", "StreamingDistribution", "MetricsRollup"]


@dataclass
class RunMetrics:
    """Counters collected over one simulation run."""

    # -- run span ------------------------------------------------------------
    sim_end_s: float = 0.0

    # -- capture process -------------------------------------------------------
    captures_total: int = 0
    #: Captures with the 'different' pin high (passed pre-filtering).
    captures_active: int = 0
    #: Captures with the 'interesting' pin high (ground-truth interesting).
    captures_interesting: int = 0
    #: Inputs actually inserted into the buffer.
    stored: int = 0
    #: Inputs lost to input buffer overflows.
    ibo_drops: int = 0
    ibo_drops_interesting: int = 0

    # -- job processing ----------------------------------------------------------
    jobs_completed: int = 0
    jobs_degraded: int = 0
    ibo_predictions: int = 0
    #: Interesting inputs discarded by ML misclassification.
    false_negatives: int = 0
    #: Uninteresting inputs correctly discarded.
    true_negatives: int = 0

    # -- radio packets -------------------------------------------------------------
    packets_interesting_high: int = 0
    packets_interesting_low: int = 0
    packets_uninteresting_high: int = 0
    packets_uninteresting_low: int = 0

    # -- end-of-run buffer state ------------------------------------------------------
    leftover_total: int = 0
    leftover_interesting: int = 0

    # -- energy & intermittence -----------------------------------------------------
    energy_harvested_j: float = 0.0
    energy_consumed_j: float = 0.0
    power_failures: int = 0
    recharge_time_s: float = 0.0
    policy_invocations: int = 0
    policy_time_s: float = 0.0
    policy_energy_j: float = 0.0

    # -- prediction accuracy -----------------------------------------------------------
    prediction_count: int = 0
    prediction_abs_error_s: float = 0.0
    prediction_error_s: float = 0.0

    # -- decision-path observability -----------------------------------------------------
    # Work counters from the policy's cached decision path (see
    # repro.core.runtime.DecisionPathStats); this is their one record
    # downstream of the policy.  These measure implementation
    # effort, not simulated behaviour: they are the one part of RunMetrics
    # deliberately EXCLUDED from the bit-identical comparison against the
    # readable reference semantics (tests/reference_semantics.py; the
    # differential tests strip them), and they stay zero for a policy
    # without a decision cache.
    decision_cache_hits: int = 0
    decision_cache_misses: int = 0
    decision_scored_candidates: int = 0
    degradation_walks: int = 0
    degradation_walk_steps: int = 0

    # -- per-option degradation counts (task -> option -> jobs) -------------------------
    option_use: dict = field(default_factory=dict)

    # -- derived figures of merit ----------------------------------------------------------

    @property
    def interesting_discarded_total(self) -> int:
        """Interesting inputs lost to IBOs plus ML false negatives.

        Inputs still buffered when the run ends count as discarded too
        (they were never reported), though a drained run leaves none.
        """
        return self.ibo_drops_interesting + self.false_negatives + self.leftover_interesting

    @property
    def interesting_discarded_fraction(self) -> float:
        """Discarded interesting inputs as a fraction of all interesting inputs."""
        if self.captures_interesting == 0:
            return 0.0
        return self.interesting_discarded_total / self.captures_interesting

    @property
    def ibo_discarded_fraction(self) -> float:
        """IBO-only discard fraction (Figure 9/10's solid bar component)."""
        if self.captures_interesting == 0:
            return 0.0
        return self.ibo_drops_interesting / self.captures_interesting

    @property
    def false_negative_fraction(self) -> float:
        """FN-only discard fraction (the hatched bar component)."""
        if self.captures_interesting == 0:
            return 0.0
        return self.false_negatives / self.captures_interesting

    @property
    def reported_interesting(self) -> int:
        """Interesting inputs transmitted (at any quality)."""
        return self.packets_interesting_high + self.packets_interesting_low

    @property
    def reported_interesting_high_quality(self) -> int:
        return self.packets_interesting_high

    @property
    def high_quality_fraction(self) -> float:
        """Fraction of reported interesting inputs sent at high quality."""
        reported = self.reported_interesting
        if reported == 0:
            return 0.0
        return self.packets_interesting_high / reported

    @property
    def packets_total(self) -> int:
        return (
            self.packets_interesting_high
            + self.packets_interesting_low
            + self.packets_uninteresting_high
            + self.packets_uninteresting_low
        )

    @property
    def mean_abs_prediction_error_s(self) -> float:
        """Mean |observed - predicted| service time over predicted jobs."""
        if self.prediction_count == 0:
            return 0.0
        return self.prediction_abs_error_s / self.prediction_count

    def record_option_use(self, task_name: str, option_name: str) -> None:
        """Count one job executing ``task_name`` at ``option_name``."""
        per_task = self.option_use.setdefault(task_name, {})
        per_task[option_name] = per_task.get(option_name, 0) + 1

    def to_dict(self) -> dict:
        """Flat summary used by the reporting helpers."""
        return {
            "sim_end_s": self.sim_end_s,
            "captures_total": self.captures_total,
            "captures_interesting": self.captures_interesting,
            "stored": self.stored,
            "ibo_drops": self.ibo_drops,
            "ibo_drops_interesting": self.ibo_drops_interesting,
            "false_negatives": self.false_negatives,
            "discarded_total": self.interesting_discarded_total,
            "discarded_fraction": self.interesting_discarded_fraction,
            "reported_interesting": self.reported_interesting,
            "reported_hq": self.packets_interesting_high,
            "reported_lq": self.packets_interesting_low,
            "hq_fraction": self.high_quality_fraction,
            "packets_uninteresting": self.packets_uninteresting_high
            + self.packets_uninteresting_low,
            "jobs_completed": self.jobs_completed,
            "jobs_degraded": self.jobs_degraded,
            "power_failures": self.power_failures,
            "recharge_time_s": self.recharge_time_s,
            "energy_harvested_j": self.energy_harvested_j,
            "energy_consumed_j": self.energy_consumed_j,
        }


# ---------------------------------------------------------------------------
# Mergeable streaming rollups.
#
# Everything below is exact integer/rational arithmetic on purpose: float
# addition is not associative, so a sum folded per-shard and then merged
# would differ in the last bits from the same sum folded serially.  With
# Fraction accumulators (every float is an exact binary rational) any
# grouping of the same observations produces the same exact total, which
# is what makes shard-parallel and checkpoint-resumed fleet runs
# bit-identical to uninterrupted serial ones.
# ---------------------------------------------------------------------------


def _fraction_to_pair(value: Fraction) -> list:
    return [value.numerator, value.denominator]


def _pair_to_fraction(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


class StreamingDistribution:
    """Constant-size, mergeable summary of a bounded per-run metric.

    Tracks the exact sum and sum of squares (for mean/std), the exact
    observed min/max, plus a fixed ``BIN_COUNT``-bin histogram over
    ``[0, 1]`` (for percentiles at ``1/BIN_COUNT`` resolution).  All
    state is integers, exact rationals, and exact observed floats, so
    :meth:`merge` is associative and commutative — any sharding of the
    same observations folds to identical state.
    """

    BIN_COUNT = 256

    __slots__ = ("count", "total", "total_sq", "bins", "vmin", "vmax")

    def __init__(self, count: int = 0, total: Fraction = Fraction(0),
                 total_sq: Fraction = Fraction(0), bins=None,
                 vmin: float | None = None, vmax: float | None = None) -> None:
        self.count = count
        self.total = total
        self.total_sq = total_sq
        self.bins: list[int] = list(bins) if bins is not None else [0] * self.BIN_COUNT
        self.vmin = vmin
        self.vmax = vmax

    # -- accumulation ------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Fold one observation in.

        The tracked metrics are fractions by construction, so a value
        outside ``[0, 1]`` is a bookkeeping bug upstream; it is rejected
        rather than silently clamped into the edge bins (which would
        corrupt the histogram without any trace).
        """
        if not 0.0 <= value <= 1.0:
            raise SimulationError(
                f"distribution observation {value!r} outside [0, 1]"
            )
        exact = Fraction(value)
        self.count += 1
        self.total += exact
        self.total_sq += exact * exact
        index = min(int(value * self.BIN_COUNT), self.BIN_COUNT - 1)
        self.bins[index] += 1
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def merge(self, other: "StreamingDistribution") -> None:
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        for i, n in enumerate(other.bins):
            self.bins[i] += n
        if other.vmin is not None and (self.vmin is None or other.vmin < self.vmin):
            self.vmin = other.vmin
        if other.vmax is not None and (self.vmax is None or other.vmax > self.vmax):
            self.vmax = other.vmax

    # -- statistics --------------------------------------------------------------

    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return float(self.total / self.count)

    def std(self) -> float:
        """Population standard deviation (0 for fewer than two samples)."""
        if self.count < 2:
            return 0.0
        variance = self.total_sq / self.count - (self.total / self.count) ** 2
        return math.sqrt(max(0.0, float(variance)))

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, reported as the holding bin's *lower*
        edge clamped into the exact observed ``[min, max]`` range.

        Resolution is ``1/BIN_COUNT`` (~0.4% for the default 256 bins) —
        plenty for discard-fraction distributions, and deterministic under
        any sharding because all the state is exact.  Reporting the lower
        edge keeps exact-boundary populations honest (an all-zero fleet
        reports 0.0, not 1/256), and the min/max clamp makes single-value
        distributions exact at *any* boundary (all-1.0 reports 1.0).
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        edge = 1.0
        for i, n in enumerate(self.bins):
            seen += n
            if seen >= rank:
                edge = i / self.BIN_COUNT
                break
        return min(max(edge, self.vmin), self.vmax)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": _fraction_to_pair(self.total),
            "total_sq": _fraction_to_pair(self.total_sq),
            "bins": {str(i): n for i, n in enumerate(self.bins) if n},
            # JSON floats round-trip exactly (repr-based), so min/max stay
            # bit-identical through serialization.
            "min": self.vmin,
            "max": self.vmax,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamingDistribution":
        bins = [0] * cls.BIN_COUNT
        for key, n in data["bins"].items():
            bins[int(key)] = int(n)
        return cls(
            count=int(data["count"]),
            total=_pair_to_fraction(data["total"]),
            total_sq=_pair_to_fraction(data["total_sq"]),
            bins=bins,
            vmin=data["min"],
            vmax=data["max"],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, StreamingDistribution):
            return NotImplemented
        return (
            self.count == other.count
            and self.total == other.total
            and self.total_sq == other.total_sq
            and self.bins == other.bins
            and self.vmin == other.vmin
            and self.vmax == other.vmax
        )


#: RunMetrics integer counters a rollup totals exactly.
_COUNTER_FIELDS = (
    "captures_total",
    "captures_active",
    "captures_interesting",
    "stored",
    "ibo_drops",
    "ibo_drops_interesting",
    "jobs_completed",
    "jobs_degraded",
    "ibo_predictions",
    "false_negatives",
    "true_negatives",
    "packets_interesting_high",
    "packets_interesting_low",
    "packets_uninteresting_high",
    "packets_uninteresting_low",
    "leftover_total",
    "leftover_interesting",
    "power_failures",
    "policy_invocations",
    "prediction_count",
    "decision_cache_hits",
    "decision_cache_misses",
    "decision_scored_candidates",
    "degradation_walks",
    "degradation_walk_steps",
)

#: RunMetrics float accumulators, summed as exact rationals.
_SUM_FIELDS = (
    "sim_end_s",
    "energy_harvested_j",
    "energy_consumed_j",
    "recharge_time_s",
    "policy_time_s",
    "policy_energy_j",
    "prediction_abs_error_s",
    "prediction_error_s",
)

#: Per-run derived fractions tracked as full distributions
#: (rollup key -> RunMetrics property name).
_DIST_FIELDS = {
    "discarded_fraction": "interesting_discarded_fraction",
    "ibo_fraction": "ibo_discarded_fraction",
    "false_negative_fraction": "false_negative_fraction",
    "hq_fraction": "high_quality_fraction",
}


class MetricsRollup:
    """Streaming, mergeable fold over :class:`RunMetrics` values.

    Holds O(1) state regardless of how many runs were observed: exact
    integer totals for every counter, exact rational sums for the float
    accumulators, a :class:`StreamingDistribution` per figure-of-merit
    fraction, and the merged per-option degradation counts.  ``merge``
    is associative, so per-shard rollups fold to the same state as one
    serial rollup over the same runs (in any grouping).
    """

    __slots__ = ("runs", "counters", "sums", "dists", "option_use")

    def __init__(self) -> None:
        self.runs = 0
        self.counters: dict[str, int] = {name: 0 for name in _COUNTER_FIELDS}
        self.sums: dict[str, Fraction] = {name: Fraction(0) for name in _SUM_FIELDS}
        self.dists: dict[str, StreamingDistribution] = {
            name: StreamingDistribution() for name in _DIST_FIELDS
        }
        self.option_use: dict[str, dict[str, int]] = {}

    # -- accumulation ------------------------------------------------------------

    def observe(self, metrics: RunMetrics) -> None:
        """Fold one run into the rollup (the run itself is not retained)."""
        self.runs += 1
        counters = self.counters
        for name in _COUNTER_FIELDS:
            counters[name] += getattr(metrics, name)
        sums = self.sums
        for name in _SUM_FIELDS:
            sums[name] += Fraction(getattr(metrics, name))
        for name, attribute in _DIST_FIELDS.items():
            self.dists[name].observe(getattr(metrics, attribute))
        for task_name, per_option in metrics.option_use.items():
            merged = self.option_use.setdefault(task_name, {})
            for option_name, count in per_option.items():
                merged[option_name] = merged.get(option_name, 0) + count

    def merge(self, other: "MetricsRollup") -> None:
        """Fold another rollup in (exact, grouping-independent)."""
        self.runs += other.runs
        for name in _COUNTER_FIELDS:
            self.counters[name] += other.counters[name]
        for name in _SUM_FIELDS:
            self.sums[name] += other.sums[name]
        for name in _DIST_FIELDS:
            self.dists[name].merge(other.dists[name])
        for task_name, per_option in other.option_use.items():
            merged = self.option_use.setdefault(task_name, {})
            for option_name, count in per_option.items():
                merged[option_name] = merged.get(option_name, 0) + count

    # -- statistics --------------------------------------------------------------

    def mean(self, name: str) -> float:
        """Per-run mean of a counter or float accumulator."""
        if self.runs == 0:
            return 0.0
        if name in self.counters:
            return self.counters[name] / self.runs
        return float(self.sums[name] / self.runs)

    def summary(self) -> dict:
        """Flat float summary (means, stds, and percentiles) for reporting."""
        out: dict = {"runs": self.runs}
        for name, dist in self.dists.items():
            out[f"{name}_mean"] = dist.mean()
            out[f"{name}_std"] = dist.std()
            out[f"{name}_p50"] = dist.percentile(50.0)
            out[f"{name}_p90"] = dist.percentile(90.0)
            out[f"{name}_p99"] = dist.percentile(99.0)
        for name in _COUNTER_FIELDS:
            out[name] = self.counters[name]
        for name in _SUM_FIELDS:
            out[name] = float(self.sums[name])
        return out

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Exact JSON-safe state (rationals as [numerator, denominator])."""
        return {
            "runs": self.runs,
            "counters": dict(self.counters),
            "sums": {name: _fraction_to_pair(v) for name, v in self.sums.items()},
            "dists": {name: d.to_dict() for name, d in self.dists.items()},
            "option_use": {
                task: dict(options) for task, options in self.option_use.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRollup":
        rollup = cls()
        rollup.runs = int(data["runs"])
        for name in _COUNTER_FIELDS:
            rollup.counters[name] = int(data["counters"][name])
        for name in _SUM_FIELDS:
            rollup.sums[name] = _pair_to_fraction(data["sums"][name])
        for name in _DIST_FIELDS:
            rollup.dists[name] = StreamingDistribution.from_dict(data["dists"][name])
        rollup.option_use = {
            task: {option: int(n) for option, n in options.items()}
            for task, options in data["option_use"].items()
        }
        return rollup

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricsRollup):
            return NotImplemented
        return (
            self.runs == other.runs
            and self.counters == other.counters
            and self.sums == other.sums
            and self.dists == other.dists
            and self.option_use == other.option_use
        )
