"""Time-series telemetry for simulation runs.

The headline metrics (:class:`~repro.sim.metrics.RunMetrics`) are
aggregates; understanding *why* a run behaved as it did — the story told
by the paper's Figure 2a — needs the trajectories: buffer occupancy over
time, stored energy, input power, and the quality decisions taken.

:class:`TelemetryRecorder` is a :class:`~repro.obs.TraceSink`: attach it
as ``SimulationEngine(tracer=...)`` and it folds the engine's ``capture``
and ``decision`` events into samples, kept as lists cheap enough to leave
enabled for paper-scale runs.  Decision-path work counters are not
telemetry: they live on :class:`~repro.sim.metrics.RunMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.events import TraceEvent

__all__ = [
    "BufferSample",
    "DecisionSample",
    "TelemetryRecorder",
    "ShardSample",
    "FleetRecorder",
]


@dataclass(frozen=True)
class BufferSample:
    """Device state observed at one capture tick."""

    t: float
    occupancy: int
    stored_energy_j: float
    input_power_w: float
    event_active: bool


@dataclass(frozen=True)
class DecisionSample:
    """One scheduling decision."""

    t: float
    job_name: str
    option_name: str
    degraded: bool
    ibo_predicted: bool
    predicted_service_s: float | None


class TelemetryRecorder:
    """Collects per-capture and per-decision samples during a run.

    A :class:`~repro.obs.TraceSink` (``SimulationEngine(tracer=...)``):
    ``capture`` events become :class:`BufferSample` rows and ``decision``
    events :class:`DecisionSample` rows; every other kind is ignored.

    Parameters
    ----------
    sample_every:
        Record every Nth capture sample (1 = all).  Decision samples are
        never thinned — they are the sparse, interesting ones.
    """

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ConfigurationError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.buffer_samples: list[BufferSample] = []
        self.decisions: list[DecisionSample] = []
        self._capture_count = 0
        # Occupancy aggregates run over *every* capture tick: sampling
        # thins the stored series only, never the statistics.
        self._occ_peak = 0
        self._occ_sum = 0

    # -- TraceSink ------------------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        kind = event.kind
        data = event.data
        if kind == "capture":
            occupancy = data["occupancy"]
            self._capture_count += 1
            if occupancy > self._occ_peak:
                self._occ_peak = occupancy
            self._occ_sum += occupancy
            if (self._capture_count - 1) % self.sample_every:
                return
            self.buffer_samples.append(BufferSample(
                event.t, occupancy, data["energy_j"], data["power_w"],
                data["event"],
            ))
        elif kind == "decision":
            self.decisions.append(DecisionSample(
                event.t, data["job"], data["option"], data["degraded"],
                data["ibo_predicted"], data["predicted_service_s"],
            ))

    # -- analysis helpers ----------------------------------------------------------

    def peak_occupancy(self) -> int:
        """Highest buffer occupancy observed at any capture tick.

        Computed from every ``capture`` event, not the (possibly
        thinned) stored series — ``sample_every`` never changes it.
        """
        return self._occ_peak

    def mean_occupancy(self) -> float:
        """Mean occupancy across all capture ticks (0 if none).

        Like :meth:`peak_occupancy`, exact under any ``sample_every``.
        """
        if not self._capture_count:
            return 0.0
        return self._occ_sum / self._capture_count

    def degraded_fraction(self) -> float:
        """Fraction of decisions that ran a degraded option."""
        if not self.decisions:
            return 0.0
        return sum(1 for d in self.decisions if d.degraded) / len(self.decisions)

    def occupancy_series(self) -> tuple[list[float], list[int]]:
        """(times, occupancies) for plotting."""
        return (
            [s.t for s in self.buffer_samples],
            [s.occupancy for s in self.buffer_samples],
        )

    def power_series(self) -> tuple[list[float], list[float]]:
        """(times, input powers) for plotting."""
        return (
            [s.t for s in self.buffer_samples],
            [s.input_power_w for s in self.buffer_samples],
        )

    def windowed_processing_rate(
        self, window_s: float
    ) -> tuple[list[float], list[float]]:
        """(window end times, decisions per second) — Figure 2a's y-axis.

        Decisions approximate processed inputs; the rate varies with input
        power and event activity, which is the paper's motivating
        observation.
        """
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be positive, got {window_s}")
        if not self.decisions:
            return [], []
        end = self.decisions[-1].t
        times, rates = [], []
        t = window_s
        idx = 0
        while t <= end + window_s:
            count = 0
            while idx < len(self.decisions) and self.decisions[idx].t < t:
                count += 1
                idx += 1
            times.append(t)
            rates.append(count / window_s)
            t += window_s
        return times, rates


@dataclass(frozen=True)
class ShardSample:
    """One completed fleet shard, as observed by a :class:`FleetRecorder`.

    Attributes
    ----------
    shard:
        Shard index within the fleet partition.
    devices:
        Devices simulated by the shard.
    failures:
        Device runs that exhausted their retries in the shard.
    resumed:
        True when the shard was restored from a checkpoint journal rather
        than recomputed.
    kernel_stats:
        Per-phase vector-kernel timing for the shard (a
        :class:`repro.fleet.kernel.KernelStats`), or None when the shard
        ran on the scalar kernel / was resumed from a journal.  Pure
        telemetry: it never feeds the rollup, so results stay
        kernel-invariant.
    """

    shard: int
    devices: int
    failures: int
    resumed: bool
    kernel_stats: object | None = None


class FleetRecorder:
    """Fleet-level counterpart of :class:`TelemetryRecorder`.

    :func:`repro.fleet.run_fleet` calls it once per completed shard (in
    shard order, whether recomputed or restored from the checkpoint
    journal) and once at the end with the final fleet rollup.  Only
    constant-size :class:`ShardSample` rows are retained per shard — the
    recorder never holds per-device metrics, so it is safe to leave
    attached to arbitrarily large fleets.
    """

    def __init__(self) -> None:
        self.shard_samples: list[ShardSample] = []
        #: Final fleet rollup (a :class:`repro.fleet.FleetRollup`); None
        #: until the run completes.
        self.rollup = None

    # -- fleet-service hooks -----------------------------------------------------

    def on_shard(self, shard: int, rollup, resumed: bool, kernel_stats=None) -> None:
        """Record one completed shard's rollup (not retained, only sampled)."""
        self.shard_samples.append(
            ShardSample(
                shard=shard,
                devices=rollup.devices,
                failures=rollup.failure_count,
                resumed=resumed,
                kernel_stats=kernel_stats,
            )
        )

    def on_fleet_end(self, rollup) -> None:
        self.rollup = rollup

    def kernel_stats_total(self):
        """Merged per-phase kernel timing across recomputed shards.

        Returns a :class:`repro.fleet.kernel.KernelStats`, or None when no
        shard reported one (scalar kernel, or everything resumed).
        """
        total = None
        for sample in self.shard_samples:
            if sample.kernel_stats is None:
                continue
            if total is None:
                from repro.fleet.kernel import KernelStats

                total = KernelStats()
            total.merge(sample.kernel_stats)
        return total

    # -- analysis helpers ----------------------------------------------------------

    def devices_observed(self) -> int:
        return sum(s.devices for s in self.shard_samples)

    def resumed_shards(self) -> list[int]:
        """Shard ids restored from the checkpoint journal, in shard order."""
        return [s.shard for s in self.shard_samples if s.resumed]
