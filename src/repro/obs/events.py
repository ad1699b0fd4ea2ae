"""The typed event model shared by every tracer and exporter.

One run (or one fleet) is described as a stream of :class:`TraceEvent`
rows on the simulated clock.  The engine, the Quetzal runtime, and the
vector kernel all emit the same nine kinds, so a Perfetto timeline of a
scalar run and of a vector-kernel lane read identically:

================  ==========================================================
kind              meaning
================  ==========================================================
``capture``       a sensor capture tick fired (payload: occupancy,
                  energy_j, active, interesting; the scalar engine adds
                  power_w and event, true while a sensing event is on)
``decision``      the policy scheduled a job (payload: job, option, flags)
``degradation``   a decision chose a degraded option (subset of decisions)
``ibo``           an input was dropped on buffer overflow
``power_fail``    stored energy hit the checkpoint reserve mid-task
``checkpoint``    the JIT checkpoint save span (``dur`` = save wall time)
``restore``       the post-recharge restore span (``dur``)
``recharge``      a dead/brownout recharge span (``dur`` = time spent dark)
``pid_update``    the PID service-time corrector absorbed an error sample
================  ==========================================================

Events are plain mutable dataclasses: hot paths build them with
positional fields, sinks may stamp ``device`` after the fact (the fleet
service does this when folding per-shard streams), and exporters read
them without any unpacking protocol beyond :meth:`TraceEvent.as_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EVENT_KINDS", "SPAN_KINDS", "TraceEvent"]

#: Every kind a conforming emitter may produce, in rough frequency order.
EVENT_KINDS = (
    "capture",
    "decision",
    "degradation",
    "ibo",
    "power_fail",
    "checkpoint",
    "restore",
    "recharge",
    "pid_update",
)

#: Kinds whose ``dur`` is meaningful (rendered as complete spans in the
#: Chrome trace; instant events everywhere else).
SPAN_KINDS = frozenset({"checkpoint", "restore", "recharge"})


@dataclass
class TraceEvent:
    """One timeline row.

    Attributes
    ----------
    t:
        Event start on the simulated clock (seconds).  For span kinds
        this is the span *start*; point events are instants.
    kind:
        One of :data:`EVENT_KINDS`.
    device:
        Fleet device id, or None for a bare single-engine run.  Sinks
        that aggregate multiple devices stamp this on ingest.
    dur:
        Span length in simulated seconds (0.0 for point events).
    data:
        Kind-specific payload (JSON-safe scalars only).
    """

    t: float
    kind: str
    device: int | None = None
    dur: float = 0.0
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Flat JSON-safe row (the JSONL line, minus the encoding)."""
        return {
            "t": self.t,
            "kind": self.kind,
            "device": self.device,
            "dur": self.dur,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "TraceEvent":
        return cls(
            t=float(row["t"]),
            kind=str(row["kind"]),
            device=row.get("device"),
            dur=float(row.get("dur", 0.0)),
            data=dict(row.get("data") or {}),
        )
