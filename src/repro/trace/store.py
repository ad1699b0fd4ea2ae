"""Memory-mapped columnar trace store.

Synthetic solar traces and event schedules are deterministic functions of
``(generator params, seed)``, yet every fleet worker used to regenerate
them in-process — ~11 s of the 8192-device ``fleet_scale`` setup was
spent re-running the cloud Markov chain and the event draw loops.  This
module turns that recompute into a *read*: a directory holding

* one ``.npy`` file per ``(trace-kind, params, seed)`` entry, written in
  exactly the columnar layout the consumers bind —

  - ``solar``  : ``float64 (2, N)`` rows ``[powers, cum_energy]``
    (``times`` is the implied uniform grid ``arange(N) * sample_period``
    and is rebuilt, once, shared across every attached trace);
  - ``events`` : ``float64 (3, E)`` rows ``[starts, durations,
    interesting]`` (the ``EventSchedule.arrays()`` columns);

* a ``manifest.json`` keyed by the SHA-256 fingerprint of the entry's
  canonical key (same construction as ``FleetCheckpoint`` manifests:
  sorted-keys JSON, atomic tmp + ``os.replace`` writes), recording each
  entry's file, shape, data digest, and the scalar metadata needed to
  re-attach without recomputation (``period``, ``energy_per_period``, …).

Attach is zero-copy: ``np.load(..., mmap_mode="r")`` maps the file and
:meth:`PiecewiseConstantTrace._attach` / :meth:`EventSchedule._from_arrays`
bind row views directly, so N fleet workers (forked or independent) share
one page-cache copy of a GB-scale trace library.  Entries are immutable
once written — a fingerprint never changes meaning — which is what makes
the store safe to share between concurrent runs and to reuse across
specs (any config whose ``(params, seed)`` matches hits the same file).

CLI::

    python -m repro.trace store build DIR --devices N [fleet-spec flags]
    python -m repro.trace store ls DIR
    python -m repro.trace store verify DIR
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import mmap
import os
from typing import TYPE_CHECKING

import numpy as np

from repro.atomic import atomic_write_json
from repro.env.events import EventSchedule, EventScheduleGenerator
from repro.errors import TraceError
from repro.trace.power_trace import PiecewiseConstantTrace
from repro.trace.solar import SolarTraceConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiments -> trace)
    from repro.experiments.configs import ExperimentConfig
    from repro.fleet.spec import FleetSpec

__all__ = [
    "TraceStore",
    "fingerprint_key",
    "schedule_store_key",
    "solar_store_key",
]

_MANIFEST = "manifest.json"
_VERSION = 1


# -- entry keys ---------------------------------------------------------------
#
# A store key is a plain JSON-able dict naming everything the generator
# reads: the kind, the full generator params, and the seed (plus the
# generate() call arguments).  Fingerprints are SHA-256 over the
# canonical (sorted-keys, compact) JSON encoding, mirroring
# FleetSpec.fingerprint() so the identity survives process restarts and
# dict ordering.


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint_key(key: dict) -> str:
    """Stable SHA-256 identity of a store key dict."""
    return hashlib.sha256(_canonical(key).encode()).hexdigest()


def solar_store_key(config: SolarTraceConfig, seed: int, days: int = 1) -> dict:
    """Store key for ``SolarTraceGenerator(config, seed).generate(days)``."""
    return {
        "kind": "solar",
        "params": dataclasses.asdict(config),
        "seed": int(seed),
        "days": int(days),
    }


def schedule_store_key(
    generator: EventScheduleGenerator,
    n_events: int,
    seed: int,
    start_time: float = 0.0,
) -> dict:
    """Store key for ``generator.generate(n_events, seed, start_time)``."""
    return {
        "kind": "events",
        "params": dataclasses.asdict(generator),
        "n_events": int(n_events),
        "seed": int(seed),
        "start_time": float(start_time),
    }


class TraceStore:
    """A directory of fingerprinted, memory-mapped trace/schedule entries.

    Open an existing store with :meth:`open` (raises if the directory has
    no manifest) or :meth:`create` (makes the directory and an empty
    manifest, or opens an existing one for appending).  Writers call
    :meth:`put_trace` / :meth:`put_schedule` / :meth:`put_for_config` and
    then :meth:`save`; readers call :meth:`trace_for` /
    :meth:`schedule_for` with an :class:`ExperimentConfig` (or
    :meth:`get_trace` / :meth:`get_schedule` with a raw key) and receive
    attached, memmap-backed objects — ``None`` when the entry is absent,
    so callers can fall back to the generators.

    Attached objects are cached per fingerprint (they are immutable), and
    config-level lookups memoize on the config's cheap ``trace_key()`` /
    ``schedule_key()`` tuples so the per-device hot path never re-hashes
    JSON.
    """

    def __init__(self, directory: str | os.PathLike, *, create: bool = False):
        self.directory = os.fspath(directory)
        self._entries: dict[str, dict] = {}
        self._dirty = False
        self._attached: dict[str, object] = {}
        self._times_cache: dict[tuple, np.ndarray] = {}
        self._trace_memo: dict[tuple, PiecewiseConstantTrace | None] = {}
        self._schedule_memo: dict[tuple, EventSchedule | None] = {}
        manifest = os.path.join(self.directory, _MANIFEST)
        if os.path.exists(manifest):
            with open(manifest, encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("version") != _VERSION:
                raise TraceError(
                    f"trace store {self.directory} has manifest version "
                    f"{data.get('version')!r}; this build reads {_VERSION}"
                )
            self._entries = data["entries"]
        elif create:
            os.makedirs(self.directory, exist_ok=True)
            self.save()
        else:
            raise TraceError(
                f"no trace store at {self.directory} (missing {_MANIFEST}); "
                "build one with `python -m repro.trace store build`"
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def open(cls, directory: str | os.PathLike) -> "TraceStore":
        """Open an existing store (raises ``TraceError`` if absent)."""
        return cls(directory)

    @classmethod
    def create(cls, directory: str | os.PathLike) -> "TraceStore":
        """Create an empty store, or open an existing one for appending."""
        return cls(directory, create=True)

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: dict) -> bool:
        return fingerprint_key(key) in self._entries

    def counts(self) -> dict[str, int]:
        """Entry counts by kind."""
        out: dict[str, int] = {}
        for entry in self._entries.values():
            out[entry["kind"]] = out.get(entry["kind"], 0) + 1
        return out

    def nbytes(self) -> int:
        """Total payload bytes across all entries (per the manifest)."""
        return sum(entry["bytes"] for entry in self._entries.values())

    def render(self) -> str:
        counts = self.counts()
        kinds = ", ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
        return (
            f"trace store {self.directory}: {len(self._entries)} entries "
            f"({kinds or 'empty'}), {self.nbytes() / 1e6:.1f} MB payload"
        )

    # -- manifest -------------------------------------------------------------

    def save(self) -> None:
        """Atomically write the manifest (tmp + ``os.replace``)."""
        atomic_write_json(
            os.path.join(self.directory, _MANIFEST),
            {"version": _VERSION, "entries": self._entries},
        )
        self._dirty = False

    # -- writing --------------------------------------------------------------

    def _write_entry(self, fingerprint: str, key: dict, data: np.ndarray,
                     meta: dict) -> dict:
        kind = key["kind"]
        filename = f"{kind}-{fingerprint[:20]}.npy"
        path = os.path.join(self.directory, filename)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            np.lib.format.write_array(handle, data, allow_pickle=False)
            # Data start recorded in the manifest so attach can np.memmap
            # at a known offset instead of re-parsing the .npy header per
            # entry (the header parse dominated attach time at fleet scale).
            offset = handle.tell() - data.nbytes
        os.replace(tmp, path)
        return {
            "kind": kind,
            "key": key,
            "file": filename,
            "shape": list(data.shape),
            "offset": int(offset),
            "bytes": int(data.nbytes),
            "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
            "meta": meta,
        }

    @staticmethod
    def _trace_payload(key: dict, trace: PiecewiseConstantTrace) -> tuple:
        if key.get("kind") != "solar":
            raise TraceError(f"put_trace expects a 'solar' key, got {key!r}")
        if trace.period is None:
            raise TraceError("trace store only holds repeating traces")
        times = trace._times
        n = times.shape[0]
        sample_period = float(times[1]) if n > 1 else float(trace.period)
        # The store persists only powers/cum_energy; times is rebuilt as
        # arange(n) * sample_period on attach, so it must equal that grid
        # bit-for-bit (from_samples builds it exactly this way).
        if not np.array_equal(times, np.arange(n, dtype=float) * sample_period):
            raise TraceError("trace store requires a uniform sample grid")
        data = np.empty((2, n), dtype=np.float64)
        data[0] = trace._powers
        data[1] = trace._cum_energy
        meta = {
            "n": n,
            "sample_period": sample_period,
            "period": float(trace.period),
            "energy_per_period": float(trace._energy_per_period),
        }
        return data, meta

    @staticmethod
    def _schedule_payload(key: dict, schedule: EventSchedule) -> tuple:
        if key.get("kind") != "events":
            raise TraceError(f"put_schedule expects an 'events' key, got {key!r}")
        starts, durations, interesting = schedule.arrays()
        data = np.empty((3, starts.shape[0]), dtype=np.float64)
        data[0] = starts
        data[1] = durations
        data[2] = interesting
        meta = {
            "n_events": int(starts.shape[0]),
            "diff_probability": float(schedule.diff_probability),
            "background_diff_probability": float(
                schedule.background_diff_probability
            ),
        }
        return data, meta

    def put_trace(self, key: dict, trace: PiecewiseConstantTrace) -> str:
        """Persist a trace under ``key``; returns its fingerprint.

        Idempotent: an existing entry is left untouched (entries are
        immutable — same key, same params, same data).
        """
        fingerprint = fingerprint_key(key)
        if fingerprint not in self._entries:
            data, meta = self._trace_payload(key, trace)
            self._entries[fingerprint] = self._write_entry(
                fingerprint, key, data, meta
            )
            self._dirty = True
        return fingerprint

    def put_schedule(self, key: dict, schedule: EventSchedule) -> str:
        """Persist an event schedule under ``key``; returns its fingerprint."""
        fingerprint = fingerprint_key(key)
        if fingerprint not in self._entries:
            data, meta = self._schedule_payload(key, schedule)
            self._entries[fingerprint] = self._write_entry(
                fingerprint, key, data, meta
            )
            self._dirty = True
        return fingerprint

    def put_for_config(
        self,
        config: "ExperimentConfig",
        trace: PiecewiseConstantTrace | None = None,
        schedule: EventSchedule | None = None,
    ) -> tuple[str, str]:
        """Persist the trace and schedule one config needs.

        ``trace``/``schedule`` short-circuit regeneration when the caller
        already holds the built objects (the bench stores from prebuilt
        lanes this way); otherwise missing entries are generated via the
        config's builders.
        """
        trace_key = config.trace_store_key()
        trace_fp = fingerprint_key(trace_key)
        if trace_fp not in self._entries:
            trace_fp = self.put_trace(
                trace_key, trace if trace is not None else config.build_trace()
            )
        schedule_key = config.schedule_store_key()
        schedule_fp = fingerprint_key(schedule_key)
        if schedule_fp not in self._entries:
            schedule_fp = self.put_schedule(
                schedule_key,
                schedule if schedule is not None else config.build_schedule(),
            )
        return trace_fp, schedule_fp

    # -- attaching ------------------------------------------------------------

    def _mapped(self, fingerprint: str) -> np.ndarray:
        entry = self._entries[fingerprint]
        path = os.path.join(self.directory, entry["file"])
        offset = entry["offset"]
        try:
            # The manifest records the data offset at write time, so the
            # mapping skips the per-file .npy header parse; verify() still
            # cross-checks the real header against the manifest.  Mapping
            # through mmap + frombuffer (rather than np.memmap) trims the
            # per-entry constructor overhead, which is measurable when a
            # fleet attaches tens of thousands of entries.
            with open(path, "rb") as handle:
                mapping = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            if mapping.size() != offset + entry["bytes"]:
                raise TraceError(
                    f"trace store entry {entry['file']} is truncated"
                )
            data = np.frombuffer(
                mapping, dtype=np.float64, offset=offset
            ).reshape(entry["shape"])
        except (OSError, ValueError) as exc:
            raise TraceError(
                f"trace store entry {entry['file']} unreadable: {exc}"
            ) from exc
        return data

    def _times(self, n: int, sample_period: float) -> np.ndarray:
        cache_key = (n, sample_period)
        times = self._times_cache.get(cache_key)
        if times is None:
            times = np.arange(n, dtype=float) * sample_period
            times.setflags(write=False)
            self._times_cache[cache_key] = times
        return times

    def get_trace(self, key: dict) -> PiecewiseConstantTrace | None:
        """Attach the stored trace for ``key`` (``None`` if absent)."""
        fingerprint = fingerprint_key(key)
        cached = self._attached.get(fingerprint)
        if cached is not None:
            return cached  # type: ignore[return-value]
        entry = self._entries.get(fingerprint)
        if entry is None:
            return None
        if entry["kind"] != "solar":
            raise TraceError(f"entry for {key!r} is {entry['kind']}, not solar")
        data = self._mapped(fingerprint)
        meta = entry["meta"]
        trace = PiecewiseConstantTrace._attach(
            self._times(entry["shape"][1], meta["sample_period"]),
            data[0],
            data[1],
            meta["period"],
            meta["energy_per_period"],
        )
        self._attached[fingerprint] = trace
        return trace

    def get_schedule(self, key: dict) -> EventSchedule | None:
        """Attach the stored schedule for ``key`` (``None`` if absent)."""
        fingerprint = fingerprint_key(key)
        cached = self._attached.get(fingerprint)
        if cached is not None:
            return cached  # type: ignore[return-value]
        entry = self._entries.get(fingerprint)
        if entry is None:
            return None
        if entry["kind"] != "events":
            raise TraceError(f"entry for {key!r} is {entry['kind']}, not events")
        data = self._mapped(fingerprint)
        meta = entry["meta"]
        schedule = EventSchedule._from_arrays(
            data[0],
            data[1],
            data[2] != 0.0,
            meta["diff_probability"],
            meta["background_diff_probability"],
        )
        self._attached[fingerprint] = schedule
        return schedule

    def trace_for(self, config: "ExperimentConfig") -> PiecewiseConstantTrace | None:
        """The stored trace for a config, memoized on ``trace_key()``."""
        memo_key = config.trace_key()
        if memo_key in self._trace_memo:
            return self._trace_memo[memo_key]
        trace = self.get_trace(config.trace_store_key())
        self._trace_memo[memo_key] = trace
        return trace

    def schedule_for(self, config: "ExperimentConfig") -> EventSchedule | None:
        """The stored schedule for a config, memoized on ``schedule_key()``."""
        memo_key = config.schedule_key()
        if memo_key in self._schedule_memo:
            return self._schedule_memo[memo_key]
        schedule = self.get_schedule(config.schedule_store_key())
        self._schedule_memo[memo_key] = schedule
        return schedule

    # -- bulk build -----------------------------------------------------------

    def build_for_spec(
        self,
        spec: "FleetSpec",
        jobs: int | None = 1,
        progress=None,
    ) -> dict:
        """Generate and persist every entry ``spec``'s devices need.

        Deduplicates by config cache key first (devices sharing a trace
        or schedule cost one generation), fans generation over forked
        workers when ``jobs`` allows (each worker writes its own data
        files; the parent merges manifest entries and saves once), and
        returns ``{"traces": ..., "schedules": ..., "reused": ...}``
        counts.
        """
        trace_work: dict[tuple, "ExperimentConfig"] = {}
        schedule_work: dict[tuple, "ExperimentConfig"] = {}
        for index in range(spec.devices):
            _, config = spec.device_config(index)
            trace_work.setdefault(config.trace_key(), config)
            schedule_work.setdefault(config.schedule_key(), config)

        items: list[tuple[str, dict, "ExperimentConfig"]] = []
        reused = 0
        for config in trace_work.values():
            key = config.trace_store_key()
            if key in self:
                reused += 1
            else:
                items.append(("solar", key, config))
        for config in schedule_work.values():
            key = config.schedule_store_key()
            if key in self:
                reused += 1
            else:
                items.append(("events", key, config))

        def build_one(item) -> tuple[str, dict]:
            kind, key, config = item
            fingerprint = fingerprint_key(key)
            if kind == "solar":
                data, meta = self._trace_payload(key, config.build_trace())
            else:
                data, meta = self._schedule_payload(key, config.build_schedule())
            return fingerprint, self._write_entry(fingerprint, key, data, meta)

        from repro.experiments.runner import map_indexed, resolve_jobs

        # Entries are ~1 ms of generator work each; hand each forked
        # worker a block of them so fan-out overhead amortizes (one task
        # per entry measurably *lost* time against serial generation).
        blocks = max(1, min(4 * resolve_jobs(jobs), len(items)))
        bounds = [
            (len(items) * i // blocks, len(items) * (i + 1) // blocks)
            for i in range(blocks)
        ]

        def build_block(index: int) -> list:
            lo, hi = bounds[index]
            return [build_one(items[i]) for i in range(lo, hi)]

        done = 0

        def on_result(index: int, outcome) -> None:
            nonlocal done
            done += len(outcome)
            if progress is not None:
                progress(f"trace store: {done}/{len(items)} entries built")

        block_results = map_indexed(
            build_block, blocks, jobs, on_result=on_result
        )
        traces = schedules = 0
        for block in block_results:
            for fingerprint, entry in block:
                self._entries[fingerprint] = entry
                if entry["kind"] == "solar":
                    traces += 1
                else:
                    schedules += 1
        if items:
            self._dirty = True
        self.save()
        return {"traces": traces, "schedules": schedules, "reused": reused}

    # -- integrity ------------------------------------------------------------

    def verify(self) -> list[str]:
        """Re-check every entry against the manifest; returns problems."""
        problems: list[str] = []
        for fingerprint, entry in sorted(self._entries.items()):
            expected = fingerprint_key(entry["key"])
            if expected != fingerprint:
                problems.append(
                    f"{entry['file']}: manifest fingerprint {fingerprint[:12]} "
                    f"does not match its key ({expected[:12]})"
                )
            path = os.path.join(self.directory, entry["file"])
            if not os.path.exists(path):
                problems.append(f"{entry['file']}: data file missing")
                continue
            try:
                data = np.load(path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError) as exc:
                problems.append(f"{entry['file']}: unreadable ({exc})")
                continue
            if list(data.shape) != entry["shape"] or data.dtype != np.float64:
                problems.append(
                    f"{entry['file']}: shape/dtype {data.shape}/{data.dtype} "
                    f"!= manifest {entry['shape']}/float64"
                )
                continue
            if os.path.getsize(path) != entry["offset"] + entry["bytes"]:
                problems.append(
                    f"{entry['file']}: size does not match manifest "
                    "offset + bytes (attach would mis-map)"
                )
                continue
            digest = hashlib.sha256(np.ascontiguousarray(data).tobytes())
            if digest.hexdigest() != entry["sha256"]:
                problems.append(f"{entry['file']}: payload sha256 mismatch")
        return problems
