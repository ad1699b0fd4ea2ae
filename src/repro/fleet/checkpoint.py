"""Checkpoint journals for fleet runs: kill a run, resume it bit-identically.

A fleet checkpoint is a directory holding

* ``manifest.json`` — the fleet spec (exact), its fingerprint, the shard
  count and the :data:`~repro.sim.engine.MODEL_VERSION` that ran it; and
* ``shard-NNNNNN.json`` — one journal entry per *completed* shard with
  that shard's exact :class:`~repro.fleet.rollup.FleetRollup` state.

Shard files are written atomically
(:func:`repro.atomic.atomic_write_json`) as each shard completes, so a
killed run leaves only whole entries behind and nothing for in-flight
shards.  On resume, entries that are missing,
truncated, or from a different spec/shard-count/model version are simply
recomputed — and because per-device derivation is a pure function of the
spec and rollup merging is exact, the resumed total is bit-identical to an
uninterrupted run's.  A journal recorded under other simulator semantics
(a manifest with another model version) is never resumed.
"""

from __future__ import annotations

import glob
import json
import os

from repro.atomic import atomic_write_json
from repro.errors import ConfigurationError
from repro.fleet.rollup import FleetRollup
from repro.fleet.spec import FleetSpec
from repro.sim import engine

__all__ = ["FleetCheckpoint"]

_MANIFEST = "manifest.json"
#: Version 3: the manifest's spec block is the versioned wire encoding
#: (``FleetSpec.to_wire``) instead of a bare field dict.
_VERSION = 3


class FleetCheckpoint:
    """Journal of completed shards for one (spec, shard-count) fleet run."""

    def __init__(self, directory: str, spec: FleetSpec, shards: int) -> None:
        self.directory = directory
        self.spec = spec
        self.shards = shards
        self.fingerprint = spec.fingerprint()

    # -- paths -------------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST)

    def shard_path(self, shard: int) -> str:
        return os.path.join(self.directory, f"shard-{shard:06d}.json")

    # -- lifecycle ---------------------------------------------------------------

    def resumable(self) -> bool:
        """True when the directory holds a manifest this run could resume.

        The seam the serve layer uses to turn "a journal from an earlier
        (possibly killed) run of this exact spec and shard count exists"
        into ``run_fleet(resume=True)`` without recomputing anything.
        """
        manifest = self._load_manifest()
        return (
            manifest is not None
            and manifest.get("fingerprint") == self.fingerprint
            and manifest.get("shards") == self.shards
            and manifest.get("model_version") == engine.MODEL_VERSION
        )

    def initialize(self, resume: bool) -> dict[int, FleetRollup]:
        """Prepare the journal; return the shards already completed.

        Fresh runs (``resume=False``) write the manifest and drop *every*
        stale shard entry in the directory — including files left behind
        by a previous run with a larger shard count, which would
        otherwise linger forever (and resurface if a later run matched
        their count again).  Resumed runs require a manifest for the
        same spec fingerprint, shard count and model version, then load
        every intact shard entry (damaged or missing entries are
        recomputed by the caller).
        """
        os.makedirs(self.directory, exist_ok=True)
        if resume:
            manifest = self._load_manifest()
            if manifest is None:
                raise ConfigurationError(
                    f"cannot resume: no readable manifest in {self.directory!r}"
                )
            if manifest.get("fingerprint") != self.fingerprint:
                raise ConfigurationError(
                    "cannot resume: checkpoint was recorded for a different "
                    "fleet spec (fingerprint mismatch)"
                )
            if manifest.get("shards") != self.shards:
                raise ConfigurationError(
                    f"cannot resume: checkpoint has {manifest.get('shards')} "
                    f"shards, this run asked for {self.shards}"
                )
            if manifest.get("model_version") != engine.MODEL_VERSION:
                raise ConfigurationError(
                    "cannot resume: checkpoint was recorded by model version "
                    f"{manifest.get('model_version')!r}, this run is "
                    f"{engine.MODEL_VERSION!r}"
                )
            return self._load_completed()
        atomic_write_json(self.manifest_path, {
            "version": _VERSION,
            "model_version": engine.MODEL_VERSION,
            "fingerprint": self.fingerprint,
            "shards": self.shards,
            "devices": self.spec.devices,
            "spec": self.spec.to_wire(),
        })
        for path in glob.glob(os.path.join(self.directory, "shard-*.json")):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        return {}

    def write_shard(self, shard: int, rollup: FleetRollup) -> None:
        """Journal one completed shard atomically."""
        atomic_write_json(self.shard_path(shard), {
            "version": _VERSION,
            "model_version": engine.MODEL_VERSION,
            "fingerprint": self.fingerprint,
            "shard": shard,
            "rollup": rollup.to_dict(),
        })

    def load_shard(self, shard: int) -> FleetRollup | None:
        """One journaled shard, or None if absent/truncated/foreign."""
        try:
            with open(self.shard_path(shard)) as handle:
                data = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if (
            data.get("version") != _VERSION
            or data.get("model_version") != engine.MODEL_VERSION
            or data.get("fingerprint") != self.fingerprint
            or data.get("shard") != shard
        ):
            return None
        try:
            return FleetRollup.from_dict(data["rollup"])
        except (KeyError, TypeError, ValueError):
            return None

    # -- helpers -----------------------------------------------------------------

    def _load_manifest(self) -> dict | None:
        try:
            with open(self.manifest_path) as handle:
                manifest = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if manifest.get("version") != _VERSION:
            return None
        return manifest

    def _load_completed(self) -> dict[int, FleetRollup]:
        completed: dict[int, FleetRollup] = {}
        for shard in range(self.shards):
            rollup = self.load_shard(shard)
            if rollup is not None:
                completed[shard] = rollup
        return completed
