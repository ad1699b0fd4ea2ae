"""Content-addressed result cache for served fleet rollups.

The cache is addressed by :meth:`FleetSpec.fingerprint` — the sha256 of
the spec's canonical field JSON — because the determinism contract
(``tests/fleet/``) guarantees the rollup is bit-identical at any
``shards``/``jobs``/kernel setting.  Two submissions that agree on the
spec therefore agree on the answer, and the second one returns the
journaled bytes with zero recompute even if it asked for a different
shard count or kernel.  Each entry also records the
:data:`~repro.sim.engine.MODEL_VERSION` that computed it: an entry from
other simulator semantics is a miss, recomputed and overwritten.

Entries are single JSON files written atomically (the checkpoint
journal's :func:`~repro.atomic.atomic_write_json`), storing the
wire-encoded spec next to the rollup so an entry is self-describing and
auditable::

    <dir>/<fingerprint>.json
    {"cache_version": 1, "model_version": ..., "fingerprint": ...,
     "spec": {...to_wire...}, "rollup": {...FleetRollup.to_dict...}}

``canonical_rollup_json`` defines the byte form served to clients:
``json.dumps(rollup_dict, sort_keys=True)`` — exactly what the fleet
CLI's ``--json`` flag writes, so cached, fresh, resumed, and CLI-written
rollups are comparable with ``cmp``.
"""

from __future__ import annotations

import json
import os

from repro.atomic import atomic_write_json
from repro.errors import ConfigurationError
from repro.fleet.spec import FleetSpec
from repro.sim import engine

__all__ = ["CACHE_VERSION", "ResultCache", "canonical_rollup_json"]

#: Entry-format version; foreign versions read as misses, never as junk.
CACHE_VERSION = 1


def canonical_rollup_json(rollup_dict: dict) -> str:
    """The one byte form of a rollup dict (matches the fleet CLI ``--json``)."""
    return json.dumps(rollup_dict, sort_keys=True)


class ResultCache:
    """Fingerprint-addressed store of completed fleet rollups.

    Single-writer-per-entry safe: entries are immutable once written
    (same fingerprint ⇒ same bytes, so a concurrent double-write is
    idempotent), and reads see either the complete file or nothing —
    never a torn entry — thanks to the atomic replace.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, fingerprint: str) -> str:
        if not fingerprint or "/" in fingerprint or fingerprint.startswith("."):
            raise ConfigurationError(f"malformed cache fingerprint {fingerprint!r}")
        return os.path.join(self.directory, f"{fingerprint}.json")

    # -- reads -------------------------------------------------------------------

    def get(self, fingerprint: str) -> dict | None:
        """The cached rollup dict for ``fingerprint``, or ``None`` (a miss).

        Counts toward ``hits``/``misses``.  Unreadable, foreign-version and
        other-model-version entries are misses — the caller recomputes and
        overwrites.
        """
        entry = self._load(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry["rollup"]

    def peek_spec(self, fingerprint: str) -> FleetSpec | None:
        """The spec an entry was computed from (no hit/miss accounting)."""
        entry = self._load(fingerprint)
        if entry is None:
            return None
        return FleetSpec.from_wire(entry["spec"])

    def _load(self, fingerprint: str) -> dict | None:
        try:
            with open(self._path(fingerprint)) as handle:
                entry = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("cache_version") != CACHE_VERSION
            or entry.get("model_version") != engine.MODEL_VERSION
            or entry.get("fingerprint") != fingerprint
            or "rollup" not in entry
        ):
            return None
        return entry

    # -- writes ------------------------------------------------------------------

    def put(self, spec: FleetSpec, rollup_dict: dict) -> str:
        """Journal ``rollup_dict`` under ``spec``'s fingerprint; returns it."""
        fingerprint = spec.fingerprint()
        entry = {
            "cache_version": CACHE_VERSION,
            "model_version": engine.MODEL_VERSION,
            "fingerprint": fingerprint,
            "spec": spec.to_wire(),
            "rollup": rollup_dict,
        }
        atomic_write_json(self._path(fingerprint), entry)
        return fingerprint

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return sum(
            1 for name in os.listdir(self.directory) if name.endswith(".json")
        )

    def stats(self) -> dict:
        """Hit/miss counters plus the on-disk entry count."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}
