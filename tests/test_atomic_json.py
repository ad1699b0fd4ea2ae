"""Every JSON journal write is all-or-nothing.

The fleet checkpoint journal, the serve result cache and the trace-store
manifest share one writer: a failed write must leave the previous file
byte-identical and no temp file behind.
"""

import json

import pytest

from repro.fleet import FleetSpec
from repro.fleet.checkpoint import FleetCheckpoint
from repro.fleet.rollup import FleetRollup
from repro.serve.cache import ResultCache
from repro.trace.store import TraceStore

SPEC = FleetSpec(devices=2, n_events=3)


def checkpoint_writer(directory):
    journal = FleetCheckpoint(str(directory), SPEC, shards=1)
    journal.initialize(resume=False)
    return journal.shard_path(0), lambda: journal.write_shard(0, FleetRollup())


def cache_writer(directory):
    cache = ResultCache(str(directory))
    path = cache._path(SPEC.fingerprint())
    return path, lambda: cache.put(SPEC, {"devices": 0})


def store_writer(directory):
    store = TraceStore(directory, create=True)
    return str(directory / "manifest.json"), store.save


@pytest.mark.parametrize(
    "make_writer", [checkpoint_writer, cache_writer, store_writer],
    ids=["checkpoint", "cache", "store"],
)
def test_failed_write_keeps_old_file_and_leaves_no_tmp(
    make_writer, tmp_path, monkeypatch
):
    path, write = make_writer(tmp_path)
    write()
    with open(path, "rb") as handle:
        before = handle.read()

    def failing_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        write()
    with open(path, "rb") as handle:
        assert handle.read() == before
    assert sorted(p.name for p in tmp_path.glob("*.tmp*")) == []
