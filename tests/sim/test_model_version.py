"""``MODEL_VERSION`` is derived from the committed golden corpus.

The constant keys persisted results (result-cache entries, checkpoint
journals) by the semantics that produced them, so it must move whenever
the goldens do.  This test recomputes it from both golden files; a
regenerated corpus without an updated constant fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.checkpoint import FleetCheckpoint
from repro.serve.cache import ResultCache
from repro.sim import engine

TESTS = Path(__file__).resolve().parents[1]
GOLDEN_FILES = {
    TESTS / "sim" / "data" / "fast_paths_goldens.json": "cases",
    TESTS / "fleet" / "data" / "kernel_parity_goldens.json": "specs",
}


def model_version_from_goldens() -> str:
    digests = []
    for path, key in GOLDEN_FILES.items():
        digests.extend(json.loads(path.read_text())[key].values())
    joined = "\n".join(sorted(digests))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def test_model_version_matches_goldens():
    assert engine.MODEL_VERSION == model_version_from_goldens(), (
        "golden corpus changed: set repro.sim.engine.MODEL_VERSION to "
        f"{model_version_from_goldens()!r}"
    )


def test_other_model_version_misses_cache_and_refuses_resume(tmp_path, monkeypatch):
    """Results persisted under other semantics are never served or resumed."""
    spec = FleetSpec(devices=4, seed=5, name="model-version", n_events=3,
                     policies=("NA",))
    cache = ResultCache(str(tmp_path / "cache"))
    fingerprint = cache.put(spec, {"devices": 4})
    journal_dir = str(tmp_path / "journal")
    run_fleet(spec, shards=2, jobs=1, checkpoint=journal_dir, stop_after=1)
    journal = FleetCheckpoint(journal_dir, spec, shards=2)
    assert cache.get(fingerprint) == {"devices": 4}
    assert journal.resumable()
    assert journal.load_shard(0) is not None

    monkeypatch.setattr(engine, "MODEL_VERSION", "0" * 16)
    assert cache.get(fingerprint) is None
    assert not journal.resumable()
    assert journal.load_shard(0) is None
    with pytest.raises(ConfigurationError, match="model version"):
        journal.initialize(resume=True)
    with pytest.raises(ConfigurationError, match="model version"):
        run_fleet(spec, shards=2, jobs=1, checkpoint=journal_dir, resume=True)
    # The spec's own address does not move with the model version.
    assert spec.fingerprint() == fingerprint
