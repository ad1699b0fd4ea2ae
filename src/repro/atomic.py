"""Crash-safe JSON file writes shared by every on-disk journal.

The fleet checkpoint journal, the serve result cache and the trace-store
manifest all publish a JSON file that a concurrent or later reader must
see either whole or not at all.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["atomic_write_json"]


def atomic_write_json(path: str, payload) -> None:
    """Write ``payload`` as sorted-keys JSON to ``path`` atomically.

    The bytes go to a fresh ``mkstemp`` file in the target directory, so
    two writers never share a temp file, and land with one
    ``os.replace``.  On any failure the temp file is removed and ``path``
    keeps its previous contents.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
