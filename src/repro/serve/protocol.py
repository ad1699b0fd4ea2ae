"""The serve wire protocol: versioned JSON-lines request/response.

One TCP connection carries newline-delimited JSON objects.  Every
request names the protocol version and an operation::

    {"schema_version": 1, "op": "submit", "spec": {...FleetSpec.to_wire...},
     "shards": 4, "kernel": "auto", "wait": true}

and every response is a single object with an ``ok`` flag (``watch`` is
the one streaming op: raw heartbeat records — the exact
:class:`~repro.obs.HeartbeatPublisher` JSONL schema — are interleaved
before the final ``ok`` object; telemetry rows are distinguished by
their ``type`` key).  Unknown operations, missing fields, and foreign
versions are rejected *before* any work is scheduled, so a stale client
fails loudly instead of computing the wrong fleet.

The spec payload inside ``submit``/``result`` is the versioned
:meth:`FleetSpec.to_wire` encoding — the same codec the fleet CLI's
``--spec`` files and the checkpoint manifests use; the protocol never
hand-rolls spec dicts.
"""

from __future__ import annotations

import json

from repro.errors import ConfigurationError

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "decode_line",
    "encode",
    "error_response",
    "validate_request",
]

#: Version of the serve request/response framing.  Bump when an op is
#: removed or a field changes meaning; servers reject versions they do
#: not speak.
PROTOCOL_VERSION = 1

#: Longest request line a server reads.  A longer line is answered with
#: a protocol error and the connection is closed.
MAX_LINE_BYTES = 64 * 1024

#: Operations a conforming server accepts.
REQUEST_OPS = frozenset({
    "ping",       # liveness check
    "submit",     # run (or dedupe/cache-hit) a FleetSpec
    "status",     # one job's state
    "result",     # fetch the exact rollup for a spec or job fingerprint
    "watch",      # stream heartbeat telemetry for a job
    "stats",      # server-wide cache/job counters
    "shutdown",   # stop the server after in-flight work
})

#: Ops that must carry a ``spec`` (wire-encoded FleetSpec) or a ``job``
#: (fingerprint string) to name their target.
_TARGETED_OPS = frozenset({"submit", "status", "result", "watch"})


def encode(message: dict) -> bytes:
    """One protocol message as a JSON line (sorted keys, UTF-8)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """Decode one received line; raises ``ConfigurationError`` on junk."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"protocol line is not UTF-8: {exc}") from exc
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"protocol line is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ConfigurationError(
            f"protocol message must be an object, got {type(message).__name__}"
        )
    return message


def validate_request(message: dict) -> str | None:
    """Why ``message`` is not a conforming request (``None`` = conforming).

    Checks framing only — the spec payload itself is validated by
    :meth:`FleetSpec.from_wire` so codec errors carry codec diagnostics.
    """
    if "schema_version" not in message:
        return "request is missing 'schema_version'"
    if message["schema_version"] != PROTOCOL_VERSION:
        return (
            f"protocol schema_version {message['schema_version']!r} is not "
            f"supported; this server speaks version {PROTOCOL_VERSION}"
        )
    op = message.get("op")
    if op not in REQUEST_OPS:
        return f"unknown op {op!r}; known: {sorted(REQUEST_OPS)}"
    if op in _TARGETED_OPS and "spec" not in message and "job" not in message:
        return f"op {op!r} needs a 'spec' (wire FleetSpec) or 'job' (fingerprint)"
    if "spec" in message and not isinstance(message["spec"], dict):
        return "'spec' must be a wire-encoded FleetSpec object"
    if "job" in message and not isinstance(message["job"], str):
        return "'job' must be a fingerprint string"
    return None


def error_response(reason: str) -> dict:
    """The uniform failure response."""
    return {"ok": False, "error": reason}
