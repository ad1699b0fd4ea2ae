"""Fleet-as-a-service: the asyncio submission server.

:class:`FleetServer` accepts wire-encoded :class:`FleetSpec` submissions
over the JSON-lines protocol (:mod:`repro.serve.protocol`), runs each
distinct spec at most once, and answers repeats from the
content-addressed :class:`~repro.serve.cache.ResultCache` with zero
recompute.  The moving parts:

* **Submission path** — ``submit`` resolves the spec's fingerprint and
  takes the first of: dedupe onto the identical in-flight job, serve the
  journaled rollup from the cache, or schedule a fresh job.
* **Execution** — jobs run :func:`repro.fleet.run_fleet` on a bounded
  ``ThreadPoolExecutor`` (``workers`` deep).  The default ``jobs=1``
  keeps each fleet serial in-process: the event loop stays free and no
  worker process is forked from a non-main thread.  Raising ``jobs``
  fans shards out over forked workers exactly like the CLI — supported,
  but the fork then happens off the main thread, so keep ``workers=1``
  in that mode.
* **Artifact reuse** — one persistent :class:`TraceStore` under
  ``data_dir/store`` is pre-populated per submission
  (``build_for_spec``) and attached to every run, so different specs
  sharing a ``(trace, schedule)`` pair generate it once, ever.
* **Crash safety** — each job journals shards into
  ``data_dir/jobs/<fingerprint>/journal``; a resubmission after a server
  kill resumes the finished shards (``FleetCheckpoint.resumable``)
  instead of starting over.
* **Telemetry** — the run's :class:`HeartbeatPublisher` records are
  bridged thread→loop and fanned out to every ``watch`` subscriber,
  with full replay for late joiners.

Invariant (pinned by ``tests/serve/``): the rollup bytes a client
fetches are identical whether the result was computed fresh, resumed
from a journal, or served from the cache — they are the fleet CLI's
``--json`` bytes.
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.fleet.checkpoint import FleetCheckpoint
from repro.fleet.service import run_fleet
from repro.fleet.spec import FleetSpec
from repro.obs.heartbeat import HeartbeatPublisher
from repro.serve import protocol
from repro.serve.cache import ResultCache
from repro.trace.store import TraceStore

__all__ = ["ServeConfig", "FleetServer", "ServerHandle", "start_background"]

_KERNELS = ("auto", "scalar", "vector")


@dataclass(frozen=True, kw_only=True)
class ServeConfig:
    """How a :class:`FleetServer` listens, executes, and persists.

    ``data_dir`` is the server's whole universe: the result cache lives
    in ``data_dir/cache``, the shared trace store in ``data_dir/store``,
    and per-job checkpoint journals under ``data_dir/jobs/``.  ``port=0``
    binds an ephemeral port (read it back from the server after start).
    ``jobs``/``kernel``/``shards`` are the *defaults* a submission gets
    when it doesn't choose; none of them changes result bytes.
    """

    data_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    jobs: int | None = 1
    shards: int = 1
    kernel: str = "auto"
    telemetry_every: float = 0.0
    trace_store: str | None = None  # default: data_dir/store

    def replace(self, **overrides) -> ServeConfig:
        """A copy with the given fields overridden (keyword-only)."""
        return replace(self, **overrides)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.kernel not in _KERNELS:
            raise ConfigurationError(
                f"kernel must be one of {_KERNELS}, got {self.kernel!r}"
            )
        if self.telemetry_every < 0:
            raise ConfigurationError(
                f"telemetry_every must be >= 0, got {self.telemetry_every}"
            )


class _Job:
    """One distinct spec's lifecycle inside the server."""

    __slots__ = (
        "spec", "fingerprint", "shards", "kernel", "state", "cached",
        "rollup", "error", "telemetry", "watchers", "done",
    )

    def __init__(self, spec: FleetSpec, shards: int, kernel: str) -> None:
        self.spec = spec
        self.fingerprint = spec.fingerprint()
        self.shards = shards
        self.kernel = kernel
        self.state = "queued"          # queued | running | done | failed
        self.cached = False
        self.rollup: dict | None = None
        self.error: str | None = None
        self.telemetry: list[str] = []  # raw heartbeat JSONL lines, in order
        self.watchers: set[asyncio.Queue] = set()
        self.done = asyncio.Event()

    def public(self) -> dict:
        """The status fields every response about this job carries."""
        return {
            "job": self.fingerprint,
            "state": self.state,
            "cached": self.cached,
            "shards": self.shards,
        }


class _TelemetryBridge:
    """A ``write(str)`` stream that hops heartbeat lines thread→loop.

    ``HeartbeatPublisher`` writes from the executor thread; subscribers
    live on the event loop.  ``call_soon_threadsafe`` is the only
    crossing point, so queues and the replay log are touched from the
    loop thread alone — no locks.
    """

    def __init__(self, server: "FleetServer", job: _Job) -> None:
        self._server = server
        self._job = job

    def write(self, text: str) -> None:
        self._server._loop.call_soon_threadsafe(
            self._server._publish_telemetry, self._job, text
        )


class FleetServer:
    """The asyncio fleet service.  See the module docstring for shape."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        os.makedirs(config.data_dir, exist_ok=True)
        self.cache = ResultCache(os.path.join(config.data_dir, "cache"))
        self.store = TraceStore.create(
            config.trace_store or os.path.join(config.data_dir, "store")
        )
        self._store_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="fleet-job"
        )
        self._jobs: dict[str, _Job] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._stopping: asyncio.Event | None = None
        self.host = config.host
        self.port = config.port
        self.submitted = 0
        self.deduped = 0

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (resolves an ephemeral ``port=0``)."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request, then drain in-flight jobs."""
        assert self._server is not None and self._stopping is not None
        async with self._server:
            await self._stopping.wait()
        await self._loop.run_in_executor(None, self._executor.shutdown)

    async def run(self) -> None:
        """``start`` + ``serve_until_shutdown`` (the CLI entry point)."""
        await self.start()
        await self.serve_until_shutdown()

    def request_shutdown(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran MAX_LINE_BYTES
                    await self._send(writer, protocol.error_response(
                        f"request line exceeds {protocol.MAX_LINE_BYTES} bytes"
                    ))
                    break
                if not line:
                    break
                try:
                    message = protocol.decode_line(line)
                except ConfigurationError as exc:
                    await self._send(writer, protocol.error_response(str(exc)))
                    continue
                reason = protocol.validate_request(message)
                if reason is not None:
                    await self._send(writer, protocol.error_response(reason))
                    continue
                try:
                    await self._dispatch(message, writer)
                except ConfigurationError as exc:
                    await self._send(writer, protocol.error_response(str(exc)))
                if message.get("op") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer, message: dict) -> None:
        writer.write(protocol.encode(message))
        await writer.drain()

    async def _dispatch(self, message: dict, writer) -> None:
        op = message["op"]
        if op == "ping":
            await self._send(
                writer, {"ok": True, "protocol": protocol.PROTOCOL_VERSION}
            )
        elif op == "submit":
            await self._op_submit(message, writer)
        elif op == "status":
            await self._op_status(message, writer)
        elif op == "result":
            await self._op_result(message, writer)
        elif op == "watch":
            await self._op_watch(message, writer)
        elif op == "stats":
            await self._send(writer, {"ok": True, **self.stats()})
        elif op == "shutdown":
            await self._send(writer, {"ok": True, "stopping": True})
            self.request_shutdown()

    # -- op: submit --------------------------------------------------------------

    async def _op_submit(self, message: dict, writer) -> None:
        if "spec" not in message:
            raise ConfigurationError("submit needs a wire-encoded 'spec'")
        spec = FleetSpec.from_wire(message["spec"])
        kernel = message.get("kernel", self.config.kernel)
        if kernel not in _KERNELS:
            raise ConfigurationError(
                f"kernel must be one of {_KERNELS}, got {kernel!r}"
            )
        # Clamp exactly like run_fleet so the checkpoint manifest and the
        # job agree on the shard count.
        shards = min(max(1, int(message.get("shards", self.config.shards))),
                     spec.devices)
        self.submitted += 1
        job = self._resolve_submission(spec, shards, kernel)
        if message.get("wait"):
            await job.done.wait()
            response = {"ok": job.state == "done", **job.public()}
            if job.rollup is not None:
                response["rollup"] = job.rollup
            if job.error is not None:
                response["error"] = job.error
            await self._send(writer, response)
        else:
            await self._send(writer, {"ok": True, **job.public()})

    def _resolve_submission(self, spec: FleetSpec, shards: int, kernel: str) -> _Job:
        """Dedupe → cache → fresh job, in that order."""
        fingerprint = spec.fingerprint()
        existing = self._jobs.get(fingerprint)
        if existing is not None and existing.state in ("queued", "running"):
            self.deduped += 1
            return existing
        # Not in flight: consult the cache (this is the hit/miss account).
        rollup = self.cache.get(fingerprint)
        if rollup is not None:
            if existing is not None and existing.state == "done":
                # Keep the original job object: it holds the telemetry
                # replay log watchers expect.  Mark it cache-served.
                existing.cached = True
                return existing
            job = _Job(spec, shards, kernel)
            job.state, job.cached, job.rollup = "done", True, rollup
            job.done.set()
            self._jobs[fingerprint] = job
            return job
        job = _Job(spec, shards, kernel)
        self._jobs[fingerprint] = job
        self._loop.run_in_executor(self._executor, self._run_job, job)
        return job

    # -- op: status / result -----------------------------------------------------

    def _target_fingerprint(self, message: dict) -> str:
        if "job" in message:
            return message["job"]
        return FleetSpec.from_wire(message["spec"]).fingerprint()

    async def _op_status(self, message: dict, writer) -> None:
        fingerprint = self._target_fingerprint(message)
        job = self._jobs.get(fingerprint)
        if job is None:
            cached = self.cache.peek_spec(fingerprint) is not None
            await self._send(writer, {
                "ok": True, "job": fingerprint,
                "state": "cached" if cached else "unknown", "cached": cached,
            })
            return
        await self._send(writer, {"ok": True, **job.public()})

    async def _op_result(self, message: dict, writer) -> None:
        fingerprint = self._target_fingerprint(message)
        job = self._jobs.get(fingerprint)
        if job is not None and job.state in ("queued", "running") and message.get("wait"):
            await job.done.wait()
        if job is not None and job.state == "done":
            await self._send(writer, {"ok": True, **job.public(),
                                      "rollup": job.rollup})
            return
        if job is not None and job.state == "failed":
            await self._send(writer, {"ok": False, **job.public(),
                                      "error": job.error})
            return
        # No live job this process knows — fall through to the journal on
        # disk (counts as a cache hit/miss).
        rollup = self.cache.get(fingerprint)
        if rollup is not None:
            await self._send(writer, {
                "ok": True, "job": fingerprint, "state": "done",
                "cached": True, "rollup": rollup,
            })
            return
        await self._send(writer, protocol.error_response(
            f"no result for {fingerprint}; submit the spec first"
        ))

    # -- op: watch ---------------------------------------------------------------

    async def _op_watch(self, message: dict, writer) -> None:
        fingerprint = self._target_fingerprint(message)
        job = self._jobs.get(fingerprint)
        if job is None:
            await self._send(writer, protocol.error_response(
                f"no job {fingerprint} to watch; submit the spec first"
            ))
            return
        # Replay first, then live-stream: a late watcher sees the whole
        # telemetry history in order, exactly once.
        queue: asyncio.Queue = asyncio.Queue()
        for line in job.telemetry:
            writer.write(line.encode("utf-8"))
        if not job.done.is_set():
            job.watchers.add(queue)
            try:
                await writer.drain()
                while True:
                    line = await queue.get()
                    if line is None:
                        break
                    writer.write(line.encode("utf-8"))
                    await writer.drain()
            finally:
                job.watchers.discard(queue)
        await self._send(writer, {"ok": job.state != "failed", **job.public()})

    def _publish_telemetry(self, job: _Job, text: str) -> None:
        job.telemetry.append(text)
        for queue in job.watchers:
            queue.put_nowait(text)

    # -- job execution (executor thread) -----------------------------------------

    def _run_job(self, job: _Job) -> None:
        try:
            self._loop.call_soon_threadsafe(self._mark_running, job)
            # Pre-populate the shared store so every (trace, schedule)
            # this spec needs exists exactly once, then attach it to the
            # run.  Serialized: TraceStore manifests are single-writer.
            with self._store_lock:
                self.store.build_for_spec(job.spec, jobs=1)
            journal = os.path.join(
                self.config.data_dir, "jobs", job.fingerprint, "journal"
            )
            resume = FleetCheckpoint(journal, job.spec, job.shards).resumable()
            heartbeat = HeartbeatPublisher(
                _TelemetryBridge(self, job),
                every_s=self.config.telemetry_every,
            )
            result = run_fleet(
                job.spec,
                shards=job.shards,
                jobs=self.config.jobs,
                checkpoint=journal,
                resume=resume,
                kernel=job.kernel,
                heartbeat=heartbeat,
                trace_store=self.store,
            )
            rollup = result.rollup.to_dict()
            self.cache.put(job.spec, rollup)
            self._loop.call_soon_threadsafe(self._finish_job, job, rollup, None)
        except BaseException as exc:  # the journal survives; resubmission resumes
            self._loop.call_soon_threadsafe(
                self._finish_job, job, None, f"{type(exc).__name__}: {exc}"
            )

    def _mark_running(self, job: _Job) -> None:
        job.state = "running"

    def _finish_job(self, job: _Job, rollup: dict | None, error: str | None) -> None:
        job.rollup = rollup
        job.error = error
        job.state = "done" if error is None else "failed"
        job.done.set()
        for queue in job.watchers:
            queue.put_nowait(None)

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "submitted": self.submitted,
            "deduped": self.deduped,
            "jobs": states,
            "cache": self.cache.stats(),
            "store_entries": len(self.store),
        }


# ---------------------------------------------------------------------------
# In-process background server (tests, notebooks, the smoke benchmark).
# ---------------------------------------------------------------------------


class ServerHandle:
    """A :class:`FleetServer` running on a daemon thread's event loop.

    Context manager: entering starts the loop and waits for the socket;
    exiting requests shutdown and joins the thread.  ``host``/``port``
    are live once ``__enter__`` returns.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.server = FleetServer(config)
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name="fleet-serve", daemon=True
        )

    def _main(self) -> None:
        async def body() -> None:
            await self.server.start()
            self._started.set()
            await self.server.serve_until_shutdown()

        try:
            asyncio.run(body())
        finally:
            self._started.set()  # unblock __enter__ even on bind failure

    def __enter__(self) -> "ServerHandle":
        # Idempotent: `with start_background(cfg) as handle` enters twice.
        if not self._thread.is_alive() and not self._started.is_set():
            self._thread.start()
        self._started.wait(timeout=30)
        if self.server._loop is None:
            raise ConfigurationError("fleet server failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        loop = self.server._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass  # loop already shut down
        self._thread.join(timeout=60)


def start_background(config: ServeConfig) -> ServerHandle:
    """Start a server on a background thread; returns the entered handle."""
    return ServerHandle(config).__enter__()
