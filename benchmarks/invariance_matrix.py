"""Invariance-matrix gate (the `make invariance` / CI gate).

The fleet and service tiers must stay the paper's one fixed-increment
simulator: for a given spec, fresh = resumed = vector = store-backed =
observed = served = cached, byte for byte.  This script computes each
distinct spec's *reference* rollup once — the fleet CLI loading the spec
from its versioned JSON file, scalar kernel, one shard, generated
inputs, observability off — then runs every leg below in this process
through the real CLIs and server, and byte-compares each leg's rollup
with its spec's reference:

``resume``
    ``--shards 2 --checkpoint`` killed by ``--stop-after 1`` (exit 3),
    then ``--resume`` (exit 0).
``vector``
    ``--kernel vector``.
``store``
    ``python -m repro.trace store build`` / ``ls`` / ``verify``, then
    ``--trace-store`` on the scalar and the vector kernel.
``shards-jobs-{scalar,vector}``
    ``--shards 2 --jobs 2`` on each kernel; the ``--metrics-out``
    ``.prom`` / ``.json`` bytes must equal the reference's too.
``observed``
    ``--trace-out`` / ``--metrics-out`` / ``--telemetry-out`` /
    ``--kernel-stats`` all on.  The Chrome trace, the JSONL events, the
    heartbeats and the Prometheus text must pass schema validation, and
    the rollup (minus the opt-in wall-clock ``kernel_stats`` key) must
    equal the unobserved reference.
``serve``
    an in-process server answers a miss, then a hit at a different shard
    count, then a mutated-spec miss whose rollup differs; the served
    bytes equal the reference, ``watch`` streams a schema-valid
    start/heartbeat/end telemetry record set, and the server reports
    cache ``{hits 1, misses 2, entries 2}`` and 3 submissions.
``cached``
    a restarted server on the ``serve`` leg's data directory answers the
    spec from its on-disk cache (within one server a hit reuses the
    finished job held in memory), byte-identical to the reference.

Prints one line per reference and per leg; a failing leg is named with
its reason and the script exits 1.  Set ``INVARIANCE_DIR`` to keep the
artifacts (observability outputs, store manifest, serve telemetry and
stats); CI uploads them.

Run with ``PYTHONPATH=src python benchmarks/invariance_matrix.py``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
import sys
import tempfile
import traceback

from repro.cli import spec_from_args
from repro.fleet.__main__ import build_parser as fleet_parser
from repro.fleet.__main__ import main as fleet_main
from repro.obs import validate_chrome_trace, validate_jsonl_events
from repro.obs.heartbeat import validate_heartbeat_records
from repro.serve import (
    FleetClient,
    ServeConfig,
    canonical_rollup_json,
    start_background,
)
from repro.trace.__main__ import main as trace_main

#: The spec the resume, vector, store and serve legs share.
FLEET = ["--devices", "24", "--seed", "3", "--events", "5"]
#: Quetzal rides along deliberately: it exercises the vector kernel's
#: scalar-fallback lanes, pid_update trace events and the signed
#: prediction_error_s sum (a gauge, not a counter).
MIXED = ["--devices", "8", "--seed", "3", "--events", "5",
         "--policies", "NA,AD,QZ,TH50"]
SHARDS = "2"

#: Artifacts copied into INVARIANCE_DIR (a subdirectory's "/" becomes "-").
ARTIFACTS = (
    "observed.trace.chrome.json",
    "observed.trace.jsonl",
    "observed.telemetry.jsonl",
    "observed.metrics.prom",
    "observed.metrics.json",
    "store/manifest.json",
    "serve.telemetry.jsonl",
    "serve.stats.json",
)


class LegFailure(Exception):
    """A leg's bytes or artifacts broke the invariance contract."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise LegFailure(message)


def read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def call(module: str, main, args: list[str], expect: int = 0) -> None:
    """Run a CLI ``main`` in-process, its stdout captured, and check its exit."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    check(code == expect,
          f"python -m {module} {' '.join(args)} exited {code}, expected {expect}")


def fleet(*args: str, expect: int = 0) -> None:
    call("repro.fleet", fleet_main, [*args, "--quiet"], expect)


def check_prometheus(text: str) -> str | None:
    """A light parse of the text exposition format; None when it holds."""
    families = set()
    for i, line in enumerate(text.splitlines()):
        where = f".prom line {i + 1}"
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            families.add(line.split()[2])
            continue
        if not line:
            return f"{where}: empty line"
        name, _, value = line.rpartition(" ")
        name = name.split("{")[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
        if base not in families and name not in families:
            return f"{where}: sample {name!r} has no HELP/TYPE header"
        try:
            float(value)
        except ValueError:
            return f"{where}: unparsable value {value!r}"
    if "repro_captures_total" not in families:
        return "repro_captures_total family missing"
    return None


class Matrix:
    """The references and legs, sharing one working directory."""

    def __init__(self, work: str) -> None:
        self.work = work
        self.reference: dict[str, dict[str, str]] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def compute_reference(self, label: str, flags: list[str]) -> str:
        spec = spec_from_args(fleet_parser().parse_args(flags))
        spec_path = self.path(f"{label}.spec.json")
        with open(spec_path, "w") as handle:
            handle.write(spec.to_json())
        fleet("--spec", spec_path, "--kernel", "scalar",
              "--json", self.path(f"{label}.rollup.json"),
              "--metrics-out", self.path(f"{label}.metrics"))
        self.reference[label] = {
            "rollup": read(self.path(f"{label}.rollup.json")),
            "prom": read(self.path(f"{label}.metrics.prom")),
            "metrics": read(self.path(f"{label}.metrics.json")),
        }
        return f"{' '.join(flags)}: scalar, 1 shard, spec from JSON"

    def same_rollup(self, label: str, rollup_path: str, what: str) -> None:
        check(read(rollup_path) == self.reference[label]["rollup"],
              f"{what} rollup differs from the {label} reference")

    # -- legs ------------------------------------------------------------------

    def leg_resume(self) -> str:
        journal = ["--shards", SHARDS, "--checkpoint", self.path("journal")]
        fleet(*FLEET, *journal, "--stop-after", "1", expect=3)
        fleet(*FLEET, *journal, "--resume", "--json", self.path("resumed.json"))
        self.same_rollup("fleet", self.path("resumed.json"), "resumed")
        return f"{SHARDS} shards, --stop-after 1 exit 3, --resume exit 0"

    def leg_vector(self) -> str:
        fleet(*FLEET, "--kernel", "vector", "--json", self.path("vector.json"))
        self.same_rollup("fleet", self.path("vector.json"), "vector-kernel")
        return "--kernel vector"

    def leg_store(self) -> str:
        store = self.path("store")
        call("repro.trace", trace_main, ["store", "build", store, *FLEET, "--quiet"])
        call("repro.trace", trace_main, ["store", "ls", store])
        call("repro.trace", trace_main, ["store", "verify", store])
        for kernel in ("scalar", "vector"):
            out = self.path(f"store-{kernel}.json")
            fleet(*FLEET, "--kernel", kernel, "--trace-store", store, "--json", out)
            self.same_rollup("fleet", out, f"{kernel} kernel with --trace-store")
        return "store build/ls/verify, --trace-store on scalar and vector"

    def _shards_jobs(self, kernel: str) -> str:
        prefix = self.path(f"sj-{kernel}")
        fleet(*MIXED, "--shards", SHARDS, "--jobs", "2", "--kernel", kernel,
              "--json", f"{prefix}.rollup.json", "--metrics-out", prefix)
        self.same_rollup("mixed", f"{prefix}.rollup.json", f"{kernel} --jobs 2")
        for suffix, key in ((".prom", "prom"), (".json", "metrics")):
            check(read(prefix + suffix) == self.reference["mixed"][key],
                  f"--metrics-out {suffix} differs from the mixed reference")
        return f"--shards {SHARDS} --jobs 2 --kernel {kernel}, metrics byte-equal"

    def leg_shards_jobs_scalar(self) -> str:
        return self._shards_jobs("scalar")

    def leg_shards_jobs_vector(self) -> str:
        return self._shards_jobs("vector")

    def leg_observed(self) -> str:
        fleet(*MIXED, "--shards", SHARDS, "--kernel", "vector", "--kernel-stats",
              "--json", self.path("observed.json"),
              "--trace-out", self.path("observed.trace"),
              "--metrics-out", self.path("observed.metrics"),
              "--telemetry-out", self.path("observed.telemetry.jsonl"))
        chrome = json.loads(read(self.path("observed.trace.chrome.json")))
        problems = validate_chrome_trace(chrome)
        check(not problems, f"chrome trace invalid: {problems[:3]}")
        rows = [json.loads(line)
                for line in read(self.path("observed.trace.jsonl")).splitlines()]
        check(bool(rows), "trace.jsonl is empty")
        problems = validate_jsonl_events(rows)
        check(not problems, f"trace.jsonl invalid: {problems[:3]}")
        beats = [json.loads(line)
                 for line in read(self.path("observed.telemetry.jsonl")).splitlines()]
        problems = validate_heartbeat_records(beats)
        check(not problems, f"telemetry.jsonl invalid: {problems[:3]}")
        check(beats[0]["type"] == "start" and beats[-1]["type"] == "end",
              "telemetry stream missing start/end records")
        problem = check_prometheus(read(self.path("observed.metrics.prom")))
        check(problem is None, f"metrics.prom invalid: {problem}")
        json.loads(read(self.path("observed.metrics.json")))
        observed = json.loads(read(self.path("observed.json")))
        observed.pop("kernel_stats", None)  # wall clock, opt-in, not a result
        check(json.dumps(observed, sort_keys=True) == self.reference["mixed"]["rollup"],
              "observed run's rollup differs from the unobserved reference")
        return (f"{len(rows)} trace events, {len(beats)} heartbeats: "
                "schemas valid, rollup unchanged")

    def leg_serve(self) -> str:
        spec = spec_from_args(fleet_parser().parse_args(FLEET))
        mutated = spec.replace(seed=spec.seed + 1)
        config = ServeConfig(data_dir=self.path("server"))
        with start_background(config) as handle, \
                FleetClient(port=handle.port) as client:
            first = client.submit(spec, shards=2, wait=True)
            check(first["ok"] and not first["cached"],
                  f"first submission should compute, got {first}")
            second = client.submit(spec, shards=4, wait=True)
            check(second["ok"] and second["cached"],
                  "identical resubmission should hit the cache, got "
                  f"{ {k: second[k] for k in ('ok', 'state', 'cached')} }")
            third = client.submit(mutated, shards=2, wait=True)
            check(third["ok"] and not third["cached"],
                  "mutated spec (seed changed) must miss the cache")

            served = [canonical_rollup_json(r["rollup"]) for r in (first, second)]
            check(served[0] == self.reference["fleet"]["rollup"],
                  "served (miss) rollup differs from the fleet reference")
            check(served[1] == served[0],
                  "cache-hit rollup differs from the computed rollup")
            check(canonical_rollup_json(third["rollup"]) != served[0],
                  "mutated spec produced the base spec's rollup")

            beats = list(client.watch(spec))
            problems = validate_heartbeat_records(beats)
            check(not problems, f"streamed telemetry is malformed: {problems}")
            kinds = [b["type"] for b in beats]
            check(kinds[0] == "start" and kinds[-1] == "end"
                  and "heartbeat" in kinds, f"unexpected telemetry shape: {kinds}")

            stats = client.stats()
            expected = {"hits": 1, "misses": 2, "entries": 2}
            check(stats["cache"] == expected,
                  f"cache stats {stats['cache']}, expected {expected}")
            check(stats["submitted"] == 3,
                  f"expected 3 submissions, got {stats['submitted']}")
            with open(self.path("serve.telemetry.jsonl"), "w") as out:
                for beat in beats:
                    out.write(json.dumps(beat, sort_keys=True) + "\n")
            with open(self.path("serve.stats.json"), "w") as out:
                json.dump(stats, out, sort_keys=True, indent=2)
            client.shutdown()
        return "miss, hit at 4 shards, mutated miss; watch valid; 1 hit / 2 misses"

    def leg_cached(self) -> str:
        # Within one server a hit reuses the finished job in memory; a
        # restarted server on the same data_dir must answer from disk.
        spec = spec_from_args(fleet_parser().parse_args(FLEET))
        config = ServeConfig(data_dir=self.path("server"))
        with start_background(config) as handle, \
                FleetClient(port=handle.port) as client:
            response = client.submit(spec, shards=3, wait=True)
            check(response["ok"] and response["cached"],
                  "restarted server should answer from its on-disk cache")
            check(canonical_rollup_json(response["rollup"])
                  == self.reference["fleet"]["rollup"],
                  "on-disk cache rollup differs from the fleet reference")
            stats = client.stats()["cache"]
            check(stats == {"hits": 1, "misses": 0, "entries": 2},
                  f"restarted server cache stats {stats}")
            client.shutdown()
        return "restarted server on the serve leg's data_dir: on-disk hit"


REFERENCES = {"fleet": FLEET, "mixed": MIXED}
#: In run order: ``cached`` reuses the data directory ``serve`` filled.
LEGS = {
    "resume": Matrix.leg_resume,
    "vector": Matrix.leg_vector,
    "store": Matrix.leg_store,
    "shards-jobs-scalar": Matrix.leg_shards_jobs_scalar,
    "shards-jobs-vector": Matrix.leg_shards_jobs_vector,
    "observed": Matrix.leg_observed,
    "serve": Matrix.leg_serve,
    "cached": Matrix.leg_cached,
}


def run(name: str, step) -> bool:
    """Run one reference or leg, print its line; False when it failed."""
    try:
        detail = step()
    except LegFailure as exc:
        print(f"FAIL {name:<20} {exc}")
        return False
    except Exception:  # noqa: BLE001 - any crash fails (and names) the leg
        print(f"FAIL {name:<20} crashed:")
        traceback.print_exc(file=sys.stdout)
        return False
    print(f"ok   {name:<20} {detail}")
    return True


def run_matrix(work: str) -> bool:
    matrix = Matrix(work)
    for label, flags in REFERENCES.items():
        if not run(f"reference:{label}",
                   functools.partial(matrix.compute_reference, label, flags)):
            return False
    results = [run(name, functools.partial(leg, matrix)) for name, leg in LEGS.items()]
    return all(results)


def main() -> int:
    keep = os.environ.get("INVARIANCE_DIR")
    with tempfile.TemporaryDirectory(prefix="invariance-") as work:
        passed = run_matrix(work)
        if keep:
            os.makedirs(keep, exist_ok=True)
            for name in ARTIFACTS:
                source = os.path.join(work, name)
                if os.path.exists(source):
                    shutil.copy(source, os.path.join(keep, name.replace("/", "-")))
            print(f"kept artifacts -> {keep}")
    if not passed:
        print("invariance matrix FAILED", file=sys.stderr)
        return 1
    print(f"invariance matrix OK: {len(LEGS)} legs byte-identical to "
          f"{len(REFERENCES)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
