"""Benchmark of the fleet, serve and figure-grid entry points.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_mixed --seed 0 --seconds 10 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics, with every time corrected to a reference host speed
(``perfbench/hostspeed.py``); ``--trace 1`` runs it twice with every
layer's entry points wrapped (``perfbench/tracing.py``) and once
untraced between them, checks that the two traced runs give the same
work counters, prints the per-layer metrics and the tracing overhead
(traced minus untraced ``wall_s``), and writes the spans under
``.perfbench_out/``.  Output
checks run after the timed region on every run; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` and the
exit code is 1 when any check failed.  ``--record`` stores this run's
output digest in ``perfbench/expected.json`` as the reference later runs
with the same workload, seed and seconds must match.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT = ROOT / ".perfbench_out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("requests_per_s", "1/s"),
    ("miss_latency_p50_ms", "ms"),
    ("miss_latency_p75_ms", "ms"),
    ("hit_latency_p50_ms", "ms"),
    ("hit_latency_p75_ms", "ms"),
)


def percentile(values: list, pct: int) -> float:
    """Inclusive-interpolated percentile (a lone sample is every percentile)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def host_info() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def cold_start_s() -> float:
    """Wall time of a fresh interpreter importing ``repro.api``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    # No timeout: with one, ``wait`` polls in steps of up to 50 ms, which
    # would quantize this time.
    subprocess.run([sys.executable, "-c", "import repro.api"],
                   cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_expected() -> dict:
    """Recorded output digests, keyed ``workload/seed=N/seconds=S``."""
    if EXPECTED.is_file():
        return json.loads(EXPECTED.read_text())
    return {}


def timed_run(workload, seed, sizes, scratch, recorder=None):
    """One set-up, the timed region, and teardown; returns (state, outcome, wall)."""
    state = workload.setup(seed, sizes, scratch)
    try:
        start = time.perf_counter()
        outcome = workload.run(state, recorder)
        wall = time.perf_counter() - start
    except BaseException:
        workload.teardown(state)
        raise
    return state, outcome, wall


def end_to_end(workload, seed, sizes, scratch):
    from hostspeed import HostSpeedSampler

    # Every time below is corrected to reference host speed (hostspeed.py).
    setups, raw_setups, state = [], [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        with HostSpeedSampler() as speed:
            start = time.perf_counter()
            cold = cold_start_s()
            state = workload.setup(seed, sizes, scratch)
            end = time.perf_counter()
        setups.append(speed.corrected(start, end))
        raw_setups.append(end - start)
    try:
        with HostSpeedSampler() as speed:
            start = time.perf_counter()
            outcome = workload.run(state, None)
            end = time.perf_counter()
        rss = peak_rss_mb()
        checks, digest = workload.check(state, outcome)
    finally:
        workload.teardown(state)
    wall = speed.corrected(start, end)
    latency = [(kind, speed.corrected(a, b)) for kind, a, b in outcome.requests]
    # Fleet and serve hits simulate nothing, so ``runs_per_s`` is over
    # the time of the requests that do.
    simulating_s = sum(lat for kind, lat in latency
                       if kind == "miss" or workload.hits_simulate)
    misses = [lat * 1e3 for kind, lat in latency if kind == "miss"]
    hits = [lat * 1e3 for kind, lat in latency if kind == "hit"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "runs_per_s": outcome.runs / simulating_s,
        "peak_rss_mb": rss,
        "requests_per_s": len(outcome.requests) / wall,
        "miss_latency_p50_ms": percentile(misses, 50),
        "miss_latency_p75_ms": percentile(misses, 75),
        "hit_latency_p50_ms": percentile(hits, 50),
        "hit_latency_p75_ms": percentile(hits, 75),
    }
    units = dict(END_TO_END)
    extra = {
        "cold_start_s": cold,
        "setups_s": setups,
        "raw_setups_s": raw_setups,
        "raw_wall_s": end - start,
        "host_slowdown": speed.slowdown(),
        "host_probes": len(speed.cpus),
        "misses": len(misses),
        "hits": len(hits),
        "hit_share_of_wall": sum(hits) / 1e3 / wall,
        "device_runs": outcome.runs,
    }
    return {name: (value, units[name]) for name, value in metrics.items()}, \
        outcome, checks, digest, extra


def per_layer(workload, seed, sizes, scratch, run_id):
    from tracing import EXACT, PER_LAYER, SpanRecorder, install, layer_metrics

    def traced(index):
        recorder = SpanRecorder(workload.name, f"{run_id}-{index}")
        install(recorder)
        try:
            state, outcome, wall = timed_run(workload, seed, sizes, scratch, recorder)
        finally:
            recorder.uninstall()
        try:
            checks, digest = workload.check(state, outcome)
        finally:
            workload.teardown(state)
        values = layer_metrics(recorder, outcome.kernel_stats, outcome.serve_cache)
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{recorder.run_id}")
        return values, outcome, wall, checks, digest

    # Two traced runs with an untraced one between them.  The work
    # counters must repeat exactly across the two traced runs.  The
    # overhead compares the faster traced run with the untraced one, which
    # runs after the first, so first-run costs (lazy imports, cold caches)
    # are not counted as tracing overhead.
    first, _, first_wall, first_checks, first_digest = traced(1)
    state, _, untraced_wall = timed_run(workload, seed, sizes, scratch)
    workload.teardown(state)
    values, outcome, traced_wall, checks, digest = traced(2)

    differing = sorted(name for name in EXACT if first[name] != values[name])
    checks = [(f"traced run 1: {name}", ok) for name, ok in first_checks] + [
        (f"traced run 2: {name}", ok) for name, ok in checks
    ] + [
        ("traced runs give one output digest", first_digest == digest),
        (f"work counters repeat exactly across traced runs (differing: {differing})",
         not differing),
    ]
    values["tracing.overhead_s"] = min(first_wall, traced_wall) - untraced_wall
    units = {name: unit for name, unit, _ in PER_LAYER}
    extra = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": [first_wall, traced_wall],
        "spans": [str(OUT / f"spans-{run_id}-{i}.npy") for i in (1, 2)],
    }
    return {name: (values[name], units[name]) for name in units}, \
        outcome, checks, digest, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digest as the reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    sizes = workload.sizes(args.seconds, traced=bool(args.trace))
    key = f"{args.workload}/seed={args.seed}/seconds={args.seconds}"
    run_id = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
              f"-{os.getpid()}-{int(time.time())}")

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix="tmp-")
    try:
        if args.trace:
            measured = per_layer(workload, args.seed, sizes, scratch, run_id)
        else:
            measured = end_to_end(workload, args.seed, sizes, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics, outcome, checks, digest, extra = measured
    expected = load_expected()
    if key in expected:
        checks.append(("output digest == recorded digest", digest == expected[key]))
    if args.record:
        expected[key] = digest
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")

    failed_checks = [name for name, ok in checks if not ok]
    attempted = outcome.runs + len(outcome.requests) + len(checks)
    failed = outcome.failures + len(failed_checks)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_id": run_id,
        "host": host_info(),
        "sizes": sizes,
        "digest": digest,
        "checks": [{"name": name, "ok": bool(ok)} for name, ok in checks],
        "failed_fraction": failed / attempted,
        **extra,
    }
    (OUT / f"result-{run_id}.json").write_text(
        json.dumps({**record, "metrics": {n: v for n, (v, _) in metrics.items()}},
                   indent=1, sort_keys=True)
    )
    for name, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(f"{'failed_fraction':34s} {failed / attempted:14.6f} ({failed}/{attempted})")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
