"""The four benchmark workloads, driven through ``repro.api``.

Each workload is a closed loop of requests from one client at a public
entry point.  A *miss* is a request whose answer has to be simulated; a
*hit* repeats a request already answered in this run:

* ``fleet_mixed`` / ``fleet_vector`` -- a cold ``run_fleet`` of a new
  spec into a fresh checkpoint journal (a miss), then re-runs of specs
  already run with ``resume=True`` (hits: every shard is restored from
  the journal, none is recomputed);
* ``serve_mixed`` -- distinct specs submitted once (misses) and seeded
  resubmissions of specs already served (hits, answered by the result
  cache);
* ``figures`` -- every figure of the grid once (misses), then every
  figure again (hits: the experiments layer keeps no results, so a repeat
  costs a full recompute).  The figure inputs are those of
  ``python -m repro.experiments --seeds 1``; the workload seed orders the
  requests of each pass.

``setup`` runs before the timed region, ``run`` is the timed region, and
``check`` verifies the outputs afterwards; sizes scale with the run's
``--seconds`` so a run measures about that long on a 2-core Xeon host
(the figure grid is fixed at its default scale).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field

from repro.api import (
    FleetClient,
    FleetRecorder,
    FleetSpec,
    ServeConfig,
    SimulationEngine,
    TraceStore,
    run_fleet,
)
from repro.fleet.service import run_shard
from repro.serve.cache import canonical_rollup_json
from repro.serve.server import start_background

#: The default fleet mix (QZ, NA, AD, TH50) and the vector-covered mix.
MIXED_POLICIES = FleetSpec(devices=1).policies
BASELINE_POLICIES = ("NA", "AD", "TH50", "CN", "PZO", "PZI")


@dataclass
class Outcome:
    """What the timed region produced."""

    requests: list = field(default_factory=list)   # (kind, start, end)
    runs: int = 0                                   # device simulations done
    failures: int = 0                               # device/run/reply failures
    payload: dict = field(default_factory=dict)     # workload-specific output
    kernel_stats: object = None
    serve_cache: object = None


def _request(recorder, outcome: Outcome, kind: str, call):
    """Time one request; the recorder (traced run) parents its spans."""
    if recorder is not None:
        recorder.begin_request(len(outcome.requests), kind)
    start = time.perf_counter()
    try:
        result = call()
    finally:
        end = time.perf_counter()
        if recorder is not None:
            recorder.end_request()
    outcome.requests.append((kind, start, end))
    return result


def _derive(seed: int, *labels) -> int:
    """A spec seed derived from the workload seed and a label."""
    label = "/".join(["perfbench", *map(str, labels), str(seed)])
    return random.Random(label).randrange(1 << 30)


def _digest(chunks) -> str:
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk.encode())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# fleet_mixed / fleet_vector
# ---------------------------------------------------------------------------


class FleetWorkload:
    """Rounds of one cold ``run_fleet`` then journal-resumed repeats.

    Each round runs a new spec cold, then repeats specs already run,
    drawn by seeded RNG, so hits are spread over the whole timed region
    instead of one burst at its end.  The repeats only give the hit
    percentiles their samples: they simulate nothing, so ``runs_per_s``
    counts the time of the cold runs alone.
    """

    hits_simulate = False

    def __init__(self, name, policies, kernel, shards, rounds, devices_per_s,
                 hits_per_round, store):
        self.name = name
        self.policies = policies
        self.kernel = kernel
        self.shards = shards
        self.rounds = rounds
        self.devices_per_s = devices_per_s
        self.hits_per_round = hits_per_round
        self.store = store

    def sizes(self, seconds: int, traced: bool) -> dict:
        return {
            "rounds": self.rounds,
            "devices_per_round": self.devices_per_s * seconds // self.rounds,
            "hits_per_round": self.hits_per_round,
            "n_events": 50,
            "shards": self.shards,
            "kernel": self.kernel,
            "policies": list(self.policies),
            "trace_store": self.store,
        }

    def setup(self, seed: int, sizes: dict, scratch: str) -> dict:
        specs = [
            FleetSpec(
                devices=sizes["devices_per_round"], seed=_derive(seed, self.name, k),
                name=f"perfbench-{self.name}", n_events=sizes["n_events"],
                policies=self.policies,
            )
            for k in range(sizes["rounds"])
        ]
        workdir = tempfile.mkdtemp(dir=scratch)
        store = None
        if self.store:
            store = TraceStore.create(os.path.join(workdir, "store"))
            for spec in specs:
                store.build_for_spec(spec, jobs=1)
        journals = [os.path.join(workdir, f"journal-{k}") for k in range(len(specs))]
        return {"specs": specs, "journals": journals, "store": store,
                "rng": random.Random(_derive(seed, self.name, "hits")),
                "seed": seed, "sizes": sizes}

    def _run_fleet(self, state, k, **extra):
        return run_fleet(
            state["specs"][k], shards=self.shards, jobs=1, kernel=self.kernel,
            checkpoint=state["journals"][k], trace_store=state["store"], **extra,
        )

    def run(self, state: dict, recorder) -> Outcome:
        outcome = Outcome()
        fleet_recorder = FleetRecorder() if recorder is not None else None
        colds = []
        # Keep a summary of each repeat, not its rollup: thousands of
        # retained rollups would dominate the process's peak RSS.
        repeats = []
        for k in range(len(state["specs"])):
            colds.append(_request(
                recorder, outcome, "miss",
                lambda: self._run_fleet(state, k, recorder=fleet_recorder),
            ))
            for _ in range(state["sizes"]["hits_per_round"]):
                j = state["rng"].randrange(k + 1)
                repeat = _request(recorder, outcome, "hit",
                                  lambda: self._run_fleet(state, j, resume=True))
                repeats.append((repeat.computed_shards,
                                repeat.resumed_shards == colds[j].shards,
                                repeat.rollup.failure_count,
                                repeat.rollup == colds[j].rollup))
        outcome.runs = sum(cold.rollup.devices for cold in colds)
        outcome.failures = sum(cold.rollup.failure_count for cold in colds) + sum(
            r[2] for r in repeats
        )
        outcome.payload = {"colds": colds, "repeats": repeats}
        if fleet_recorder is not None:
            outcome.kernel_stats = fleet_recorder.kernel_stats_total()
        return outcome

    def check(self, state: dict, outcome: Outcome) -> tuple[list, str]:
        colds = outcome.payload["colds"]
        checks = [
            ("every cold run complete, every shard computed",
             all(c.complete and c.computed_shards == c.shards for c in colds)),
            ("every cold rollup failure_count == 0",
             all(c.rollup.failure_count == 0 for c in colds)),
            ("every resumed repeat recomputes 0 shards",
             all(computed == 0 and all_resumed
                 for computed, all_resumed, _, _ in outcome.payload["repeats"])),
            ("resumed rollup == cold rollup",
             all(equal for _, _, _, equal in outcome.payload["repeats"])),
        ]
        # Vector == scalar on a sample of about 8 devices (one small shard).
        spec = state["specs"][0]
        sample_shards = max(1, spec.devices // 8)
        shard = random.Random(state["seed"]).randrange(sample_shards)
        vector = run_shard(spec, sample_shards, shard, kernel="vector",
                           trace_store=state["store"])
        scalar = run_shard(spec, sample_shards, shard, kernel="scalar")
        checks.append((
            f"vector == scalar rollup on device sample (shard {shard}/{sample_shards})",
            canonical_rollup_json(vector.to_dict())
            == canonical_rollup_json(scalar.to_dict()),
        ))
        return checks, _digest(canonical_rollup_json(c.rollup.to_dict()) for c in colds)

    def teardown(self, state: dict) -> None:
        pass


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


class ServeWorkload:
    """One client, closed loop: each new spec once, then seeded repeats."""

    name = "serve_mixed"
    hits_simulate = False

    def sizes(self, seconds: int, traced: bool) -> dict:
        return {"misses": 4 * seconds, "hits_per_miss": 50, "devices": 8,
                "n_events": 20, "policies": list(MIXED_POLICIES),
                "direct_checks": 3}

    def setup(self, seed: int, sizes: dict, scratch: str) -> dict:
        rng = random.Random(_derive(seed, self.name))
        spec_seeds = rng.sample(range(1 << 30), sizes["misses"])
        specs = [
            FleetSpec(devices=sizes["devices"], seed=spec_seed,
                      name="perfbench-serve", n_events=sizes["n_events"])
            for spec_seed in spec_seeds
        ]
        handle = start_background(
            ServeConfig(data_dir=tempfile.mkdtemp(dir=scratch))
        )
        client = FleetClient(handle.host, handle.port)
        client.ping()
        return {"specs": specs, "rng": rng, "handle": handle, "client": client,
                "seed": seed, "sizes": sizes}

    def run(self, state: dict, recorder) -> Outcome:
        outcome = Outcome()
        client, rng, sizes = state["client"], state["rng"], state["sizes"]
        served: dict[int, dict] = {}   # spec index -> rollup of its miss
        replies = []  # (spec index, kind, ok, cached, failure_count, same rollup)

        def submit(index, kind):
            reply = _request(recorder, outcome, kind,
                             lambda: client.submit(state["specs"][index], wait=True))
            rollup = reply.get("rollup")
            if kind == "miss" and rollup is not None:
                served[index] = rollup
            failures = rollup["failure_count"] if rollup is not None else 1
            replies.append((index, kind, bool(reply.get("ok")), reply.get("cached"),
                            failures, rollup is not None and rollup == served.get(index)))
            outcome.failures += (not reply.get("ok")) + failures

        for index in range(len(state["specs"])):
            submit(index, "miss")
            for _ in range(sizes["hits_per_miss"]):
                submit(rng.randrange(index + 1), "hit")
        outcome.runs = sizes["misses"] * sizes["devices"]
        outcome.payload = {"replies": replies, "served": served}
        outcome.serve_cache = state["handle"].server.cache
        return outcome

    def check(self, state: dict, outcome: Outcome) -> tuple[list, str]:
        replies = outcome.payload["replies"]
        served = {index: canonical_rollup_json(rollup)
                  for index, rollup in outcome.payload["served"].items()}
        misses = [r for r in replies if r[1] == "miss"]
        hits = [r for r in replies if r[1] == "hit"]
        checks = [
            ("every reply ok", all(r[2] for r in replies)),
            ("every miss computed (cached: false)",
             all(r[3] is False for r in misses)),
            ("every hit answered from the cache (cached: true)",
             all(r[3] is True for r in hits)),
            ("cached rollup == served rollup", all(r[5] for r in hits)),
            ("every served rollup failure_count == 0",
             all(r[4] == 0 for r in replies)),
        ]
        cache = state["handle"].server.cache
        checks.append((
            f"cache hits/misses == designed {len(hits)}/{len(misses)}",
            (cache.hits, cache.misses) == (len(hits), len(misses)),
        ))
        sample = random.Random(state["seed"]).sample(
            range(len(state["specs"])), state["sizes"]["direct_checks"]
        )
        for index in sample:
            direct = run_fleet(state["specs"][index], jobs=1)
            checks.append((
                f"direct run_fleet bytes == served bytes (spec {index})",
                canonical_rollup_json(direct.rollup.to_dict()) == served.get(index),
            ))
        return checks, _digest(served.get(i, "") for i in range(len(state["specs"])))

    def teardown(self, state: dict) -> None:
        try:
            state["client"].close()
        finally:
            state["handle"].stop()


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


class FiguresWorkload:
    """The figure grid of ``python -m repro.experiments --seeds 1``."""

    name = "figures"
    hits_simulate = True

    def sizes(self, seconds: int, traced: bool) -> dict:
        from repro.experiments.figures import DEFAULT_EVENTS

        # The traced invocation times the workload three times; one pass
        # of the grid each keeps it within the benchmark's time limit.
        return {"events": DEFAULT_EVENTS, "figure_seeds": [0],
                "repeats": 0 if traced else 1}

    def setup(self, seed: int, sizes: dict, scratch: str) -> dict:
        from repro.experiments.__main__ import RUNNERS

        return {"runners": dict(RUNNERS), "rng": random.Random(_derive(seed, self.name)),
                "sizes": sizes}

    def run(self, state: dict, recorder) -> Outcome:
        outcome = Outcome()
        events, seeds = state["sizes"]["events"], tuple(state["sizes"]["figure_seeds"])
        rendered: dict[str, list] = {}
        # Device simulations are counted with a bare counter (no clock
        # reads), so the untraced run stays uninstrumented in effect.
        counter = [0]
        original = SimulationEngine.run

        def counted(engine):
            counter[0] += 1
            return original(engine)

        SimulationEngine.run = counted
        try:
            for kind in ["miss"] + ["hit"] * state["sizes"]["repeats"]:
                names = sorted(state["runners"])
                state["rng"].shuffle(names)
                for name in names:
                    def request(runner=state["runners"][name]):
                        results = runner(events, seeds, 1)
                        return [(r.render(), r.to_dict()) for r in results]

                    rendered.setdefault(name, []).append(
                        _request(recorder, outcome, kind, request)
                    )
        finally:
            SimulationEngine.run = original
        outcome.runs = counter[0]
        outcome.failures = sum(
            note.startswith("RUN FAILED")
            for passes in rendered.values() for results in passes
            for _, data in results for note in data["notes"]
        )
        outcome.payload = {"rendered": rendered}
        return outcome

    def check(self, state: dict, outcome: Outcome) -> tuple[list, str]:
        rendered = outcome.payload["rendered"]
        figure_bytes = {
            name: [json.dumps([d for _, d in results], sort_keys=True)
                   for results in passes]
            for name, passes in rendered.items()
        }
        checks = [
            ("no RUN FAILED notes on any figure", outcome.failures == 0),
            ("repeated figure bytes == first figure bytes",
             all(len(set(passes)) == 1 for passes in figure_bytes.values())),
            ("every figure rendered", all(
                text for passes in rendered.values() for results in passes
                for text, _ in results
            )),
        ]
        return checks, _digest(figure_bytes[name][0] for name in sorted(figure_bytes))

    def teardown(self, state: dict) -> None:
        pass


WORKLOADS = {
    "fleet_mixed": FleetWorkload(
        "fleet_mixed", MIXED_POLICIES, kernel="auto", shards=8, rounds=6,
        devices_per_s=36, hits_per_round=7, store=False,
    ),
    # One round, so its hits come in one burst after the cold run.  On a
    # 2-core Xeon host the hit p50 of 42 hits spread 0.36 (quartile
    # distance / median) over ten seeds; that of 300 hits ranged 0.02 of
    # its median over three.
    "fleet_vector": FleetWorkload(
        "fleet_vector", BASELINE_POLICIES, kernel="vector", shards=1, rounds=1,
        devices_per_s=112, hits_per_round=300, store=True,
    ),
    "serve_mixed": ServeWorkload(),
    "figures": FiguresWorkload(),
}
