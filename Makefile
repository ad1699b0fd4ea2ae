# Convenience targets for the Quetzal reproduction.

.PHONY: install test lint bench profile-figures bench-record bench-figures invariance perfbench-check figures figures-paper-scale examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# Style/bug lint (same invocation as CI; needs `pip install ruff`).
lint:
	ruff check src tests

# Engine perf-regression gate: times the paper-scale cases (including the
# quetzal decision-path cases) and fails if any is slower than the
# committed BENCH_engine.json baseline by more than BENCH_TOLERANCE
# (default 2x; generous so only real regressions trip).  Extra harness
# flags ride in BENCH_ARGS, e.g. `make bench BENCH_ARGS="--repeats 5"`.
bench:
	PYTHONPATH=src python benchmarks/bench_engine.py --check $(BENCH_ARGS)

# Per-figure cProfile dumps (one .pstats per figure; CI uploads these).
profile-figures:
	PYTHONPATH=src python -m repro.experiments --events 30 --seeds 1 \
		--profile --profile-dir profiles

# Append a new trajectory entry to BENCH_engine.json (run after perf work).
bench-record:
	PYTHONPATH=src python benchmarks/bench_engine.py --record --repeats 5 --label "$(LABEL)"

# Full pytest-benchmark suite (figure benches + engine micro-benches).
bench-figures:
	pytest benchmarks/ --benchmark-only

# Invariance-matrix gate: computes each spec's reference rollup once
# through the fleet CLI, then fails unless every leg — kill/resume,
# --kernel vector, --trace-store on both kernels, --shards/--jobs on both
# kernels (metrics bytes too), the fully observed run (artifacts
# schema-validated) and the served miss/hit — is byte-identical to it.
# One line per leg.  Set INVARIANCE_DIR to keep the artifacts (CI
# uploads them).
invariance:
	PYTHONPATH=src python benchmarks/invariance_matrix.py

# Benchmark output checks: one seed-0 run of every perfbench workload,
# failing if any run's output misses the digest recorded for it in
# perfbench/expected.json.  Timings are printed, not gated.
PERFBENCH_WORKLOADS = fleet_mixed fleet_vector serve_mixed figures

perfbench-check:
	for w in $(PERFBENCH_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --seed 0 --seconds 10 --trace 0 || exit 1; \
	done

# Regenerate every table and figure at the default (fast) scale.
figures:
	python -m repro.experiments

# Paper-scale regeneration (1000 events; takes ~20 minutes).
figures-paper-scale:
	python -m repro.experiments --events 1000 --seeds 3 \
		--json results_paper_scale.json | tee results_paper_scale.txt

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
