# Convenience targets for the VerifAI reproduction.

.PHONY: install check test test-faults test-obs test-shard serve-test serve-demo trace-demo loop-demo bench bench-quick bench-check bench-batch bench-serve bench-shard bench-loop bench-paper experiments examples lint lint-json sanitize coverage perfbench perfbench-test

install:
	pip install -e . --no-build-isolation

# the default CI gate: static analysis first, then the test suite
# (which includes the observability smoke below), the sharding/churn
# differential suite with its slow soak, the timing-free differential
# proofs behind the benchmark claims, the benchmark regression gate's
# self-consistency check, the concurrency suites under the lockset
# race sanitizer, and the repository benchmark harness's unit tests
check: lint test-obs serve-test test test-shard bench-quick bench-check sanitize coverage perfbench-test

# tests/ includes tests/test_batch_faults.py, the fault-isolation suite
# for verification campaigns (poisoned objects, retries, fail_fast, and
# the no-dangling-provenance invariant)
test:
	PYTHONPATH=src pytest tests/ -q

# just the fault-isolation suite, for quick iteration on the boundary
test-faults:
	PYTHONPATH=src pytest tests/test_batch_faults.py -q

# observability smoke: clocks, metrics scopes, and byte-stable traces
test-obs:
	PYTHONPATH=src pytest tests/test_obs_clock_metrics.py tests/test_obs_trace.py -q

# the sharding equivalence + churn differential suite, INCLUDING the
# slow soak that tier-1 skips ("slow or not slow" overrides the
# default -m "not slow" addopts)
test-shard:
	PYTHONPATH=src pytest tests/test_index_sharding.py tests/test_index_churn.py \
		-m "slow or not slow" -q

# the verification service: endpoints, admission control under
# contention, and the deterministic load harness
serve-test:
	PYTHONPATH=src pytest tests/test_serve.py tests/test_serve_admission.py -q

# serve a small lake, replay a seeded load mix against ourselves,
# print the p50/p95/p99 + shed report, and exit
serve-demo:
	PYTHONPATH=src python -m repro.cli build-lake --tables 40 \
		--out /tmp/repro-serve-lake.json
	PYTHONPATH=src python -m repro.cli serve \
		--lake /tmp/repro-serve-lake.json --port 0 --demo 32

# end-to-end trace demo: build a small lake, run a traced campaign,
# render the span tree (artifacts land in /tmp)
trace-demo:
	PYTHONPATH=src python -m repro.cli build-lake --tables 40 \
		--out /tmp/repro-trace-lake.json
	PYTHONPATH=src python -m repro.cli verify-batch \
		--lake /tmp/repro-trace-lake.json --sample 8 --workers 4 \
		--trace /tmp/repro-trace.json
	PYTHONPATH=src python -m repro.cli trace /tmp/repro-trace.json

# the stdlib line-coverage gate (no coverage.py in the image): rerun
# the suites that exercise the orchestration loop and the repairer in a
# fresh interpreter under the settrace tracer, failing (exit 4) if any
# measured file dips below the committed 90% floor
coverage:
	PYTHONPATH=src python -m repro.cli coverage --floor 0.9 -- -q \
		tests/test_loop.py tests/test_repair.py tests/test_llm_model.py

lint:
	PYTHONPATH=src python -m repro.cli lint --baseline lint_baseline.json src/repro

# orchestrate-until-pass demo: run the default convergence mix and
# print per-round verdict deltas plus the mix summary (write audit
# trails with --trail DIR)
loop-demo:
	PYTHONPATH=src python -m repro.cli orchestrate --max-iters 4

lint-json:
	PYTHONPATH=src python -m repro.cli lint --json --baseline lint_baseline.json src/repro

# the concurrency suites under the Eraser-style lockset race sanitizer
# (see docs/static_analysis.md): batch faults, index churn, and the
# verification service; exit status 3 = races found
sanitize:
	PYTHONPATH=src python -m repro.cli sanitize -- -q \
		tests/test_batch_faults.py tests/test_index_churn.py \
		tests/test_serve.py tests/test_serve_admission.py

bench:
	pytest benchmarks/ --benchmark-only

# the timing-free half of the benchmark story: the bit-identity proofs
# behind every speed claim (query-matrix kernel, memmap round-trip)
# — no timing assertions, pure score equality, fast enough to gate
# every `make check`
bench-quick:
	PYTHONPATH=src pytest tests/test_index_matrix.py \
		tests/test_index_memmap.py -q

# the regression gate's self-consistency check: every committed
# BENCH_*.json snapshot must diff clean against itself (exercises the
# loader + gate end to end; compare a fresh run against the committed
# snapshots with `repro bench diff . /path/to/new` after re-benching)
bench-check:
	PYTHONPATH=src python -m repro.cli bench diff . .

bench-batch:
	pytest benchmarks/test_bench_batch.py --benchmark-only \
		--benchmark-json=BENCH_batch.json

bench-serve:
	pytest benchmarks/test_bench_serve.py --benchmark-only \
		--benchmark-json=BENCH_serve.json

bench-shard:
	pytest benchmarks/test_bench_shard.py --benchmark-only \
		--benchmark-json=BENCH_shard.json

# the convergence campaign as a tracked benchmark: wall time of the
# default scenario mix, with the accuracy lift and iteration stats
# recorded in extra_info and gated by `repro bench diff`
bench-loop:
	PYTHONPATH=src pytest benchmarks/test_bench_loop.py --benchmark-only \
		--benchmark-json=BENCH_loop.json

bench-paper:
	REPRO_SCALE=paper pytest benchmarks/ --benchmark-only

# the repository benchmark (BENCHMARK.json), once per workload with its
# output checks (verdict digests, accuracy floor, served == in-process,
# mutated == rebuilt); stops at the first non-zero exit.  Takes about
# two minutes, so it is not part of `make check`
perfbench:
	python3 perfbench/run.py --workload campaign --seed 501 --seconds 15 --trace 0
	python3 perfbench/run.py --workload serve --seed 501 --seconds 15 --trace 0
	python3 perfbench/run.py --workload churn --seed 77 --seconds 15 --trace 0

# unit tests of the repository benchmark's harness (perfbench/)
perfbench-test:
	python3 -m pytest perfbench/test_harness.py -q

experiments:
	python examples/run_paper_experiments.py paper

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done
