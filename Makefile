PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test lint bench bench-wire bench-audit bench-federation \
	bench-workers bench-query bench-transport bench-verify \
	bench-analysis bench-all test-concurrency perfbench

# Tier-1 verification: the whole suite, fail-fast.  The bench smoke
# list (decision-plane + wire-plane scale benches, with their ratio
# asserts) is part of the suite, so verify exercises both.
verify:
	$(PYTHON) -m pytest -x -q

# Unit tests only (fast inner loop; skips the benchmark figures).
test:
	$(PYTHON) -m pytest tests/ -x -q

# Lint floor: bytecode-compile everything, then ruff's deterministic
# error set (see ruff.toml).  ruff is optional locally; CI installs it.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; compileall-only lint"; \
	fi

# Quick bench: the decision-plane microbenchmarks, with the report rows
# printed and BENCH_decision_plane.json regenerated.
bench:
	$(PYTHON) -m pytest benchmarks/test_scale_decision_cache.py -q -s

# Wire-plane bench: mask vs tag-set envelopes on the cross-machine
# path; regenerates BENCH_wire_masks.json.
bench-wire:
	$(PYTHON) -m pytest benchmarks/test_scale_wire.py -q -s

# Audit-plane bench: staged spine emission vs synchronous hash-chain
# appends across 1/4/16 sources; regenerates BENCH_audit_plane.json.
bench-audit:
	$(PYTHON) -m pytest benchmarks/test_scale_audit.py -q -s

# Federation-plane bench: gossip convergence rounds/bytes vs pairwise
# handshakes, table compression, post-convergence throughput, and the
# cross-domain pinboard scenario; regenerates BENCH_federation.json.
bench-federation:
	$(PYTHON) -m pytest benchmarks/test_scale_federation.py -q -s

# Worker-plane bench: enforcing-publish throughput and decision-cache
# hit rate at 1/4/16 real worker threads on shared vs. disjoint tag
# working sets; regenerates BENCH_worker_scaling.json.
bench-workers:
	$(PYTHON) -m pytest benchmarks/test_scale_workers.py -q -s

# Query-plane bench: tiered (spill) append throughput vs all-in-memory,
# index-probe selectivity, cold verification and cross-tier identity at
# 10^6 records; regenerates BENCH_audit_query.json.  Scale down with
# QUERY_BENCH_RECORDS=20000 for a smoke run.
bench-query:
	$(PYTHON) -m pytest benchmarks/test_scale_query.py -q -s -p no:randomly

# Transport-plane bench: coalesced vs per-datagram delivery A/B — e2e
# enforcing ring publish at 2/8/16 machines and mesh convergence under
# streaming load at 16/32 substrates; regenerates BENCH_transport.json.
# Scale down with TRANSPORT_BENCH_MSGS / TRANSPORT_BENCH_LOAD and
# demote the wall-clock gates with TRANSPORT_BENCH_STRICT=0 for smoke.
bench-transport:
	$(PYTHON) -m pytest benchmarks/test_scale_transport.py -q -s

# Verification-plane bench: parallel deep verify vs serial, and
# steady-state incremental (watermark-cursor) verify vs full recompute
# at 10^6 records; regenerates BENCH_audit_verify.json.  Scale down
# with VERIFY_BENCH_RECORDS=20000 and demote the wall-clock gates with
# VERIFY_BENCH_STRICT=0 for smoke (the parallel gate also self-demotes
# below 4 CPUs).
bench-verify:
	$(PYTHON) -m pytest benchmarks/test_scale_verify.py -q -s -p no:randomly

# Analysis-plane bench: compile a 16-node federation into the flow
# graph, sweep all-pairs reachability, catch the seeded forbidden
# declassifier chain at the pre-deploy gate, and measure the decision-
# cache cold-start hit-rate delta from pre-warming; regenerates
# BENCH_analysis.json.  Scale down with ANALYSIS_BENCH_NODES=8 for a
# smoke run (the functional gates hold at every scale).
bench-analysis:
	$(PYTHON) -m pytest benchmarks/test_scale_analysis.py -q -s -p no:randomly

# The end-to-end benchmark (perfbench/, declared in BENCHMARK.json):
# every workload at seed 1, tracing off.  Each run prints its report;
# its last line is the {correct, attempted, failed, metrics} JSON.
perfbench:
	for workload in ward_stream clinic_bus vitals_history; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 || exit 1; \
	done

# The real-thread stress tests of the contention-proofed planes
# (decision cache snapshot/epoch protocol, audit-spine ring drains).
test-concurrency:
	$(PYTHON) -m pytest -m concurrency -q

# The full figure/scale benchmark suite.
bench-all:
	$(PYTHON) -m pytest benchmarks/ -q -s
