# Convenience targets for the CROPHE reproduction.

.PHONY: install test bench-quick bench-serve bench-serve-check bench-pytest bench-full trace experiments experiments-quick experiments-cached dse-stat serve serve-chaos examples lint verify-static

install:
	pip install -e . || python setup.py develop

# ROADMAP's tier-1 command.
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q

# Quick-suite counter baseline: CI's quick-sweep cold pass, run in one
# process (--no-isolation) so every cell's counters are deterministic,
# on fresh cache and trace directories (.dse-cache/ and trace_cold/ are
# deleted first).  Its per-cell metrics documents become the committed
# BENCH_quick/ that CI gates the same pass against with
# `python -m repro.obs diff BENCH_quick/<cell>.metrics.json
# trace_cold/<cell>.metrics.json` (>10% drift of a deterministic counter
# fails; wall-clock metrics are reported, never gated).
bench-quick:
	rm -rf .dse-cache trace_cold
	PYTHONPATH=src python -m repro.experiments.runner all --quick \
		--no-isolation --cache-dir .dse-cache --trace-dir trace_cold \
		--artifact artifact_cold.json --metrics-json metrics_cold.json
	rm -rf BENCH_quick
	mkdir BENCH_quick
	cp trace_cold/*.metrics.json BENCH_quick/

# Serving-telemetry baseline: the quick aggressive-chaos scenario's
# metrics snapshot (deterministic counters only — request/outcome/
# retry/hedge/eviction counts; never wall-clock).  The committed
# BENCH_serve.json is the baseline `bench-serve-check` gates against.
bench-serve:
	PYTHONPATH=src python -m repro.serve run --quick --faults aggressive \
		--seed 3 --metrics-json BENCH_serve.json

# Re-run the serving scenario to a scratch snapshot and gate against
# the committed baseline (fails on >10% drift of any gated counter —
# with a fixed seed any drift is a behavior change, not noise).
bench-serve-check:
	PYTHONPATH=src python -m repro.serve run --quick --faults aggressive \
		--seed 3 --metrics-json bench_serve_current.json
	PYTHONPATH=src python -m repro.obs diff BENCH_serve.json bench_serve_current.json

# Export a quick ResNet-20 Perfetto trace (open at ui.perfetto.dev).
trace:
	PYTHONPATH=src python -m repro.obs trace --workload resnet20 --out-dir obs_trace

bench-pytest:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL_BENCH=1 PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

# The tee'd transcript (experiment_results.txt) is a local artifact —
# gitignored, never committed; the reproducible record is the artifact
# JSON plus the committed EXPERIMENTS.md tables.
experiments:
	PYTHONPATH=src python -m repro.experiments.runner all 2>&1 | tee experiment_results.txt

experiments-quick:
	PYTHONPATH=src python -m repro.experiments.runner all --quick

# Quick suite over the persistent repro.dse cache: the first run pays
# for the DP searches, re-runs replay cached schedules/results.
experiments-cached:
	PYTHONPATH=src python -m repro.experiments.runner all --quick --jobs 2 --cache-dir .dse-cache

dse-stat:
	PYTHONPATH=src python -m repro.dse stat --cache-dir .dse-cache

# Fleet-serving simulator: the quick chaos scenario (200 requests on
# 4 accelerators under the seeded "quick" fault plan — one crash, two
# stragglers, one transient).  Exit 0 means zero lost requests.
serve:
	PYTHONPATH=src python -m repro.serve run --quick --faults quick --seed 7 \
		--summary-json serve_summary.json

# Determinism-under-chaos check: the aggressive fault plan, run twice
# in separate processes with the same seed; the two summaries and the
# two flight-recorder postmortems must be byte-identical (CI's
# chaos-smoke job runs the same check).
serve-chaos:
	PYTHONPATH=src python -m repro.serve run --quick --faults aggressive \
		--seed 3 --summary-json serve_chaos_a.json \
		--postmortem-out serve_chaos_postmortem_a.json
	PYTHONPATH=src python -m repro.serve run --quick --faults aggressive \
		--seed 3 --summary-json serve_chaos_b.json \
		--postmortem-out serve_chaos_postmortem_b.json
	cmp serve_chaos_a.json serve_chaos_b.json
	cmp serve_chaos_postmortem_a.json serve_chaos_postmortem_b.json
	@echo "chaos determinism: summaries and postmortems byte-identical"

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping ruff (pip install ruff)"; \
	fi
	PYTHONPATH=src python -m repro.analysis.lint src
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy not installed; skipping mypy (pip install mypy)"; \
	fi

# Static verification of the shipped workload graphs and schedules
# (repro.analysis): graph invariants, CKKS semantics, whole-program
# dataflow, schedule legality; then the repo lint ratchet.
verify-static:
	PYTHONPATH=src python -m repro.analysis
	PYTHONPATH=src python -m repro.analysis.lint src

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/private_inference.py
	PYTHONPATH=src python examples/encrypted_logreg.py
	PYTHONPATH=src python examples/schedule_explorer.py
	PYTHONPATH=src python examples/secure_cloud_pipeline.py
