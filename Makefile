# Developer entry points for the DeNovoSync reproduction.

PYTHON ?= python

# Let every target work from a fresh checkout (no `pip install -e .`
# needed); with the package installed this still prefers the checkout.
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test test-fast lint typecheck formal sanitize serve chaos-service bench-micro profile figures examples clean

install:
	pip install -e ".[dev]"

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -k "not paper_shapes and not differential"

lint:
	ruff check src tests

# Static types on the typed subset (config, registry, formal models);
# the [tool.mypy] files list in pyproject.toml is the source of truth.
typecheck:
	$(PYTHON) -m mypy

# Formal verification: conformance + model exploration + the litmus
# divergence oracle + TLA+ export for every protocol with a model.
formal:
	$(PYTHON) -m repro.harness.cli formal --jobs 0

# DRF-contract sanitizer: lint the synclib/workloads sources and sweep
# every kernel x protocol for unannotated races and stale-read hazards.
# The same command as CI's sanitize-smoke job, which fails unless it
# leaves the committed results/sanitize.json unchanged.
sanitize:
	$(PYTHON) -m repro.harness.cli sanitize --cores 16 --scale 0.05 --jobs 2

# Simulation-as-a-service: persistent sweep job server, e.g.:
#   make serve PORT=8642 WORKERS=8
# then: denovosync-bench submit --port 8642 --sweep-family tatas --wait
PORT ?= 8642
WORKERS ?= 0
serve:
	$(PYTHON) -m repro.harness.cli serve --port $(PORT) --workers $(WORKERS)

# Service-level chaos: SIGKILL workers mid-sweep against a live server
# and assert it self-heals (every cell settles, cache invariant holds).
chaos-service:
	$(PYTHON) -m repro.harness.cli chaos-service --workers 2 --kills 2 \
		--cell-deadline 5.0

# Engine/dispatch microbenchmarks with the committed-baseline gate
# (exact event counts + throughput floor; see benchmarks/bench_engine_micro.py).
# The same command as CI's perf-smoke job, so a local pass means a CI pass.
bench-micro:
	$(PYTHON) benchmarks/bench_engine_micro.py --compare results/bench_baseline.json \
		--tolerance 0.25 --strict-counts

# cProfile one workload end to end, e.g.:
#   make profile WORKLOAD=tatas/counter PROTO=DeNovoSync CORES=64
WORKLOAD ?= tatas/counter
PROTO ?= DeNovoSync
CORES ?= 64
profile:
	$(PYTHON) -m repro.harness.cli profile --workload "$(WORKLOAD)" \
		--protocol $(PROTO) --cores $(CORES) --top 25

# Regenerate every committed table in results/<target>.txt: the paper's
# figures, the ablations and the extension studies, through one result
# cache.  Each target simulates its cells in one sweep, which starts its
# own worker pool.  CI's figures-fresh job runs this and fails if any
# table differs from the committed one.
figures:
	$(PYTHON) -m repro.harness.cli all --scale 0.05 --jobs 0 --out results/

# Run every example script; the first one that fails stops the loop
# and fails the target (CI runs this).
examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

# Machine-local output only: the rest of results/ (figure tables, the
# formal and sanitize reports, the perf baseline) is committed.
clean:
	rm -rf .pytest_cache results/.runcache
	find . -name __pycache__ -type d -exec rm -rf {} +
