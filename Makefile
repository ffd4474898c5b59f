# Test and benchmark entry points.
#
# Tiers:
#   test-fast      - quick split: skips @slow benchmarks; @xslow sweeps are
#                    skipped by default anyway.
#   test           - the tier-1 invocation from ROADMAP.md (includes @slow,
#                    skips @xslow); ~60 s.  Runs in the CI test job.
#   test-all       - everything: the scaled-up @xslow randomized
#                    cross-backend sweeps, plus every examples/ script at
#                    tiny smoke scale.
#   smoke-examples - run each examples/ script with REPRO_SMOKE=1 (reduced
#                    shots/iterations), failing on the first error.
#   coverage       - fast tier under the stdlib line tracer (the image has no
#                    coverage.py / pytest-cov); prints per-module coverage and
#                    flags untested modules.
#   lint           - the repo's own AST-based invariant checker
#                    (python -m repro.lint): per-module rules (determinism,
#                    encapsulation, config serialization, exception hygiene,
#                    hot-path discipline, BENCH_*.json schemas) plus the
#                    whole-program rules built on the project call graph
#                    (concurrency, ipdeterminism, deadcode).  The full scan
#                    covers src/, tests/, benchmarks/, scripts/ and
#                    examples/.  Zero findings or fail.
#   coverage floor - CI gates the coverage run at --min 90 (measured 94.9%
#                    on 2026-10-19); make coverage just prints the table.
#   bench-hotpath  - run the iteration-throughput benchmark (compiled vs
#                    recompute-every-call) and refresh its perf-trajectory
#                    file BENCH_iteration_throughput.json.
#   bench-structure - whole choco-q solves with the structure memo emptied
#                    vs warm (K4/F4/G4 subspace, K4/G4 dense); refreshes
#                    BENCH_structure_memo.json and fails unless every warm
#                    record equals its cold one.
#   bench-cobyla   - COBYLA per minimize on the four solvers' cost closures
#                    (K1/K2/F2): repro's direct PRIMA call against
#                    scipy.optimize's, on bit-identical trajectories;
#                    refreshes BENCH_cobyla_core.json (overhead-speedup
#                    gated).
#   bench-optimum  - the exact optimum as a minimum over the feasible set:
#                    ms to enumerate F and ms for brute_force_optimum on the
#                    12 suite scales, a 24- and a 27-variable generator
#                    instance and a 20-variable unconstrained QUBO;
#                    refreshes BENCH_exact_optimum.json (gated: the
#                    27-variable optimum takes under 1 s).
#   bench-transpile - gate-count reductions of the circuit-optimization pass
#                    stack per paper circuit family; refreshes
#                    BENCH_transpile_optimization.json (speedup-gated).
#   bench-smoke    - run each whole-solve benchmark workload (BENCHMARK.json,
#                    perfbench/run.py) for 3 s, plus traced (--trace 1) runs
#                    of seeds-subspace, seeds-dense, lineup-dense and
#                    service-mixed, and fail unless every run reports
#                    correct with no failed operations.
#                    Checks that the benchmark and its span wrappers run and
#                    verify their answers; the timings are not gated.  Runs
#                    in the CI test job.
#   bench-ablation - the paper-figure benches behind the Choco-Q
#                    optimizations under pytest (pytest-benchmark's
#                    `benchmark` fixture): fig11 (modeled end-to-end
#                    latency and its quantum/classical breakdown), fig12
#                    (Trotter vs equivalent decomposition), fig13 (variable
#                    elimination) and fig14 (Opt2/Opt3 ablation), plus the
#                    pass stack's
#                    gate-count gates (bench_transpile_optimization) and the
#                    hot-path bench's bit-identity and throughput gates
#                    (bench_iteration_throughput: the compiled dense view
#                    kernel and subspace program against the per-call
#                    gather paths; writes no file under pytest) and the
#                    structure memo's whole-solve row (bench_structure_memo:
#                    cold vs warm choco-q solves, whose records must be
#                    identical), the COBYLA core row
#                    (bench_cobyla_core: repro's path against SciPy's, on
#                    identical trajectories), the exact-optimum row
#                    (bench_exact_optimum: the 27-variable optimum under
#                    1 s) and the Fig. 10 device grid (bench_fig10_hardware:
#                    54 noisy solves whose rows must equal the committed
#                    BENCH_fig10_hardware.json, which pins every noisy
#                    histogram).  Each asserts its expected shape; ~50 s.
#                    Runs in the CI test job.
#   bench-service  - load-generator benchmark of the async solve service
#                    (requests/s, cache-hit/dedup ratios, p50/p99 latency);
#                    refreshes BENCH_service_throughput.json.  Wall-clock
#                    heavy, so not part of the CI lanes — run locally after
#                    touching src/repro/service/.

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test-fast test test-all smoke-examples coverage lint bench-subspace bench-cyclic bench-hotpath bench-structure bench-cobyla bench-optimum bench-fig10 bench-transpile bench-service bench-smoke bench-ablation

test-fast:
	$(PYTEST) -q -m "not slow"

test:
	$(PYTEST) -x -q

test-all:
	$(PYTEST) -q --xslow
	$(MAKE) smoke-examples

smoke-examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src REPRO_SMOKE=1 $(PYTHON) $$script || exit 1; \
	done

coverage:
	PYTHONPATH=src $(PYTHON) scripts/coverage_report.py -q -m "not slow"

lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint

bench-subspace:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_subspace_speedup.py

bench-cyclic:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_cyclic_subspace.py

bench-hotpath:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_iteration_throughput.py

bench-structure:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_structure_memo.py

bench-cobyla:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_cobyla_core.py

bench-optimum:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_exact_optimum.py

bench-fig10:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fig10_hardware.py

bench-transpile:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_transpile_optimization.py

bench-service:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service_throughput.py

bench-ablation:
	$(PYTEST) -q benchmarks/bench_fig11_latency.py benchmarks/bench_fig12_decomposition.py benchmarks/bench_fig13_elimination.py benchmarks/bench_fig14_ablation.py benchmarks/bench_transpile_optimization.py benchmarks/bench_iteration_throughput.py benchmarks/bench_structure_memo.py benchmarks/bench_cobyla_core.py benchmarks/bench_exact_optimum.py benchmarks/bench_fig10_hardware.py -o python_files='bench_*.py' -o python_functions='bench_*'

BENCH_WORKLOADS = $(shell $(PYTHON) -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# Every workload untraced, plus traced runs of both choco-q seed batches
# (subspace and dense: the cost-callable span wraps a different evolution
# layout in each), the solver line-up (whose result scoring is the traced
# SolverResult.metrics seam's largest load) and the service workload, which
# install the solve and the server span wrappers: a refactor that unbinds a
# wrapped seam fails here, not in the first traced benchmark.
BENCH_SMOKE_RUNS = $(foreach workload,$(BENCH_WORKLOADS),$(workload):0) seeds-subspace:1 seeds-dense:1 lineup-dense:1 service-mixed:1

bench-smoke:
	@for run in $(BENCH_SMOKE_RUNS); do \
		workload=$${run%:*}; trace=$${run#*:}; \
		echo "== $$workload --trace $$trace"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 3 --trace $$trace | tail -n 1 \
			| $(PYTHON) -c 'import json, sys; r = json.load(sys.stdin); print({k: r[k] for k in ("correct", "attempted", "failed")}); sys.exit(not (r["correct"] is True and r["failed"] == 0))' \
			|| exit 1; \
	done
