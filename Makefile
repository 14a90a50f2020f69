.PHONY: all build test check examples-smoke audit bench bench-smoke bench-suite clean

all: build

build:
	dune build @all

test:
	dune runtest

# The gate CI runs: everything compiles, all test suites pass, the
# deterministic fault-injection matrix is green (with the SI anomaly
# checker validating every run's history), the mutation battery proves
# the checker still detects a weakened engine, the examples run, the
# storage-elasticity contract holds (zero migration-caused aborts,
# bounded throughput-recovery window — ELASTIC_current.json is written
# by the elastic_scaling example during the smoke), and the
# commit-manager scale-out contract holds (begin throughput >= 3x from
# 1 to 4 managers, abort rate flat under merged snapshots —
# CM_current.json is written by the fig_cm smoke).  The quick matrix
# dumps the first failing run's history (the last run's if none fails)
# to histcheck-quick.hist for offline re-checking with tell_histcheck.
check:
	dune build @all
	dune runtest
	dune exec bin/tell_check.exe -- --quick --history-dump histcheck-quick.hist
	dune exec bin/tell_check.exe -- --mutation
	$(MAKE) examples-smoke
	dune exec bin/bench_compare.exe -- --elastic ELASTIC_current.json
	dune exec bin/tell_bench.exe -- experiment fig_cm --quick
	dune exec bin/bench_compare.exe -- --cm CM_current.json

examples-smoke:
	dune exec examples/quickstart.exe
	dune exec examples/mixed_workload.exe
	dune exec examples/elastic_scaling.exe
	dune exec examples/fault_tolerance.exe

# Replay a few seeds twice and fail on any counter divergence: guards the
# determinism contract the repro commands depend on.
audit:
	dune exec bin/tell_check.exe -- --deterministic-audit --seeds 3

bench:
	dune exec bin/tell_bench.exe -- tell --pns 4 --rf 3

# Reduced benchmark run compared against the committed baseline; fails if
# TpmC drops more than 15%, requests/new-order rises more than 10%, or
# the abort rate rises more than 0.5 percentage points.  Then replays the
# crash workload at seed 2, which exits non-zero unless the run is
# correct (it once wedged the index flusher on a missing B+tree
# separator, DESIGN.md §6 bug 19).
bench-smoke:
	dune exec bin/tell_bench.exe -- tell --pns 4 --rf 3 --json BENCH_current.json
	dune exec bin/bench_compare.exe -- BENCH_commit.json BENCH_current.json
	bash bench/suite/run.sh --workload tpcc-write-rf3-sn-crash --seed 2 --seconds 12 --trace 0

# The repository benchmark (BENCHMARK.json): every workload at seed 42,
# one JSON result line per workload.
bench-suite:
	bash bench/suite/run.sh --all --seed 42 --seconds 12 --trace 0

clean:
	dune clean
