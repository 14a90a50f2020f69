#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: build suite.exe from this checkout,
# then measure one workload.  Run from the repository root, e.g.
#
#   bash bench/suite/run.sh --workload tpcc-write-rf3 --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null || true)"
dune build --root . ./bench/suite/suite.exe 1>&2
exec ./_build/default/bench/suite/suite.exe run "$@"
