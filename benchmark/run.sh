#!/usr/bin/env bash
# Build the benchmark runner and the serving daemon from source, then run
# the benchmark with the arguments given, from the root of the checkout:
#
#   bash benchmark/run.sh --workload serve-mac --seed 7 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout carries only the runner's report.
# The dune cache stays off so nothing is written outside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet benchmark/main.exe bin/dps_serve.exe 1>&2
exec _build/default/benchmark/main.exe \
  --serve-exe _build/default/bin/dps_serve.exe --run-dir .bench_run "$@"
