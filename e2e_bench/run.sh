#!/bin/sh
# Builds the benchmark from source, then runs one workload:
#
#   sh e2e_bench/run.sh --workload batch|edit --seed N --seconds S --trace 0|1
#
# The build goes to .bench_build at the root of the checkout, with dune's
# shared cache off, so nothing is read or written outside the checkout;
# traced runs write their chrome trace to .bench_out. Build output goes
# to stderr; the last line on stdout is the result.
set -e
cd "$(dirname "$0")/.."
dune build --root . --build-dir .bench_build --cache=disabled --profile release \
  ./e2e_bench/main.exe >&2
exec ./.bench_build/default/e2e_bench/main.exe "$@"
