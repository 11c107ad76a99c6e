#!/usr/bin/env bash
# Build the benchmark from source and run it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# The build's output goes to stderr, so the last line of standard output
# is the benchmark's JSON result.  The dune cache stays off, so the build
# writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/exsel_bench.exe 1>&2
exec ./_build/default/benchmark/exsel_bench.exe "$@"
