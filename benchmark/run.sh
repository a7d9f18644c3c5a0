#!/usr/bin/env bash
# Build the benchmark from source and run it; every argument goes to the
# executable.  Run from the root of a source checkout:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --selftest
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark: not a source checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
# Build output goes to stderr: the last line of stdout is the result.
# The shared build cache lives outside the checkout, so it stays off.
DUNE_CACHE=disabled dune build --root . ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
