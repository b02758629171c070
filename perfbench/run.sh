#!/usr/bin/env bash
# Builds adtc and the benchmark from source, then runs one benchmark run:
#   bash perfbench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
# Run from the root of a checkout. For one workload, the last line of
# standard output is the run's JSON result; "all" runs every workload and
# ends with a table, one row per workload. Exits nonzero, without a
# result, when the build fails.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./bin/adtc.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --adtc ./_build/default/bin/adtc.exe "$@"
