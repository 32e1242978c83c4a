#!/usr/bin/env bash
# Build the replica binary and the benchmark driver from this checkout,
# then run the driver.  Arguments are passed through:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to standard error; the last line of standard output is
# the driver's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . ./bin/timebounds.exe ./perfbench/src/perfbench.exe 1>&2
exec ./_build/default/perfbench/src/perfbench.exe \
  --exe ./_build/default/bin/timebounds.exe --run-dir .perfbench-run "$@"
