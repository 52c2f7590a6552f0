#!/bin/sh
# Build the benchmark from source, then run it. From the repository root:
#
#   sh ftbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build needs the simulator's libraries under lib/, so outside a full
# checkout it fails and the script exits non-zero without a result.
set -e
dune build --root . ./ftbench/ftbench.exe 1>&2
exec ./_build/default/ftbench/ftbench.exe "$@"
