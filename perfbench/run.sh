#!/usr/bin/env bash
# Builds the engine, its server and the benchmark from source, then runs
# one benchmark workload. Run from the repository root:
#   bash perfbench/run.sh --workload repeat-5k --seed 1 --seconds 10 --trace 0
set -euo pipefail
dune build --root . ./perfbench/main.exe ./bin/obda_server.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
