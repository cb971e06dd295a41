#!/usr/bin/env bash
# Builds the verifier daemon and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 30 --trace 0
# Must be started from the root of the repository. The shared dune cache is
# off so that the run writes nothing outside the repository.
set -euo pipefail
dune build --root . --cache=disabled --display quiet ./perfbench/main.exe ./bin/daenerys.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
