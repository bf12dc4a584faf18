#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Build output
# goes to stderr; the benchmark's result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Keep every build artifact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
