#!/usr/bin/env bash
# Build the rchls benchmark from source and run it:
#   bash rchbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "rchbench: run from the rchls repository root (no dune-project or lib/ here)" >&2
  exit 2
fi
dune build --root . ./rchbench/main.exe 1>&2
# One domain unless the caller asks for more: on a small shared host the
# default two domains (a domain spawned per Pool.map call) make run-to-run
# times swing several-fold with the host's CPU steal.  Traced runs still
# time the two-domain path (pool.map_us, pool.two_domain_speedup).
export RCHLS_DOMAINS="${RCHLS_DOMAINS:-1}"
exec ./_build/default/rchbench/main.exe "$@"
