#!/usr/bin/env bash
# Builds the benchmark and the two binaries it drives, then runs it with the
# arguments given. Everything the build and the run write stays under
# .bench_build/ at the repository root: the Go build cache, the binaries,
# scratch databases, server logs and spans.jsonl.
#
#   bash bench/run.sh --workload serve_distinct --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1                  # every workload, both phases
#
# In a directory that holds bench/ but not the module it measures, the build
# fails and nothing is run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/" . heterosw/cmd/swserve heterosw/cmd/swindex) >&2

exec "$build/bin/bench" -bin "$build/bin" -work "$build" "$@"
