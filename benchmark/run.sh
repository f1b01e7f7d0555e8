#!/usr/bin/env bash
# Builds the benchmark from source and runs it, touching nothing outside the
# checkout: the binary, the Go build cache and counters, temp files, indexes
# and WALs all live under .bench_build/ at the repository root. Arguments go
# to the benchmark unchanged, e.g.
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOTOOLCHAIN=local
export GOWORK=off

# The module replaces "historygraph" with the parent directory, so this
# fails (as it must) where the repository's sources are missing.
go build -C "$here" -o "$build/hgbench" .

cd "$here"
exec "$build/hgbench" "$@"
