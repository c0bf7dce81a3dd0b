#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload paper --seed 2016 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced runs' spans and profiles all stay under .bench_build/. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
