#!/usr/bin/env bash
# Builds the benchmark and the serving binaries it drives, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload report --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: binaries, the Go build cache, logs and manifests.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
# git describe stamps the result; it must not search above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
go build -o "$out/bin/" ./cmd/circled ./cmd/circlerouter >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
