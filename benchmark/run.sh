#!/usr/bin/env bash
# Builds the benchmark binary from source and runs it with the given
# arguments:
#
#   bash benchmark/run.sh --workload plan --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache, Go's HOME-relative state) stays under .bench_build, so the run
# reads and writes nothing outside the checkout. Compiling happens here,
# before the binary starts, so it never counts toward setup_s.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark: run from the repository root (go.mod, internal/ and benchmark/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0

(cd "$root/benchmark" && go build -trimpath -o "$out/decor-benchmark" .)
exec "$out/decor-benchmark" "$@"
