#!/usr/bin/env bash
# Builds cibench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload ci-5k-mem --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, durable
# data dirs) stays under .bench_build/ at the root of the checkout. The
# build never touches the network: modules resolve from the checkout only.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
# The go command's caches, module cache, telemetry counters (under the
# user config dir) and temp files, and the benchmark's data dirs.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
  XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$build/cibench" ./cmd/cibench) >&2
cd "$root"
exec "$build/cibench" "$@"
