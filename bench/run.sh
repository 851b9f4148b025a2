#!/usr/bin/env bash
# Builds and runs krrbench from the checkout root:
#
#   bash bench/run.sh --workload bulk-bucket --seed 1 --seconds 10 --trace 0
#
# Arguments pass through to krrbench (see bench/README.md). Every build
# artifact, cache and temporary file stays in .bench_build/ at the
# checkout root; the go tool runs offline with the local toolchain.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
# The go command keeps its env file and telemetry counters under the
# user config directory; keep those in the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$build/bin/krrbench" ./krrbench)
cd "$root"
exec "$build/bin/krrbench" "$@"
