#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload engine --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# repository root: the Go build cache, the binary, temporary result caches and
# trace files. The binary is built without PGO, like cmd/figures and cmd/serve.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the repository root (needs go.mod and benchmark/go.mod)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/benchmark" && go build -trimpath -o "$out/archbench" .)
exec "$out/archbench" "$@"
