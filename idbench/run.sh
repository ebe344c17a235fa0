#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash idbench/run.sh --workload solve-global --seed 2022 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
# The benchmark module imports the repository module through a
# replace directive; without the repository's go.mod next to it the
# build fails and no result is printed.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "idbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 1
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/idbench" && go build -o "$out/idbench" .)
exec "$out/idbench" "$@"
