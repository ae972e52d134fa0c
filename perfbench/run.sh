#!/usr/bin/env bash
# Builds the circuitql benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload hot-wire --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artifact stays in the
# checkout: the Go build cache, the binary and the Go tool's home
# directory go under $CARGO_TARGET_DIR (default .bench_build), and the
# benchmark's scratch stores and span files under .perfbench.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off GOENV=off

go telemetry off >/dev/null 2>&1 || true
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
