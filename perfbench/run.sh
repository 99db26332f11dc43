#!/usr/bin/env bash
# Builds the perfbench binary from source into .bench_build/ and runs it with
# the arguments given. The Go build cache, temporary files and the go
# command's configuration directory all live under .bench_build/, so nothing
# is written outside the checkout. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
