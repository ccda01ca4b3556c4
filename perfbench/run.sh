#!/usr/bin/env bash
# Builds the benchmark and the programs it drives from the source tree
# it sits in, then runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload study --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: binaries, the Go build and module caches, the Go
# toolchain's config directory, temporary files, logs, spans and the
# stores of the rerun workload.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/backupd" ./cmd/backupd
go build -o "$out/bin/sweepfront" ./cmd/sweepfront
go build -C perfbench -o "$out/bin/perfbench" .

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
