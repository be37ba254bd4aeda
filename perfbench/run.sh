#!/usr/bin/env bash
# Builds psmd and the benchmark from this checkout, then runs the
# benchmark. Run from the repository root:
#
#	bash perfbench/run.sh --workload fraud-stream --seed 1 --seconds 16 --trace 0
#
# Every build artefact, cache and scratch file stays under .bench_build
# in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# With telemetry in its default "local" mode, the go command forks a
# detached sidecar (its own session) that can outlive the build; "off"
# is recorded under XDG_CONFIG_HOME, and this command starts no sidecar.
go telemetry off
go build -o "$build/psmd" ./cmd/psmd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -psmd "$build/psmd" -work "$build" "$@"
