#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload head-hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, the binary and the
# traced run's spans all stay under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
