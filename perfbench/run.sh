#!/usr/bin/env bash
# Builds the repository benchmark and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload fit-long --seed 1 --seconds 30 --trace 0
#
# The benchmark is a Go module of its own that links the repository's
# packages through a replace directive, so it builds only inside a full
# checkout. Everything the build and the run leave behind goes under
# .bench_build/ at the root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
