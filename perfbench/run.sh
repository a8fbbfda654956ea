#!/usr/bin/env bash
# Builds rlzd and the benchmark from source, then runs the benchmark.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-uniform-get --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

go build -o "$build/rlzd" ./cmd/rlzd
go -C perfbench build -o "$build/perfbench" .

# The checkout may not be a git repository; name the source by digest.
PERFBENCH_SOURCE=src-sha256:$(find cmd internal perfbench go.mod -type f -name '*.go' -o -type f -name 'go.mod' |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_SOURCE

exec "$build/perfbench" -rlzd "$build/rlzd" -workdir "$build/run-$$" -spans "$build/spans" "$@"
