#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-suite --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, scratch files and span files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

# Keep the toolchain's caches, telemetry and configuration inside the
# checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build" "$@"
