#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload explore-resnet50 --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, temporary
# files, the go command's config and telemetry directory, and the fleet data
# directories all stay under .bench_build/ in the working directory; nothing
# is fetched, so the toolchain must be installed.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
command -v go >/dev/null 2>&1 || export PATH="$PATH:/usr/local/go/bin" # the Go tarball's default home
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
