#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload mem-rw --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# (.bench_build, or $CARGO_TARGET_DIR when set): the Go build cache, the
# binary, the per-run stores, the span files and the saved reports.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
