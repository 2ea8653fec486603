#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's own sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload synth-sweep --seed 1 --seconds 25 --trace 0
#
# Every file the build or the run writes goes under $CARGO_TARGET_DIR
# (default .bench_build), including the Go build cache and temp files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -out-dir "$out" "$@"
