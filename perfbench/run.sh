#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the checkout's
# .bench_build directory (CARGO_TARGET_DIR when set).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/modcache" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
# The Go runtime hands freed heap pages back with MADV_FREE instead of its
# Linux default MADV_DONTNEED, so they stay mapped until the kernel needs
# them. Otherwise the restart workload, whose heap grows and shrinks by
# about 25 MB on every op, faults some 17 MB back in per op, and the cost
# of those faults depends on the host's memory, not on the program. See
# README.md.
export GODEBUG=madvdontneed=0
exec "$out/perfbench" -out "$out" "$@"
