#!/usr/bin/env bash
# Builds the benchmark and the vpnscoped daemon from this checkout's
# sources, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload tested-study --seed 2018 --seconds 40 --trace 0
#
# Every build and run artifact (Go build cache, binaries, scratch files,
# traces) stays under .bench_build/ at the repository root. Build output
# goes to standard error, so the result line stays last on standard output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
# The go command keeps its settings and telemetry counters under the user
# config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" &&
	go build -o "$out/bin/perfbench" . &&
	go build -o "$out/bin/vpnscoped" vpnscope/cmd/vpnscoped) >&2
cd "$root"
exec "$out/bin/perfbench" "$@"
