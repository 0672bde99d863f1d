#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; every
# argument is passed through (see main.go). The program runs from the
# checkout root, wherever run.sh is started from:
#
#   bash orchbench/run.sh --workload sim-flush --seed 1 --seconds 12 --trace 0
#
# Build output, the Go build cache and the store socket all stay under
# the checkout's .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$here/../go.mod" ] || [ ! -d "$here/../internal/netstore" ]; then
	echo "orchbench: $here/.. is not an iorchestra checkout; nothing to measure" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

# Keep every file the toolchain touches (build cache, temporary work
# directories, its config and telemetry under $HOME) inside the checkout,
# and never reach for the network.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$HOME" "$GOTMPDIR"

(cd "$here" && go build -o "$out/orchbench" .)
cd "$here/.."
exec "$out/orchbench" "$@"
