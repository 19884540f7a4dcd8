#!/usr/bin/env bash
# Builds ksrbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload sync --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# temporary files, spans) stays under .bench_build at the checkout root.
# No module is downloaded: the benchmark needs only the standard library
# and this repository.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/ksrbench" ./ksrbench)
cd "$root"
exec "$out/ksrbench" "$@"
