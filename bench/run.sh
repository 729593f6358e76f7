#!/usr/bin/env bash
# Builds the MHETA end-to-end benchmark and the mheta-serve binary it
# drives from the checkout it is run in, then runs the benchmark:
#
#   bash bench/run.sh --workload predict-hot --seed 1 --seconds 18 --trace 0
#
# Run it from the repository root. Binaries, the Go build cache, Go's
# temporary files and its config directory all live under .bench_build/,
# so nothing is written outside the checkout and no network is used.
set -euo pipefail
if [[ ! -f go.mod || ! -f cmd/mheta-serve/main.go || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of an mheta checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go build -o "$out/bin/mheta-serve" ./cmd/mheta-serve
(cd bench && go build -o "$out/bin/mheta-benchmark" .)
exec "$out/bin/mheta-benchmark" -serve-bin "$out/bin/mheta-serve" "$@"
