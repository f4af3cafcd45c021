#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (and with it the
# program under test) from source into .bench_build/ at the root of the
# checkout, then runs it with the arguments given. Every file the toolchain
# writes (build cache, module cache, telemetry counters) is kept under
# .bench_build/ so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/laqy-benchmark" .
)
exec "$out/laqy-benchmark" -spec "$root/BENCHMARK.json" "$@"
