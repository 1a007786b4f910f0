#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it, passing every argument through (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload mixed --seed 1 --seconds 24 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the binary,
# temporary files and the benchmark's own state all stay under
# .bench_build/ there.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
