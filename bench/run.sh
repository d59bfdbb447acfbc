#!/bin/bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from wherever it is called. Everything it writes — the Go build
# cache, the binary, generated inputs, traces, results — stays under
# bench/out/.
#
# The harness is a module of its own, so the repository's `go test ./...`
# does not reach its tests; `--smoke` runs them (go vet, then go test) before
# the smoke pass, and is what CI or a reviewer runs after touching either the
# harness or the interfaces it wraps.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
if [[ "${1:-}" == "--smoke" ]]; then
	go vet -C "$here/cosybench" ./...
	go test -C "$here/cosybench" ./...
fi
go build -C "$here/cosybench" -o "$out/cosybench" .
exec "$out/cosybench" --outdir "$out" "$@"
