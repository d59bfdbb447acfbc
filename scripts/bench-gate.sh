#!/usr/bin/env bash
# The gated benchmarks: the runs the CI bench job archives on main and the
# bench-compare job re-runs on a pull request's head.
#
#   scripts/bench-gate.sh OUT
#       Runs every gated benchmark from the repository root, printing the
#       output and writing it to OUT, the input of cmd/benchjson. Exits
#       non-zero if a run fails.
set -euo pipefail
out=${1:?usage: scripts/bench-gate.sh OUT}

go test -run=NONE -bench='BenchmarkBatchedAnalyze|BenchmarkCachedAnalyze|BenchmarkServiceAnalyze|BenchmarkVectorAnalyze|BenchmarkVectorDML' -benchtime=3x -count=3 ./... | tee "$out"
# The wire codec's operations take microseconds, not the analyses'
# hundreds of milliseconds: three iterations would time noise.
go test -run=NONE -bench=BenchmarkWireCodec -benchtime=2000x -count=3 ./internal/sqldb/wire/ | tee -a "$out"
# The layer benchmarks of the engine's operators and the property
# compiler, each at an iteration count sized to its operation:
# milliseconds per scan, join or group over the 1e6-row table,
# under a microsecond per indexed seek, tens of microseconds per
# compiled property.
go test -run=NONE -bench='BenchmarkEngine(Filter|FilterAnyOf|Project|Aggregate|Group|Join|JoinPinned|JoinKeyed)$' -benchtime=20x -count=3 ./internal/sqldb/ | tee -a "$out"
go test -run=NONE -bench='BenchmarkEngineSeek$' -benchtime=200000x -count=3 ./internal/sqldb/ | tee -a "$out"
go test -run=NONE -bench='BenchmarkCompileProperty$' -benchtime=2000x -count=3 . | tee -a "$out"
# Report assembly (sorting a thousand instances by severity and
# rendering them), a few hundred microseconds an op.
go test -run=NONE -bench='BenchmarkReportAssembly$' -benchtime=2000x -count=3 ./internal/core/ | tee -a "$out"
# A whole warm analysis (the repository benchmark's warm_wire loop:
# fast wire, cache on, one worker, the set form), a millisecond or
# two each; its allocs/op is what the evaluation plan, the server's
# request scratch, the plan-marker cache key and the set form keep
# per request instead of per binding. And a whole cold one (the
# cold_embedded loop: embedded engine, cache off, 24 runs loaded,
# the last four in rotation), tens of milliseconds each, all of it
# the engine executing the eight set-form statements: the per-PR
# gate on engine parity of the set form. Its per-property split
# (ColdAnalyzeProperty/<name>, with the SELECT executions one
# analysis costs as selects/op) gates each property on its own, and
# ColdAnalyzeGuided the guided search over the same set-form
# statements.
go test -run=NONE -bench='BenchmarkWarmAnalyze$' -benchtime=50x -count=3 . | tee -a "$out"
go test -run=NONE -bench='BenchmarkColdAnalyze$|BenchmarkColdAnalyzeProperty$|BenchmarkColdAnalyzeGuided$' -benchtime=20x -count=3 . | tee -a "$out"
# ColdAnalyzeProperty's allocs/op is bimodal under the collector
# (4-11 allocs/op more when a collection falls inside the 20 ops,
# E30); at -cpu 1 with GOGC=off it repeats exactly. That run adds
# its allocs/op only (the awk keeps name, iterations and the last
# pair), so ns/op is gated on the run above as before, and the
# gated minimum per name is the exact figure.
GOGC=off go test -run=NONE -cpu 1 -bench='BenchmarkColdAnalyzeProperty$' -benchtime=20x -count=3 . | awk '/^Benchmark/ { print $1, $2, $(NF-1), $NF }' | tee -a "$out"
