#!/bin/sh
# CI preflight: fast correctness gate run before any expensive experiment
# sweep. Covers vet, build, the full unit-test suite, and a race-detector
# pass over the packages with real concurrency (the experiment runner and
# everything an experiment point touches concurrently).
set -e
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== rtmvet (project invariants) =="
# Project-specific static analysis: determinism in simulator packages,
# allocation-free //rtm:hot functions, nil-guarded recorder calls,
# deterministic RNG seeding. See scripts/lint.sh for local runs.
go run ./cmd/rtmvet ./...

echo "== rtmvet transaction-safety gate (txnsafe + shardfreeze) =="
# The interprocedural passes get their own named step so a transaction-
# safety regression — host state mutated from an atomic body, frozen
# shared state touched mid-epoch — is identifiable at a glance in CI
# output. The full run above already includes them; this re-run is
# cheap (the effect-summary engine is cached per load) and explicit.
go run ./cmd/rtmvet -passes txnsafe,shardfreeze ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== e2ebench module (vet + tests) =="
# The end-to-end benchmark is a module of its own that imports rtmlab
# through a replace directive, so the root ./... never builds it. Vet
# and test it here: a removed rtmlab API it uses fails CI, not the
# benchmark run. The environment matches e2ebench/run.sh's build (local
# toolchain, read-only go.mod), so a root go.mod bump that the pinned
# e2ebench/go.mod cannot follow fails here the same way.
(cd e2ebench && export GOTOOLCHAIN=local GOFLAGS=-mod=readonly && go vet ./... && go test ./...)

echo "== go test -race (all packages) =="
go test -race -short -timeout 10m ./...

echo "== benchmark smoke (one iteration each) =="
# Keeps the micro-benchmarks compiling and runnable so they can't rot;
# real measurements come from scripts/bench.sh.
go test -run '^$' -bench . -benchtime 1x ./internal/lineset ./internal/mem ./internal/sim ./internal/htm

echo "== flight-recorder smoke (traced experiment + validation) =="
# One tiny traced experiment end to end: the trace must be valid JSON
# with the structure Perfetto needs, and the metrics sidecar must be
# valid JSON too (tracecheck exits non-zero otherwise).
obsdir="$(mktemp -d)"
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/rtmlab -scale test -seeds 1 -trace "$obsdir/trace.json" -metrics "$obsdir/metrics" table4 > /dev/null
go run ./cmd/tracecheck -metrics "$obsdir/metrics/table4.json" "$obsdir/trace.json"

echo "== example smoke (abort-timeline on the flight recorder) =="
# go build compiles the examples but nothing else runs them. This one
# merges the recorder's per-thread tracks into a timeline; its first 60
# events reach the first fallback serialisation, so require that line.
go run ./examples/abort-timeline -n 60 > "$obsdir/timeline.txt"
grep -Eq '^ *[0-9]+ t[0-9]+ fallback ' "$obsdir/timeline.txt" ||
    { echo "abort-timeline: no fallback event in the timeline"; exit 1; }

echo "== sharded engine smoke (traced -shards 4 + output invariance) =="
# The same experiment on the epoch-synchronized sharded engine: the trace
# must still validate, the metrics sidecar must carry the derived
# sharded-engine counters (epochs, parks/epoch, serial fraction —
# tracecheck -sharded), and the experiment tables must be byte-identical
# across shard counts (the engine's core guarantee; only the
# .timing.json sidecar may differ).
go run ./cmd/rtmlab -scale test -seeds 1 -shards 4 -trace "$obsdir/trace4.json" -metrics "$obsdir/metrics4" table4 > "$obsdir/out4.txt"
go run ./cmd/tracecheck -metrics "$obsdir/metrics4/table4.json" -sharded "$obsdir/trace4.json"
go run ./cmd/rtmlab -scale test -seeds 1 -shards 1 -j 1 table4 > "$obsdir/out1.txt"
cmp "$obsdir/out1.txt" "$obsdir/out4.txt"

echo "== classic engine smoke =="
# Same experiment on the serial engine. The cross-engine result
# equivalence (committed atomic blocks, validation) is pinned by
# TestShardStampDifferential and by the rtmreport -same-commits gate
# below rather than a byte cmp, since classic and sharded engines time
# threads differently by design.
go run ./cmd/rtmlab -scale test -seeds 1 -metrics "$obsdir/metrics0" table4 > /dev/null

echo "== stm protocol smoke (tinystm/tl2/norec, traced point each) =="
# One traced STM-exercising point per -stm-protocol setting: the trace
# and metrics sidecar must validate for every protocol, and each setting
# is its own byte-identity class across -j (shard invariance per
# protocol is pinned by TestProtocolMatrixDeterminism). The hybrid study
# covers both resolution paths: the STM backend and the hybrid fallback.
for proto in tinystm tl2 norec; do
    go run ./cmd/rtmlab -scale test -seeds 1 -j 1 -stm-protocol "$proto" \
        -trace "$obsdir/trace-$proto.json" -metrics "$obsdir/metrics-$proto" \
        hybrid > "$obsdir/hybrid-$proto-j1.txt"
    go run ./cmd/tracecheck -metrics "$obsdir/metrics-$proto/hybrid.json" "$obsdir/trace-$proto.json"
    go run ./cmd/rtmlab -scale test -seeds 1 -j 8 -stm-protocol "$proto" \
        hybrid > "$obsdir/hybrid-$proto-j8.txt"
    cmp "$obsdir/hybrid-$proto-j1.txt" "$obsdir/hybrid-$proto-j8.txt"
done

echo "== rtmreport smoke (causal report + run diff gate) =="
# The causal report must render from the sidecars produced above, and
# the run-diff observatory must verify the engine invariant the cheap
# way: classic and -shards 4 runs of the same experiment agree on every
# semantic metric (committed atomic blocks, per-site commits) and differ
# only in timing-derived metrics. -same-commits turns a semantic drift
# into a non-zero exit.
go run ./cmd/rtmreport "$obsdir/metrics4/table4.json" > /dev/null
go run ./cmd/rtmreport -json "$obsdir/metrics4/table4.json" > /dev/null
go run ./cmd/rtmreport -diff -same-commits "$obsdir/metrics0/table4.json" "$obsdir/metrics4/table4.json" > /dev/null

echo "== disabled-recorder overhead gate (htm vs committed snapshot) =="
# The flight recorder must cost nothing when off: every site is a nil
# check (structurally enforced by rtmvet obsguard + the zero-alloc
# tests; this gate is the wall-clock backstop). Compare the htm
# micro-benchmarks (recording disabled, as in the snapshot) against the
# latest committed BENCH_*.json; min of 3 runs filters scheduler noise.
# The gate fails on the geomean ns/op ratio, not per benchmark: on the
# shared-vCPU hosts this runs on, individual benchmarks swing ±15-40%
# between identical-code runs while the geomean stays within ~±10% —
# hence the default tolerance. Override with BENCH_TOL_PCT (tighter on
# a quiet dedicated box, wider on a very noisy one).
snapshot="$(ls BENCH_*.json 2>/dev/null | sort | tail -1)"
if [ -n "$snapshot" ]; then
    go test -run '^$' -bench . -benchtime "${BENCH_GATE_TIME:-0.3s}" -count 3 ./internal/htm \
        | go run ./cmd/benchjson -baseline "$snapshot" -tol-pct "${BENCH_TOL_PCT:-10}" -only internal/htm
else
    echo "no BENCH_*.json snapshot found; skipping"
fi

echo "ci: all checks passed"
