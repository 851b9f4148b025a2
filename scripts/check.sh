#!/bin/sh
# check.sh — the repo's CI gate: formatting, vet, build, race-enabled
# tests, and a benchmark smoke pass (compile + a 100-iteration Table
# 5.3 sweep so the bench harness itself can't rot). krrbench, a
# separate module under bench/, is vetted too, so an internal API
# change that breaks it fails here. Run from the repo root:
#
#   ./scripts/check.sh          # full gate
#   ./scripts/check.sh fast     # skip full -race (quick local iteration)
#
# The model-registry conformance suite (internal/model) always runs
# under -race, even in fast mode: it exercises the sharded fan-out
# pipeline, whose bugs are data races by construction.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== bench vet (krrbench compiles against internal APIs; offline, as bench/run.sh)"
(cd bench && GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false go vet ./...)

echo "== difftest-fast (differential harness, deterministic trials)"
go test -count=1 -run 'TestDifferential|TestCorpus|TestMetamorphic' ./internal/difftest/

echo "== cheform-fast (analytic tier: solver, fitter, declared envelopes)"
go test -count=1 ./internal/cheform/
go test -count=1 -run 'TestDifferentialAnalytic|TestAnalyticCurveInvariants' ./internal/difftest/

if [ "${1:-}" = "fast" ]; then
	echo "== go test (no race)"
	go test ./...
	echo "== krr-bucket key table vs slot-arena reference (oracle)"
	go test -count=1 -run 'TestBucketStackMatchesArenaReference|TestBucketStackWrapAroundDelete' ./internal/core/
	echo "== model conformance + snapshots (-race)"
	go test -race -run 'TestConformance|TestSharded|TestSnapshot|TestQuiesce' ./internal/model/ ./internal/shardpipe/
	echo "== redislike + dlru (-race: duel counters, controller retarget)"
	go test -race ./internal/redislike/... ./internal/dlru/...
else
	echo "== go test -race"
	go test -race ./...
fi

echo "== duel-smoke (set-dueling tournament tracks the best static rival)"
go test -count=1 -run TestDuelSmoke ./internal/redislike/

echo "== krrserve smoke (build daemon, ingest over HTTP, scrape, SIGTERM)"
go test -count=1 -run TestServeSmoke ./cmd/krrserve/

echo "== fleet smoke (3 tenants, shared budget, /allocate plan checks)"
go test -count=1 -run TestFleetSmoke ./cmd/krrserve/

echo "== ingest smoke (krrload -> krrserve wire plane over loopback, zero drops)"
go test -count=1 -run TestIngestSmoke ./cmd/krrserve/

echo "== wire hot-path alloc guard (decode must stay allocation-free)"
go test -count=1 -run TestDecodeHotPathAllocFree ./internal/wire/

echo "== bench smoke (Table 5.3, 100x)"
go test -run=NONE -bench=Table5_3 -benchtime=100x .

echo "== KRR hot-path A/B guard (interleaved ratios vs aet)"
KRR_BENCH_GUARD=1 go test -count=1 -run TestKRRHotPathABGuard .

echo "check.sh: OK"
