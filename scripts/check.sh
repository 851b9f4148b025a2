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

echo "== inlining (the KRR kernels' per-draw fast path and key lookup inline into the update loops)"
inlined=$(go build -gcflags=-m ./internal/core 2>&1)
for fn in '(*drawBatch).next' '(*BucketStack).find'; do
	if ! printf '%s\n' "$inlined" | grep -qF "can inline $fn"; then
		echo "internal/core: $fn is no longer inlinable (see draws.go)" >&2
		exit 1
	fi
done

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
	echo "== krr-bucket key table vs slot-arena reference, key-table probe lengths, bucketOf vs binary search, batched draws vs per-draw (oracles)"
	go test -count=1 -run 'TestBucketStackMatchesArenaReference|TestBucketStackWrapAroundDelete|TestKeyTableProbeLength|TestBucketOfMatchesBinarySearch|TestDrawBatchMatchesPerDrawSource' ./internal/core/
	go test -count=1 -run 'TestFillFloat64OpenMatchesPerDraw' ./internal/xrand/
	echo "== every model vs recorded digests (oracle): end-of-stream curves and mid-stream snapshots; exact Sampled counts and one filter per model; shards at rate 1 is olken"
	go test -count=1 -run 'TestKRRCurvesMatchRecordedDigests|TestSnapshotCurvesMatchRecordedDigests|TestFullScaleKernelPins|TestShardsAtRateOneIsOlken|TestShardedMatchesCoreShardedProfiler|TestStreamProcessBatchEquivalence|TestConformanceSampledCounter|TestFixedSizeSampledMatchesDigests|TestKernelFilterIsTheOnlyFilter' ./internal/model/
	go test -count=1 -run 'TestDecisionLogMatchesRecordedDigest|TestShadowModelsKeepStreamingAcrossDecisions' ./internal/dlru/
	go test -count=1 -run 'TestKPrimeAblationMatchesRecordedDigests' ./internal/experiments/
	echo "== model conformance + snapshots + histogram reads + kernel telemetry scraped during ingest (-race)"
	go test -race -run 'TestConformance|TestSharded|TestSnapshot|TestQuiesce|TestReadObjectHist|TestKernelTelemetry' ./internal/model/ ./internal/shardpipe/
	echo "== fleet curve reads under ingest (-race)"
	go test -race -run 'TestTenantRead' ./internal/fleet/
	echo "== redislike + dlru (-race: concurrent RESP clients, controller driving the server over RESP)"
	go test -race ./internal/redislike/... ./internal/dlru/...
else
	echo "== go test -race"
	go test -race ./...
fi

echo "== krrserve smoke (build daemon, ingest over HTTP, scrape, SIGTERM)"
go test -count=1 -run TestServeSmoke ./cmd/krrserve/

echo "== fleet smoke (3 tenants, shared budget, /allocate plan checks)"
go test -count=1 -run TestFleetSmoke ./cmd/krrserve/

echo "== ingest smoke (krrload -> krrserve wire plane over loopback, zero drops)"
go test -count=1 -run TestIngestSmoke ./cmd/krrserve/

echo "== ingest failure injection (-race: stalled HTTP body, sink failure in drain, disconnect mid-frame, slow tenant, eviction with frames queued, eviction between lookup and batch, decode and ingest errors mid-body)"
go test -race -count=1 -run 'TestFailure|TestServerSinkError' ./internal/wire/ ./cmd/krrserve/
go test -race -count=1 -run 'TestIngestDecodeErrorMidBody|TestIngestBatchErrorStopsDecoder|TestIngestBatchEvictionRace' ./internal/fleet/

echo "== ingest alloc guards (wire decode allocation-free; wire connection, NDJSON body buffers and ingest batches recycled)"
go test -count=1 -run 'TestDecodeHotPathAllocFree|TestServerShortConnAllocs' ./internal/wire/
go test -count=1 -run 'TestNDJSONReleaseAllocFree|TestNDJSONIngestAllocGuard' ./cmd/krrserve/
go test -count=1 -run 'TestIngestErrorReturnsPooledBatches' ./internal/fleet/

echo "== curve read path (alloc guards; walker, JSON writer, waterfill and responses pinned to references)"
go test -count=1 -run 'TestTenantMissRatioReadAllocFree|TestFullCurveWriteAllocGuard|TestWaterfillMatchesReference|TestWaterfillLinearCurvesMatchReference|TestTenantReadMatchesModelSnapshot' ./internal/fleet/
go test -count=1 -run 'TestHistCurveMatchesReference|TestFromHistogramLogMatchesReference|TestWriteJSONMatchesEncodingJSON|TestHistCurveEvalAllocFree' ./internal/mrc/
go test -count=1 -run 'TestReadObjectHistMatchesSnapshot' ./internal/model/
go test -count=1 -run 'TestReadResponsesMatchSnapshotPath|TestAllocateReadsEachTenantOnce' ./cmd/krrserve/

echo "== bench smoke (Table 5.3, 100x)"
go test -run=NONE -bench=Table5_3 -benchtime=100x .

echo "== KRR hot-path A/B guard (median of interleaved paired ratios vs aet)"
KRR_BENCH_GUARD=1 go test -count=1 -run TestKRRHotPathABGuard .

echo "check.sh: OK"
