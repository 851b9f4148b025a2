# Developer entry points. `make check` is the CI gate.

GO ?= go

.PHONY: check fast test bench bench-smoke results difftest fuzz-short serve-smoke ingest-smoke loadbench

check: ## vet + build + race tests + bench smoke
	./scripts/check.sh

fast: ## check without -race
	./scripts/check.sh fast

test:
	$(GO) test ./...

bench: ## full table/figure benchmark sweep
	$(GO) test -run=NONE -bench=. -benchmem .

bench-smoke: ## compile-and-run sanity pass over the Table 5.3 benches
	$(GO) test -run=NONE -bench=Table5_3 -benchtime=100x .

serve-smoke: ## end-to-end krrserve test: build, ingest, scrape, SIGTERM
	$(GO) test -count=1 -run TestServeSmoke -v ./cmd/krrserve/

ingest-smoke: ## krrload -> krrserve wire plane over loopback, zero drops required
	$(GO) test -count=1 -run TestIngestSmoke -v ./cmd/krrserve/

loadbench: ## sustained wire-ingest throughput sweep (see results/ingest_bench.md)
	./scripts/loadbench.sh

results: ## regenerate the paper tables/figures under results/
	$(GO) run ./cmd/experiments -run all -out results

difftest: ## long randomized differential sweep (seed via DIFFTEST_SEED)
	$(GO) test -tags difftest -count=1 -run TestDifferentialRandomSweep -v ./internal/difftest/

fuzz-short: ## 10s per fuzz target: trace codec, ingest decoders (wire + NDJSON), model process loops
	$(GO) test -fuzz=FuzzReadBinary -fuzztime=10s ./internal/trace/
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=10s ./internal/trace/
	$(GO) test -run='^$$' -fuzz='^FuzzReadHeader$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzDecoder$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzDecoderDiscard$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzNDJSON$$' -fuzztime=10s ./cmd/krrserve/
	$(GO) test -fuzz=FuzzModelProcess -fuzztime=10s ./internal/difftest/
