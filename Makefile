GO ?= go

# Benchmarks tracked by the bench-baseline / bench-compare pair: the
# micro-primitives the PR-2 fast path optimized, the end-to-end regen, and
# the outage-axis batch kernel pairs (batch vs scalar, grid with the
# kernel on vs off).
BENCH_TRACKED := BenchmarkScenarioSimulate$$|BenchmarkScenarioSimulateAggregate|BenchmarkMinCostSizing|BenchmarkSweepSerial|BenchmarkSweepParallel|BenchmarkFullRegen|BenchmarkOutageBatch|BenchmarkOutageScalar|BenchmarkSizingOutage|BenchmarkGridOutageAxis|BenchmarkFabricSweep|BenchmarkProcessEval
BENCH_COUNT   ?= 10
BENCH_DIR     ?= .bench

.PHONY: ci fmt vet reach build test shuffle race race-httpapi cover fuzz-smoke bench-smoke bench-alloc bench bench-baseline bench-compare batch-equivalence fabric-equivalence store-equivalence vulture-smoke process-equivalence

ci: fmt vet reach build shuffle race race-httpapi cover bench-alloc bench-smoke batch-equivalence fabric-equivalence store-equivalence process-equivalence vulture-smoke

# Formatting gate: gofmt must have nothing to rewrite in any Go file git
# tracks or would track (ignored build outputs are skipped).
fmt:
	@out=$$(gofmt -l $$(git ls-files --cached --others --exclude-standard '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Reachability gate: every production function must be linked into some
# binary (every main package, plus perfbench), or be allowlisted with a
# reason in internal/reachcheck/allowlist.txt. It only builds and inspects
# binaries; nothing it builds is run.
reach:
	$(GO) run ./internal/reachcheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Order and repetition independence: every test must pass twice in a
# row, in a shuffled order, so no test leans on state another left behind.
shuffle:
	$(GO) test -count=2 -shuffle=on ./...

race:
	$(GO) test -race ./...

# Focused race gate for the serving layer: the concurrency hammer in
# internal/httpapi must stay data-race free with verbose accounting even
# when the full -race sweep is trimmed.
race-httpapi:
	$(GO) test -race -count=1 ./internal/httpapi

# Coverage report plus per-package floors: the grid package is the trunk
# every surface (HTTP, CLI, figures) routes through, so its statement
# coverage must stay at or above 85%; the fabric is the distributed
# serving path the vulture leans on, floored at 75%; the outage package
# now carries the stochastic process model, floored at 80%.
COVER_FLOOR := 85.0
FABRIC_COVER_FLOOR := 75.0
OUTAGE_COVER_FLOOR := 80.0
cover:
	$(GO) test -coverprofile=cover.out ./internal/grid/
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v got="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (got+0 < floor+0) { printf "internal/grid coverage %.1f%% is below the %.1f%% floor\n", got, floor; exit 1 } \
		printf "internal/grid coverage %.1f%% meets the %.1f%% floor\n", got, floor }'
	$(GO) test -coverprofile=cover.out ./internal/fabric/
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v got="$$total" -v floor="$(FABRIC_COVER_FLOOR)" 'BEGIN { \
		if (got+0 < floor+0) { printf "internal/fabric coverage %.1f%% is below the %.1f%% floor\n", got, floor; exit 1 } \
		printf "internal/fabric coverage %.1f%% meets the %.1f%% floor\n", got, floor }'
	$(GO) test -coverprofile=cover.out ./internal/outage/
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v got="$$total" -v floor="$(OUTAGE_COVER_FLOOR)" 'BEGIN { \
		if (got+0 < floor+0) { printf "internal/outage coverage %.1f%% is below the %.1f%% floor\n", got, floor; exit 1 } \
		printf "internal/outage coverage %.1f%% meets the %.1f%% floor\n", got, floor }'
	@rm -f cover.out

# Short live-fuzz runs of every fuzz target (the committed seed corpora
# already run in plain `make test`); lengthen with FUZZTIME=1m etc.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeEvaluateRequest -fuzztime=$(FUZZTIME) ./internal/httpapi
	$(GO) test -fuzz=FuzzDecodeSweepRequest -fuzztime=$(FUZZTIME) ./internal/httpapi
	$(GO) test -fuzz=FuzzParsePower -fuzztime=$(FUZZTIME) ./internal/units
	$(GO) test -fuzz=FuzzParseDuration -fuzztime=$(FUZZTIME) ./internal/units
	$(GO) test -fuzz=FuzzRandomSpecCompiles -fuzztime=$(FUZZTIME) ./internal/grid
	$(GO) test -fuzz=FuzzDecodeProcessSpec -fuzztime=$(FUZZTIME) ./internal/grid
	$(GO) test -fuzz=FuzzProcessDraw -fuzztime=$(FUZZTIME) ./internal/outage
	$(GO) test -fuzz=FuzzResultsQuery -fuzztime=$(FUZZTIME) ./internal/resultstore
	$(GO) test -fuzz=FuzzRowCodec -fuzztime=$(FUZZTIME) ./internal/resultstore
	$(GO) test -fuzz=FuzzRowProbe -fuzztime=$(FUZZTIME) ./internal/fabric

# Allocation-regression gate: the aggregate simulation path and the sizing
# inner loop must stay heap-allocation-free (see internal/cluster/alloc_test.go).
bench-alloc:
	$(GO) test -run='TestAggregatePathAllocFree|TestRequiredRuntimeAllocFree|TestSimulateAggregateAllocBound' ./internal/cluster/

# Single-iteration smokes: the deepest experiment (Fig 6: variant race ×
# rating sweep × duration fan-out) and the full serial regeneration, so CI
# exercises the sweep engine and the end-to-end path without paying for a
# statistical benchmark run.
bench-smoke:
	$(GO) test -run=NONE -bench=BenchmarkFig6 -benchtime=1x .
	$(GO) test -run=NONE -bench=BenchmarkFullRegen -benchtime=1x .

# Byte-equality smoke for the outage-axis batch kernel: the same Fig-5
# style sweep through cmd/gridrun must produce identical NDJSON with the
# kernel on (default) and off (-no-batch), at different widths and shard
# sizes for good measure.
batch-equivalence:
	@tmp=$$(mktemp -d); \
	spec='-op best -workloads specjbb -configs MaxPerf,MinCost,NoDG,NoUPS,DG-SmallPUPS,LargeEUPS -outages 30s,90s,5m,12m,30m,45m,1h,2h'; \
	$(GO) run ./cmd/gridrun $$spec -parallel 1 -o $$tmp/batch.ndjson && \
	$(GO) run ./cmd/gridrun $$spec -no-batch -parallel 4 -shard 5 -o $$tmp/scalar.ndjson && \
	cmp $$tmp/batch.ndjson $$tmp/scalar.ndjson && \
	echo "batch-equivalence: gridrun output identical with and without -no-batch" ; \
	status=$$?; rm -rf $$tmp; exit $$status

# Byte-equality smoke for the sweep fabric (PR 7): the same spec run
# single-node through cmd/gridrun and sharded across three in-process
# loopback backupd workers through cmd/sweepfront must merge to identical
# NDJSON — the tentpole contract, checked end to end through real HTTP.
# The second leg gives no -shard-rows, so a filtered plan of 1,200
# rows (sample_every plus min_outage) goes out in plan-scaled shards that
# each worker range-compiles from the whole filtered cross product.
fabric-equivalence:
	@tmp=$$(mktemp -d); \
	printf '%s' '{"servers":[16],"workloads":["specjbb","memcached"],"configs":[{"name":"MaxPerf"},{"name":"MinCost"},{"name":"NoDG"}],"techniques":[{"name":"baseline"},{"name":"throttling","pstate":3}],"outages":["30s","90s","5m","30m","1h"]}' > $$tmp/spec.json; \
	printf '%s' '{"servers":[16],"workloads":["specjbb","memcached"],"configs":[{"name":"MaxPerf"},{"name":"MinCost"},{"name":"NoDG"},{"name":"LargeEUPS"}],"technique_variants":true,"outages":["30s","90s","3m","5m","10m","15m","30m","45m","1h","2h","3h"],"filter":{"sample_every":2,"min_outage":"1m"}}' > $$tmp/filtered.json; \
	$(GO) run ./cmd/gridrun -spec $$tmp/spec.json -parallel 1 -o $$tmp/single.ndjson && \
	$(GO) run ./cmd/sweepfront -loopback 3 -shard-rows 5 -spec $$tmp/spec.json -o $$tmp/fabric.ndjson && \
	cmp $$tmp/single.ndjson $$tmp/fabric.ndjson && \
	echo "fabric-equivalence: 3-worker sweepfront output identical to single-node gridrun" && \
	$(GO) run ./cmd/gridrun -spec $$tmp/filtered.json -parallel 1 -o $$tmp/single-filtered.ndjson && \
	$(GO) run ./cmd/sweepfront -loopback 3 -spec $$tmp/filtered.json -o $$tmp/fabric-filtered.ndjson && \
	test $$(wc -l < $$tmp/single-filtered.ndjson) -ge 1000 && \
	cmp $$tmp/single-filtered.ndjson $$tmp/fabric-filtered.ndjson && \
	echo "fabric-equivalence: plan-scaled shards of a filtered plan identical to single-node gridrun" ; \
	status=$$?; rm -rf $$tmp; exit $$status

# Persistent result store equivalence smoke (PR 9): a cold gridrun with
# -store-dir, then a warm rerun of the identical spec against the same
# store, must produce byte-identical NDJSON while evaluating zero rows
# (the warm store's recompute counter stays 0 — every row is a disk hit).
# The cold leg writes exactly one record per plan row (24 puts) and
# nothing in the retired scenario namespace (hits_scenarios stays 0).
# Then a sealed block is torn mid-file: the next rerun must degrade
# gracefully — recompute only the lost rows, still byte-identical output.
store-equivalence:
	@tmp=$$(mktemp -d); \
	spec='-workloads specjbb,memcached -configs MaxPerf,NoDG -techniques baseline;sleep:low_power=true -outages 30s,5m,30m'; \
	$(GO) run ./cmd/gridrun $$spec -store-dir $$tmp/store -store-stats -o $$tmp/cold.ndjson 2> $$tmp/cold-stats.json && \
	test $$(wc -l < $$tmp/cold.ndjson) -eq 24 && \
	grep -q '"puts":24,' $$tmp/cold-stats.json && \
	grep -q '"hits_scenarios":0,' $$tmp/cold-stats.json && \
	echo "store-equivalence: cold run put exactly its 24 rows, no scenario records" && \
	$(GO) run ./cmd/gridrun $$spec -store-dir $$tmp/store -store-stats -parallel 4 -shard 3 -o $$tmp/warm.ndjson 2> $$tmp/warm-stats.json && \
	cmp $$tmp/cold.ndjson $$tmp/warm.ndjson && \
	grep -q '"recomputes":0,' $$tmp/warm-stats.json && \
	grep -qv '"hits":0,' $$tmp/warm-stats.json && \
	echo "store-equivalence: warm rerun byte-identical with 0 recomputed rows" && \
	for f in $$tmp/store/block-*.blk; do sz=$$(wc -c < $$f); truncate -s $$((sz*3/5)) $$f; done && \
	$(GO) run ./cmd/gridrun $$spec -store-dir $$tmp/store -o $$tmp/repaired.ndjson && \
	cmp $$tmp/cold.ndjson $$tmp/repaired.ndjson && \
	echo "store-equivalence: torn block degraded to recompute with identical bytes" ; \
	status=$$?; rm -rf $$tmp; exit $$status

# Process-level evaluation equivalence smoke (PR 10): first the focused
# property tests — the degenerate single-draw fixed process reproducing
# scalar Evaluate bit for bit, and draw determinism — re-run at -count=3
# to pin the no-hidden-state contract; then the same process-axis spec
# through cmd/gridrun at two parallel/shard geometries and through a
# 3-worker sweepfront fabric, all three byte-identical.
process-equivalence:
	$(GO) test -run='TestMetamorphicDegenerateMatchesScalar' -count=1 ./internal/core/
	$(GO) test -run='TestProcessDraw|TestEvaluateProcess' -count=3 ./internal/outage/ ./internal/core/
	@tmp=$$(mktemp -d); \
	printf '%s' '{"servers":[16],"workloads":["specjbb","memcached"],"configs":[{"name":"NoDG"},{"name":"MaxPerf"}],"techniques":[{"name":"baseline"},{"name":"sleep","low_power":true}],"outage_processes":[{"seed":42,"draws":8,"arrival":{"kind":"exponential","mean":"2000h"},"duration":{"kind":"weibull","mean":"30m","shape":0.8},"correlation":0.3},{"seed":7,"draws":4,"arrival":{"kind":"empirical"},"duration":{"kind":"empirical"}},{"seed":3,"draws":1,"arrival":{"kind":"fixed","mean":"5000h"},"duration":{"kind":"fixed","mean":"10m"}}]}' > $$tmp/spec.json; \
	$(GO) run ./cmd/gridrun -spec $$tmp/spec.json -parallel 1 -shard 1 -o $$tmp/serial.ndjson && \
	$(GO) run ./cmd/gridrun -spec $$tmp/spec.json -parallel 4 -shard 3 -o $$tmp/parallel.ndjson && \
	cmp $$tmp/serial.ndjson $$tmp/parallel.ndjson && \
	$(GO) run ./cmd/sweepfront -loopback 3 -shard-rows 2 -spec $$tmp/spec.json -o $$tmp/fabric.ndjson && \
	cmp $$tmp/serial.ndjson $$tmp/fabric.ndjson && \
	echo "process-equivalence: process-axis sweep byte-identical across widths, shards, and the 3-worker fabric" ; \
	status=$$?; rm -rf $$tmp; exit $$status

# Deterministic continuous-verification smoke (PR 8): cmd/vulture
# generates seeded-random specs against in-process loopback targets and
# runs all three checks (byte equality vs a local evaluation, the
# metamorphic invariants, /metrics deltas) plus a short rate-limited load
# phase under a generous tail-latency budget. Both target kinds are
# exercised: a single backupd worker and a 3-worker sweepfront fabric.
# Long soaks stay manual: `go run ./cmd/vulture -loopback 1 -duration 1h`.
# The third invocation attaches a persistent result store (-store-dir),
# which arms the store-delta and /v1/results read-your-writes checks.
vulture-smoke:
	$(GO) run ./cmd/vulture -loopback 1 -seed 7 -specs 6 -load-requests 32 -concurrency 4 -slo-p999 30s -max-error-rate 0
	$(GO) run ./cmd/vulture -loopback 3 -seed 11 -specs 4 -load-requests 16 -concurrency 4 -slo-p999 30s -max-error-rate 0
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/vulture -loopback 3 -seed 13 -specs 4 -store-dir $$tmp/store -load-requests 16 -concurrency 4 -slo-p999 30s -max-error-rate 0 ; \
	status=$$?; rm -rf $$tmp; exit $$status

bench:
	$(GO) test -bench=. -benchmem .

# bench-baseline records the tracked benchmarks ($(BENCH_COUNT) runs each)
# into $(BENCH_DIR)/baseline.txt. Run it on the commit you want to compare
# against, then make your changes and run bench-compare.
bench-baseline:
	@mkdir -p $(BENCH_DIR)
	$(GO) test -run=NONE -bench='$(BENCH_TRACKED)' -benchmem -count=$(BENCH_COUNT) . | tee $(BENCH_DIR)/baseline.txt

# bench-compare re-runs the tracked benchmarks and diffs them against the
# recorded baseline — through benchstat when it is on PATH, otherwise
# through the in-repo comparer (cmd/benchdiff), which needs no downloads.
bench-compare:
	@test -f $(BENCH_DIR)/baseline.txt || { echo "no $(BENCH_DIR)/baseline.txt — run 'make bench-baseline' first"; exit 1; }
	$(GO) test -run=NONE -bench='$(BENCH_TRACKED)' -benchmem -count=$(BENCH_COUNT) . | tee $(BENCH_DIR)/current.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_DIR)/baseline.txt $(BENCH_DIR)/current.txt; \
	else \
		$(GO) run ./cmd/benchdiff $(BENCH_DIR)/baseline.txt $(BENCH_DIR)/current.txt; \
	fi
