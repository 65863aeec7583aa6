# Standard entry points for the PIM-zd-tree reproduction.
#
# `make ci` is the gate: build, vet, the dead-code check, then the full
# test suite under the race detector with GOMAXPROCS=4 so the parallel
# sort/semisort/scan paths — and the forked wave scans, per-query host
# loops and pulled-chunk walks (TestPushedRoundMultiWorker,
# TestPulledScanMultiWorker) — actually run multi-worker (a 1-core CI
# would otherwise never exercise them), the
# memory gates without the race detector (which makes them skip), the CLI
# smoke run, the experiment CSVs compared across GOMAXPROCS, every fuzz
# target for 5 s from its seed corpus, and the benchmark module's own
# vet + tests.
# Wall-clock speed is not gated here: benchmark/ + BENCHMARK.json own it.

GO ?= go

.PHONY: ci build vet deadcode fmt test race footprint bench smoke determinism fuzz benchmark-module profile

ci: build vet deadcode fmt race footprint smoke determinism fuzz benchmark-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Nothing under internal/, cmd/ or tools/ lives only for its tests: every
# package-level identifier there is reached from production code (the
# benchmark module counts as a consumer). Exceptions sit in
# tools/deadcode/allowlist.txt, each with its reason. The checker's own
# fixture test runs with `go test ./...`; the whole-repo scan runs here.
deadcode:
	$(GO) run ./tools/deadcode

# Every Go file, the benchmark module's included, is gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# benchmark/ is a module of its own (BENCHMARK.json's harness), so root
# `./...` does not reach it. Vetting and testing it here is the
# compile-time proof that every product symbol it imports still exists.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Multi-worker regression net: the forked paths (the wave scan loop of
# waves above its entry threshold and the per-query kNN/box host loops via
# TestPushedRoundMultiWorker, pulled-chunk walks and scans via
# TestPulledScanMultiWorker, fork-join updates/relayout via
# TestUpdateMultiWorker) only exercise their parallel paths above one proc.
# (The determinism tests of bench/zdtree/pkdtree set GOMAXPROCS themselves.)
# The engine's ordering tests (barriers, epoch coalescing) run 20 more
# times so an ordering regression fails every run, not one in hundreds.
race:
	GOMAXPROCS=4 $(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race -count=20 -run 'TestBarrier|TestArrivalsDuringAnEpochShareTheNext' ./internal/serve

# The memory gates (internal/core/footprint_test.go): the node size, the
# heap a built tree keeps per point, no per-point heap from queries, and
# batch scratch that follows batch size back down. Heap sizes mean nothing
# under the race detector, so they skip themselves in `race`; this runs them
# without it.
footprint:
	$(GO) test -count=1 -run 'TestNodeSize|TestBuildKeepsNoBuildScratch|TestQueryPassAddsNoPerPointHeap|TestBulkInsertScratchIsReturned|TestAlternatingBatchesKeepScratch|TestFarKNNScratchIsReturned' -v ./internal/core

# CLI smoke tests: the trace exporters must emit parseable output
# (Chrome trace-event JSON with events, and valid JSONL); pimzd-inspect
# must find Lemma 3.1 and the structural invariants holding on a built
# tree under both tunings (it exits 1 otherwise); the admin server
# must come up with the flight recorder armed, pass its readiness probe
# (/readyz, which gates on the published index, not just liveness), take
# pimzd-loadgen traffic (the server generates none of its own), serve a
# lint-clean Prometheus exposition, both flight snapshots, the
# slow-request capture, a valid SLO snapshot and — at -trees 1, where the
# index runs its one router path over a single shard — the shard layout,
# the per-shard tree stats and the per-shard families, and — on SIGTERM —
# drain gracefully and flush valid flight + slow-request dumps whose analyze
# reports (critical-path and -requests stage attribution) are
# byte-identical across GOMAXPROCS; the concurrent serving engine must
# absorb parallel HTTP+TCP clients (pimzd-loadgen, which itself gates on
# /readyz) with mid-load /metrics + /snapshot/slowrequests +
# /snapshot/slo scrapes and drain cleanly on SIGTERM, and a short
# in-process saturation sweep must complete; a sharded server (-trees 4)
# must boot, take load, export the per-shard metrics families and the
# /snapshot/shards layout.
smoke:
	mkdir -p .smoke
	$(GO) run ./cmd/pimzd-trace -op search -n 20000 -batch 500 -p 256 \
		-format chrome -out .smoke/search.trace.json
	$(GO) run ./tools/checkjson -chrome .smoke/search.trace.json
	$(GO) run ./cmd/pimzd-trace -op search -n 20000 -batch 500 -p 256 \
		-format jsonl -out .smoke/search.jsonl
	$(GO) run ./tools/checkjson -jsonl .smoke/search.jsonl
	$(GO) run ./cmd/pimzd-inspect -n 20000 -p 128 -tuning throughput > /dev/null
	$(GO) run ./cmd/pimzd-inspect -n 20000 -p 128 -tuning skew > /dev/null
	$(GO) build -o .smoke/pimzd-serve ./cmd/pimzd-serve
	$(GO) build -o .smoke/pimzd-trace ./cmd/pimzd-trace
	$(GO) build -o .smoke/pimzd-loadgen ./cmd/pimzd-loadgen
	./.smoke/pimzd-serve -addr 127.0.0.1:0 -port-file .smoke/port \
		-n 20000 -p 128 -duration 60s \
		-flight 128 -slow-k 8 -flight-out .smoke/flight.json \
		-req-slow-k 8 -requests-out .smoke/requests.json & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 100); do test -s .smoke/port && break; sleep 0.1; done; \
	test -s .smoke/port || { kill $$SERVE_PID; echo "serve: no port file"; exit 1; }; \
	ADDR=$$(cat .smoke/port); \
	./.smoke/pimzd-loadgen -http $$ADDR -workers 4 -count 100 -n 20000 > /dev/null && \
	curl -fsS "http://$$ADDR/healthz" > /dev/null && \
	curl -fsS "http://$$ADDR/readyz" > /dev/null && \
	curl -fsS "http://$$ADDR/metrics" > .smoke/metrics.txt && \
	curl -fsS "http://$$ADDR/metrics?exemplars=1" > /dev/null && \
	curl -fsS "http://$$ADDR/snapshot/modules" > /dev/null && \
	curl -fsS "http://$$ADDR/snapshot/flightrecorder" > /dev/null && \
	curl -fsS "http://$$ADDR/snapshot/slowops" > /dev/null && \
	curl -fsS "http://$$ADDR/snapshot/slowrequests" > /dev/null && \
	curl -fsS "http://$$ADDR/snapshot/slo" > .smoke/slo.json && \
	curl -fsS "http://$$ADDR/snapshot/shards" > /dev/null && \
	curl -fsS "http://$$ADDR/snapshot/tree" > /dev/null && \
	grep -q '^pimzd_build_info{' .smoke/metrics.txt && \
	grep -q '^pimzd_shard_points{shard="0"}' .smoke/metrics.txt && \
	grep -q '^pimzd_process_uptime_seconds' .smoke/metrics.txt; \
	RC=$$?; kill -TERM $$SERVE_PID 2> /dev/null; wait $$SERVE_PID; \
	WRC=$$?; test $$RC -eq 0 && test $$WRC -eq 0
	$(GO) run ./tools/checkjson -promtext .smoke/metrics.txt
	$(GO) run ./tools/checkjson -flight .smoke/flight.json
	$(GO) run ./tools/checkjson -slo .smoke/slo.json
	GOMAXPROCS=1 ./.smoke/pimzd-trace analyze .smoke/flight.json > .smoke/an1.txt
	GOMAXPROCS=4 ./.smoke/pimzd-trace analyze .smoke/flight.json > .smoke/an4.txt
	cmp .smoke/an1.txt .smoke/an4.txt
	GOMAXPROCS=1 ./.smoke/pimzd-trace analyze -requests .smoke/requests.json > .smoke/req1.txt
	GOMAXPROCS=4 ./.smoke/pimzd-trace analyze -requests .smoke/requests.json > .smoke/req4.txt
	cmp .smoke/req1.txt .smoke/req4.txt
	./.smoke/pimzd-serve -addr 127.0.0.1:0 -port-file .smoke/cport \
		-tcp 127.0.0.1:0 -tcp-port-file .smoke/ctcp \
		-n 20000 -p 128 -duration 60s & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 100); do test -s .smoke/cport && test -s .smoke/ctcp && break; sleep 0.1; done; \
	test -s .smoke/cport || { kill $$SERVE_PID; echo "serve: no port file"; exit 1; }; \
	ADDR=$$(cat .smoke/cport); TCP=$$(cat .smoke/ctcp); \
	./.smoke/pimzd-loadgen -http $$ADDR -tcp $$TCP -workers 6 -duration 4s \
		-n 20000 > .smoke/loadgen.json & \
	LOAD_PID=$$!; \
	sleep 2; \
	curl -fsS "http://$$ADDR/metrics" > .smoke/serve-metrics.txt && \
	curl -fsS "http://$$ADDR/snapshot/slowrequests" > .smoke/load-requests.json && \
	curl -fsS "http://$$ADDR/snapshot/slo" > .smoke/load-slo.json; \
	MRC=$$?; wait $$LOAD_PID; LRC=$$?; \
	grep -q '^pimzd_requests_total' .smoke/serve-metrics.txt; GRC=$$?; \
	grep -q '^pimzd_request_stage_seconds_bucket' .smoke/serve-metrics.txt; SRC=$$?; \
	grep -q '"op_stages"' .smoke/loadgen.json; ORC=$$?; \
	kill -TERM $$SERVE_PID 2> /dev/null; wait $$SERVE_PID; WRC=$$?; \
	test $$MRC -eq 0 && test $$LRC -eq 0 && test $$GRC -eq 0 && \
	test $$SRC -eq 0 && test $$ORC -eq 0 && test $$WRC -eq 0
	$(GO) run ./tools/checkjson -promtext .smoke/serve-metrics.txt
	$(GO) run ./tools/checkjson -slo .smoke/load-slo.json
	./.smoke/pimzd-serve -addr 127.0.0.1:0 -port-file .smoke/sport \
		-trees 4 -n 20000 -p 128 -duration 60s & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 100); do test -s .smoke/sport && break; sleep 0.1; done; \
	test -s .smoke/sport || { kill $$SERVE_PID; echo "serve: no port file"; exit 1; }; \
	ADDR=$$(cat .smoke/sport); \
	./.smoke/pimzd-loadgen -http $$ADDR -workers 4 -count 100 -n 20000 > /dev/null && \
	curl -fsS "http://$$ADDR/metrics" > .smoke/shard-metrics.txt && \
	curl -fsS "http://$$ADDR/snapshot/shards" > .smoke/shards.json; \
	RC=$$?; \
	grep -q '^pimzd_shard_points{shard="3"}' .smoke/shard-metrics.txt; G1=$$?; \
	grep -q '^pimzd_shard_imbalance' .smoke/shard-metrics.txt; G2=$$?; \
	grep -q '"shards":4' .smoke/shards.json; G3=$$?; \
	kill -TERM $$SERVE_PID 2> /dev/null; wait $$SERVE_PID; WRC=$$?; \
	test $$RC -eq 0 && test $$G1 -eq 0 && test $$G2 -eq 0 && \
	test $$G3 -eq 0 && test $$WRC -eq 0
	$(GO) run ./tools/checkjson -promtext .smoke/shard-metrics.txt
	$(GO) run ./cmd/pimzd-bench -experiment saturate -format csv \
		-warmup 10000 -batch 1000 -p 128 > .smoke/saturate.csv
	test -s .smoke/saturate.csv
	rm -rf .smoke

# The paper-fidelity contract, end to end: the modeled experiment CSVs are
# byte-identical at any GOMAXPROCS — every row, the Pkd-tree/zd-tree
# baselines included (a baseline tree runs every batch serially).
determinism:
	mkdir -p .smoke
	$(GO) build -o .smoke/pimzd-bench ./cmd/pimzd-bench
	for e in all shardscale; do for g in 1 4 16; do \
		GOMAXPROCS=$$g ./.smoke/pimzd-bench -experiment $$e -format csv \
			-warmup 30000 -batch 3000 -p 256 > .smoke/$$e.$$g.csv && \
		test -s .smoke/$$e.$$g.csv && \
		cmp .smoke/$$e.1.csv .smoke/$$e.$$g.csv || exit 1; \
	done; done
	rm -rf .smoke

# Every Fuzz* target in the repo (found by name, so a new one joins
# without editing this) runs for 5 s beyond its seed corpus. go test takes
# one -fuzz target per run. A failing input lands in the package's
# testdata/fuzz/ and fails the step.
fuzz:
	for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal cmd tools); do \
		for name in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime 5s ./$$(dirname $$f) || exit 1; \
		done; \
	done

# Micro-benchmarks of the parallel substrate (sort, semisort, scan), and the
# build's time and memory (retained and peak heap bytes per point).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSortKeys$$|BenchmarkSortBy|BenchmarkSortPairs|BenchmarkSemisort|BenchmarkExclusiveScan$$' -benchmem ./internal/parallel/
	$(GO) test -run '^$$' -bench 'BenchmarkBuild$$' -benchmem ./internal/core/

# CPU-profile the hot query panels (kNN + box + search) at the standard
# scaled-down size and print the flat top-15. The profile file is left in
# .profile/cpu.pprof for interactive `go tool pprof` (see EXPERIMENTS.md).
profile:
	mkdir -p .profile
	$(GO) run ./cmd/pimzd-bench -experiment fig5a,fig6,fig7 -format csv \
		-warmup 30000 -batch 3000 -p 256 \
		-cpuprofile .profile/cpu.pprof > /dev/null
	$(GO) tool pprof -top -nodecount 15 .profile/cpu.pprof
