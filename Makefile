# Development targets for the relperf repository. `make race` exercises the
# parallel study engine under the race detector and is expected on every
# change; `make bench` regenerates BENCH_engine.json for perf tracking.

GO ?= go

# serve flags; override like `make serve SERVE_ADDR=:9000 SERVE_SEED=7`.
SERVE_ADDR ?= :8077
SERVE_SEED ?= 1
SERVE_SNAPSHOT ?= relperfd.checkpoint
SERVE_WAL ?= relperfd.wal

# Per-fuzzer budget of `make fuzz`; CI smoke uses a short one, local deep
# runs can override: `make fuzz FUZZTIME=2m`.
FUZZTIME ?= 15s

.PHONY: all build test race vet bench bench-check fuzz serve clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The determinism property tests and TestEngineRaceExercise drive the
# worker pools at full width, so -race patrols every concurrent path.
race:
	$(GO) test -race ./...

# Static checks: go vet plus the metrics-name lint, which enforces the
# snake_case / _total / unit-suffix naming contract on every registry
# registration (see cmd/metricslint).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/metricslint .

# Runs each fuzzer for FUZZTIME on top of the committed seed corpus: spec
# parsing, result decoding (which accepts only a document that is its own
# re-encoding), suite-request decoding, WAL frame decoding (and the strict
# checkpoint reader against the recovering one) and sketch decoding must
# never panic and must stay canonical, the batched
# bootstrap kernel must match the value-space resample on any sample, and a
# tally or skip of draws must equal the same number of Intn calls.
# `go test -fuzz` takes one target per invocation, hence one line per fuzzer.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseStudySpec$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalResultWire$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSuiteRequest$$' -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzSketchDecode$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzBootKernelQuantiles$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzIntns$$' -fuzztime $(FUZZTIME) ./internal/xrand

# Runs the engine benchmarks with allocation reporting and emits the
# machine-readable BENCH_engine.json snapshot. The WinRate old/new sweep
# runs only inside the emitter (its numbers land in BENCH_engine.json);
# keeping it out of the -bench line avoids paying the O(N²) old arm twice.
bench:
	RELPERF_EMIT_BENCH=1 $(GO) test -run TestEmitEngineBenchJSON -count=1 .
	$(GO) test -run xxx -bench 'EngineSerialVsParallel|Allocs' -benchmem .

# Gates on the committed performance floors (matrix ≥ 2.5x, index-space
# bootstrap ≥ 1.5x at N=500): run after `make bench` so the freshly emitted
# BENCH_engine.json is what gets checked. CI fails on regression.
bench-check:
	$(GO) run ./cmd/benchcheck BENCH_engine.json

# Launches the relperfd serving daemon preloaded with the example suite in
# its durable configuration: results are journaled to $(SERVE_WAL) and
# compacted into the checkpoint $(SERVE_SNAPSHOT), so restarts serve warm.
serve:
	$(GO) run ./cmd/relperfd -addr $(SERVE_ADDR) -seed $(SERVE_SEED) \
		-wal $(SERVE_WAL) -snapshot $(SERVE_SNAPSHOT) -suite examples/suite.json

clean:
	rm -f BENCH_engine.json $(SERVE_SNAPSHOT) $(SERVE_WAL)
