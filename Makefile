GO ?= go

.PHONY: all build vet test race check fmt fuzz cover bench bench-smoke bench-gate bench-alloc benchdiff profile simcheck chaos
FUZZTIME ?= 10s
# Minimizing a new interesting input defaults to a 60 s budget per input,
# longer than a whole soak: the coordinator then sits at 0 execs/s until
# the fuzz time runs out. Bound it so a short soak keeps fuzzing.
FUZZFLAGS = -run=^$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Short bounded fuzz pass over the FTL mapping, ECC classification,
# workload-codec, checkpoint torn-write and power-cut crash-recovery
# harnesses; FUZZTIME=1m make fuzz for a longer soak.
fuzz:
	$(GO) test $(FUZZFLAGS) -fuzz=FuzzFTLMapping ./internal/ftl
	$(GO) test $(FUZZFLAGS) -fuzz=FuzzReadClassify ./internal/fault
	$(GO) test $(FUZZFLAGS) -fuzz=FuzzWorkloadRoundTrip ./internal/check
	$(GO) test $(FUZZFLAGS) -fuzz=FuzzCkptTornWrite ./internal/ckpt
	$(GO) test $(FUZZFLAGS) -fuzz=FuzzCrashRecovery ./internal/check

# One pass over every figure/table benchmark, archived as JSON for diffing
# between commits and appended to the continuous-bench history the HTML
# report's trajectory sparklines read. -benchtime=1x because each whole-figure
# benchmark already runs the full evaluation matrix once. Every bench target
# runs at -cpu 1: benchmark names carry a -N suffix at GOMAXPROCS N > 1, and
# benchdiff matches names exactly, so the baseline and the gate must agree.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x -cpu 1 . \
		| $(GO) run ./cmd/benchjson -history BENCH_history.jsonl > BENCH_results.json
	@echo "wrote BENCH_results.json (history in BENCH_history.jsonl)"

# Quick subset of the figure benchmarks for CI smoke runs: enough to catch a
# perf or allocation regression without replaying every evaluation matrix.
BENCH_SMOKE = Fig7aBandwidth|Fig10Breakdown|SimulatorPageThroughput|TelemetrySampling
bench-smoke:
	$(GO) test -run='^$$' -benchmem -benchtime=1x -cpu 1 \
		-bench='$(BENCH_SMOKE)' . \
		| $(GO) run ./cmd/benchjson > bench_smoke.json
	@echo "wrote bench_smoke.json"

# Continuous-bench gate: re-run the smoke benchmarks -count=3 (benchjson keeps
# the min, so scheduler noise only helps), then fail if allocation counts or
# allocated bytes grew beyond 5% over the checked-in baseline. The time gate
# is disabled (-1): wall-clock numbers are not comparable across machines,
# allocations are deterministic.
bench-gate:
	$(GO) test -run='^$$' -benchmem -benchtime=1x -count=3 -cpu 1 \
		-bench='$(BENCH_SMOKE)' . \
		| $(GO) run ./cmd/benchjson -history BENCH_history.jsonl > bench_smoke.json
	$(GO) run ./cmd/benchdiff -time-threshold=-1 -alloc-threshold=0.05 \
		BENCH_results.json bench_smoke.json

# Allocation budget: enforce the whole-cell budget and the steady-state
# per-request pins, then profile one Figure 7a matrix and print where its
# heap objects come from (the runtime heap profile's alloc_objects top list).
bench-alloc:
	$(GO) test -run='PerSiteAllocBudget|SteadyStateAlloc|NewPreloadAllocs|FiguresWritePatternAllocs' -count=1 -v \
		./internal/experiment ./internal/ftl ./internal/ssd ./internal/obs ./internal/obs/attrib ./internal/sim
	@mkdir -p profile
	$(GO) run ./cmd/oocbench -fig 7a -matrix 96 -hostperf -memprofile profile/bench-alloc.pprof
	$(GO) tool pprof -sample_index=alloc_objects -top profile/bench-alloc.pprof | head -n 25

# Compare two archived bench runs by hand: make benchdiff OLD=a.json NEW=b.json
OLD ?= BENCH_results.json
NEW ?= bench_smoke.json
benchdiff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# CPU + allocation profile of a representative attributed replay; inspect
# with `go tool pprof profile/cpu.pprof` (or mem.pprof).
profile:
	@mkdir -p profile
	$(GO) run ./cmd/tracegen -matrix 96 -panel 8 -fs EXT4 -block profile/profile.trace
	$(GO) run ./cmd/replay -trace profile/profile.trace -config CNL-EXT4 -cell TLC \
		-attrib -cpuprofile profile/cpu.pprof -memprofile profile/mem.pprof
	@echo "wrote profile/cpu.pprof and profile/mem.pprof"

# Cross-layer conformance sweep: integrity oracle + analytical envelopes +
# metamorphic relations over the acceptance configurations.
simcheck:
	$(GO) run ./cmd/simcheck -episodes 25 -configs CNL-UFS,CNL-EXT4,ION-GPFS -cells MLC,TLC

# Degraded-network chaos smoke: race-checked scenario matrix over the
# netfault transfer engine, the degraded preload/checkpoint path and the
# conformance envelopes, then a full replay staged through a flaky fabric
# with the HTML experiment report as the artifact.
chaos:
	$(GO) test -race -count=1 ./internal/netfault ./internal/cluster ./internal/check
	$(GO) run ./cmd/simcheck -episodes 3 -configs CNL-UFS -cells MLC -net-profile flaky
	$(GO) run ./cmd/tracegen -matrix 64 -panel 8 -apps 2 -fs EXT4 -block chaos.trace
	$(GO) run ./cmd/replay -trace chaos.trace -config CNL-EXT4 -cell TLC \
		-net-profile flaky -report-out chaos_report.html
	@test -s chaos_report.html && echo "wrote chaos_report.html"

cover:
	$(GO) test -cover ./... | tee coverage.txt

check: fmt vet build test
