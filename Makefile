# Single source of truth for build/check commands: CI (.github/workflows/ci.yml)
# and local runs invoke the same targets.

GO ?= go

# Packages with real concurrency (goroutines + shared cancellation state),
# and the parser whose storage qcecd reuses across requests: these are the
# ones the race detector must cover.
RACE_PKGS = ./cmd/qcec/... ./internal/core/... ./internal/portfolio/... ./internal/dd/... ./internal/ec/... ./internal/resource/... ./internal/faultinject/... ./internal/qasm/... ./internal/server/... ./internal/sim/... ./internal/stab/...

FUZZTIME ?= 20s

# Pinned so local runs and CI flag the identical finding set; bump
# deliberately, together with fixing whatever the new version reports.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test race vet fmt staticcheck fuzz-smoke chaos serve-smoke bench benchcmp perfbench-test perfbench-smoke examples ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

vet:
	$(GO) vet ./...

# Fails when any tracked Go file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis beyond vet. `go run` pins the tool version through the
# module proxy, so the target needs no separately-installed binary and CI
# and local runs agree byte-for-byte on the ruleset.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Simulation benchmark over the seed circuits: writes BENCH_sim.json with
# the simulation stage's gate-application rates and verdicts, plus a
# multi-worker scaling curve (1/2/4/NumCPU stimulus workers over one shared
# prepared program set) per equivalent pair.  -r 32 amortizes the per-check
# setup cost that otherwise dominates the sub-millisecond seed circuits.
# The -min-* gates make the run fail below the advertised floors; the
# scaling floor (0.5 efficiency at 4 workers = a 2x speedup) is only
# enforced on machines with at least 4 CPUs.  CI runs it non-blocking and
# archives the artifact instead.
# The Clifford sweep (stabilizer tableau vs the complete DD checker on
# random Clifford pairs, 8-24 qubits) rides in the same artifact; its floor
# asserts the polynomial fast path is at least 10x ahead of DD on the
# >=20-qubit equivalent pairs.
# The gate-cost sweep (application schemes on deeply-compiled pairs, peak DD
# nodes) also rides in the artifact; its floor of 2 asserts the gate-cost
# schedule keeps the miter at most half the proportional scheme's peak size
# (geomean over equivalent pairs; peak node counts are deterministic).
BENCH_R ?= 32
BENCH_MIN_SCALING_EFF ?= 0.5
BENCH_MIN_STAB_SPEEDUP ?= 10
BENCH_MIN_GATECOST_RATIO ?= 2
bench:
	$(GO) run ./cmd/qbench -out BENCH_sim.json -r $(BENCH_R) \
		-min-scaling-eff $(BENCH_MIN_SCALING_EFF) -min-stab-speedup $(BENCH_MIN_STAB_SPEEDUP) \
		-min-gatecost-ratio $(BENCH_MIN_GATECOST_RATIO)

# Fresh benchmark run diffed against the committed BENCH_sim.json, without
# overwriting it: per-pair and geomean gate-apps/s deltas.  The gates are
# disabled here — benchcmp reports drift, it does not enforce a floor.
benchcmp:
	$(GO) run ./cmd/qbench -out /tmp/qbench-head.json -r $(BENCH_R) -compare BENCH_sim.json

# Short fuzzing bursts over the parsers (the OpenQASM one also against its
# tokenize-first reference, and parsing into reused storage against a fresh
# parse), the decomposition pipeline, the complex table
# (against its map-backed reference) and qcecd's check-request reader
# (against json.Unmarshal); -fuzz takes one target per invocation, so each
# fuzzer gets its own run.
fuzz-smoke:
	$(GO) test ./internal/qasm -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qasm -run='^$$' -fuzz='^FuzzParseMatchesReference$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qasm -run='^$$' -fuzz='^FuzzRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qasm -run='^$$' -fuzz='^FuzzParseReuse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/revlib -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/decompose -run='^$$' -fuzz='^FuzzZYZ$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/decompose -run='^$$' -fuzz='^FuzzDecompose$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/stab -run='^$$' -fuzz='^FuzzTableau$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz='^FuzzJournalDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cn -run='^$$' -fuzz='^FuzzInternMatchesReference$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz='^FuzzDecodeCheckRequest$$' -fuzztime=$(FUZZTIME)

# The fault-injection chaos suite and the watchdog tests under the race
# detector: every injected fault must degrade into a typed report, never a
# crash or a flipped verdict.
chaos:
	$(GO) test -race -count=1 ./internal/faultinject/... ./internal/resource/...

# End-to-end smoke of the checking daemon: build the real qcecd binary, run
# it on a random port, drive it over HTTP with the seed circuits (equivalent
# and non-equivalent pairs, a concurrent burst), scrape /metrics, then
# SIGTERM it and require a clean drain + exit 0.
serve-smoke:
	QCECD_SMOKE=1 $(GO) test ./internal/server -run '^TestServeSmoke$$|^TestServeCrashRestart$$' -count=1 -v -timeout 300s

# perfbench (the qcecd client benchmark) is its own Go module, so the root
# `go test ./...` never reaches its generator tests (round-trip, byte
# determinism, mix shares); this runs vet and the tests inside it.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# A short oracle-checked Clifford run through the real daemon: perfbench
# builds qcecd, drives it with clifford-sim traffic for 5 s and checks every
# verdict against the stabilizer tableau (stab.Check); a wrong verdict, an
# error verdict or a non-2xx response exits 1.
perfbench-smoke:
	bash perfbench/run.sh --workload clifford-sim --seed 61 --seconds 5 --trace 0

# Runs every program under examples/ end to end (`go build ./...` only
# compiles them); the first non-zero exit fails the target.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d > /dev/null; \
	done

ci: build test vet fmt race chaos examples perfbench-test
