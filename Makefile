GO ?= go

.PHONY: all build vet test race lint bench bench-record chaos chaos-cluster verify

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Lint the checked-in case-study configuration with the repository's own
# misconfiguration analyzer (internal/lint via scada-analyzer -lint).
# Exits non-zero if the linter reports errors (warnings are expected:
# the paper's Table II input deliberately contains weak profiles).
lint:
	$(GO) run ./cmd/scada-analyzer -lint -config testdata/case5bus.scada

bench:
	$(GO) test -bench=. -benchmem

# Record the repository benchmark (bench/, workloads in BENCHMARK.json):
# each of the four workloads for 20 s on seeds 0-4, one JSON line per
# run, into .bench_build/record-<commit>.jsonl (replaced if present).
# The name comes from HEAD, so two commits' records sit side by side:
#   bash bench/run.sh -compare .bench_build/record-OLD.jsonl .bench_build/record-NEW.jsonl
bench-record:
	out=.bench_build/record-$$(git rev-parse --short HEAD).jsonl; rm -f $$out; \
	for w in campaign-cold-ieee57 boundary-ieee118 certify-ieee57 serve-mutate-ieee57; do \
		for s in 0 1 2 3 4; do \
			bash bench/run.sh --workload $$w --seed $$s --seconds 20 --trace 0 -out $$out || exit 1; \
		done; \
	done

# The chaos pass: the fault-tolerance suite (deterministic fault
# injection, budget degradation, checkpoint/resume, panic isolation)
# under the race detector, uncached so injected faults re-fire every
# run (see DESIGN.md §9), the verification-service chaos smoke
# (overload shedding, breaker, drain-resume; see DESIGN.md §10), plus
# the certification chaos suite (DESIGN.md §15): the TestChaos patterns
# below include TestChaosCertify* — injected verdict flips, corrupted
# witnesses and truncated proof streams must be caught, quarantined and
# corrected at the core, service and cluster boundaries.
chaos: chaos-cluster
	$(GO) test -race -count=1 ./internal/faultinject ./internal/atomicio ./internal/sat/drat
	$(GO) test -race -count=1 -run 'TestChaos|TestBudget|TestCheckpoint|TestSweepVerifyRange|TestIEEE57EnumerationResume|TestFlight|TestDelta' ./internal/core
	$(GO) test -race -count=1 -run 'TestSetup|TestTracer|TestFlight' ./internal/obs
	$(GO) test -race -count=1 -run 'TestChaos|TestBreaker|TestHandoff|TestRetryAfter' ./internal/serve
	$(GO) test -race -count=1 ./cmd/scada-served

# The multi-node chaos suite (DESIGN.md §14): a coordinator over real
# member nodes, race-enabled — a member killed mid-enumeration must
# yield the identical vector set via checkpoint-carrying handoff, and a
# partitioned member must not stop /v1/verify or breach queue bounds.
chaos-cluster:
	$(GO) test -race -count=1 ./internal/cluster

# The pre-merge gate: static checks, full build, race-enabled tests,
# the config lint, and the chaos pass. The observability layer and the
# verification service get explicit vet + race passes (their tests
# hammer the tracer, registry, and admission pipeline concurrently).
verify: vet build race lint chaos
	$(GO) vet ./internal/obs ./internal/serve
	$(GO) test -race -count=1 ./internal/obs ./internal/sat ./internal/serve
