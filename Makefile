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

# Record the reference benchmark campaign (resiliency boundary plus
# parallel k-sweep over IEEE 14/30/57, and an IEEE-118 boundary-only
# row) as machine-readable JSON, so successive commits can be compared
# number-by-number. Recorded with preprocessing and the encoding cache,
# one serial search per query. -certify adds a ksweep-certify row per
# system (the §R3 certification-overhead ablation) while leaving the
# base rows uncertified and comparable to earlier records.
# The record also carries the mutation-storm rows (mutate-incremental
# vs mutate-cold on IEEE-57): the delta-aware re-verification headline.
# BENCH_pr2.json is the retained pre-preprocessing baseline,
# BENCH_pr5.json the pre-galloping-boundary-search one,
# BENCH_pr6.json the last pre-certification record, and
# BENCH_pr9.json the last record before the delta cache.
bench-record:
	$(GO) run ./cmd/scada-bench -record BENCH_pr10.json -inputs 1 -runs 2 -maxk 4 -presimplify -certify

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
