// Package scadaver is a formal security and resiliency verifier for
// SCADA systems in smart grids, reproducing "Formal Analysis for
// Dependable Supervisory Control and Data Acquisition in Smart Grids"
// (DSN 2016).
//
// The verifier takes a SCADA configuration — the power-system
// measurement Jacobian, the communication topology of IEDs, RTUs,
// routers and the MTU, per-link protocol and cryptographic profiles —
// plus a resiliency specification, encodes the analysis as a
// constraint-satisfaction problem, and decides it with the built-in
// CDCL SAT engine: a satisfiable query yields a threat vector (a set of
// device failures that breaks the property), an unsatisfiable one
// certifies the specification. Three properties are supported:
// k-resilient observability, k-resilient secured observability, and
// (k,r)-resilient bad-data detectability.
//
// This package is the public facade; it re-exports the library's
// primary API from the internal packages. Typical use:
//
//	cfg, err := scadaver.ParseConfigFile("system.scada")
//	analyzer, err := scadaver.NewAnalyzer(cfg)
//	res, err := analyzer.Verify(scadaver.Query{
//		Property: scadaver.Observability, K1: 1, K2: 1,
//	})
//	if !res.Resilient() {
//		fmt.Println("threat vector:", res.Vector)
//	}
package scadaver

import (
	"io"
	"os"

	"scadaver/internal/core"
	"scadaver/internal/faultinject"
	"scadaver/internal/hardening"
	"scadaver/internal/lint"
	"scadaver/internal/obs"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/secpolicy"
	"scadaver/internal/synth"
)

// Core verification API.
type (
	// Analyzer verifies resiliency specifications of one configuration.
	Analyzer = core.Analyzer
	// Query selects a property and a failure budget.
	Query = core.Query
	// Result is one verification outcome.
	Result = core.Result
	// ThreatVector is a violating set of device failures.
	ThreatVector = core.ThreatVector
	// Property selects the verified dependability property.
	Property = core.Property
	// Option configures an Analyzer.
	Option = core.Option
	// Runner fans independent verifications across a worker pool; each
	// worker owns a private solver, results come back in input order.
	Runner = core.Runner
	// Sweep verifies a failure-budget sweep over one structure: each
	// budget solves on its own clone of the structure's cached snapshot,
	// encoding only the budget's cardinality constraint.
	Sweep = core.Sweep
	// SolverStats are per-solve SAT statistics (decisions, conflicts,
	// propagations, learned clauses, solve time).
	SolverStats = sat.Stats
	// SolverProgress is one solver progress report (see WithProgressEvery).
	SolverProgress = sat.Progress
	// PhaseTimes is the per-phase time breakdown of one verification
	// (build / encode / preprocess / solve / decode).
	PhaseTimes = core.PhaseTimes
	// EncodingCache shares content-addressed, pre-encoded (and
	// optionally pre-simplified) solver snapshots across analyzers; see
	// WithEncodingCache.
	EncodingCache = core.EncodingCache
)

// EncodingVersion identifies the structural CNF encoding scheme; cache
// keys and service enumeration checkpoints embed it so artifacts from
// an older encoding are rejected rather than silently reused.
const EncodingVersion = core.EncodingVersion

// Observability: phase tracing and metrics (see internal/obs).
type (
	// Tracer writes hierarchical spans as JSONL records.
	Tracer = obs.Tracer
	// TraceSpan is one span of a trace; nil spans no-op safely.
	TraceSpan = obs.Span
	// TraceAttr is one key/value annotation on a span or event.
	TraceAttr = obs.Attr
	// MetricsRegistry aggregates counters and duration histograms and
	// exports them as Prometheus text or JSON.
	MetricsRegistry = obs.Registry
)

// NewTracer starts a trace writing JSONL records to w.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// TraceA builds a span attribute.
func TraceA(key string, value any) TraceAttr { return obs.A(key, value) }

// WithTrace records every verification as a span tree (query →
// build/encode/solve/decode) under the given parent span.
func WithTrace(parent *TraceSpan) Option { return core.WithTrace(parent) }

// WithMetrics records per-query counters and phase-duration histograms
// into the registry; safe to share across Runner workers.
func WithMetrics(m *MetricsRegistry) Option { return core.WithMetrics(m) }

// WithProgressEvery sets the solver progress-probe interval in
// conflicts for traced solves (0 restores the default).
func WithProgressEvery(n uint64) Option { return core.WithProgressEvery(n) }

// The verified properties.
const (
	Observability        = core.Observability
	SecuredObservability = core.SecuredObservability
	BadDataDetectability = core.BadDataDetectability
)

// Configuration model.
type (
	// Config is a complete verifier input.
	Config = scadanet.Config
	// Network is the SCADA communication topology.
	Network = scadanet.Network
	// Device is one SCADA device.
	Device = scadanet.Device
	// DeviceID identifies a device.
	DeviceID = scadanet.DeviceID
	// Link is a communication link.
	Link = scadanet.Link
	// BusSystem is a transmission network.
	BusSystem = powergrid.BusSystem
	// MeasurementSet is the measurement model over a bus system.
	MeasurementSet = powergrid.MeasurementSet
	// SecurityPolicy judges cryptographic profiles.
	SecurityPolicy = secpolicy.Policy
	// SynthParams configures synthetic system generation.
	SynthParams = synth.Params
)

// Device kinds.
const (
	IED    = scadanet.IED
	RTU    = scadanet.RTU
	MTU    = scadanet.MTU
	Router = scadanet.Router
)

// NewAnalyzer builds an analyzer over a validated configuration.
func NewAnalyzer(cfg *Config, opts ...Option) (*Analyzer, error) {
	return core.NewAnalyzer(cfg, opts...)
}

// NewRunner returns a parallel verification pool of the given size;
// workers <= 0 selects runtime.GOMAXPROCS(0). The options are applied
// to every analyzer the runner builds.
func NewRunner(workers int, opts ...Option) *Runner { return core.NewRunner(workers, opts...) }

// WithPolicy overrides the default security policy.
func WithPolicy(p *SecurityPolicy) Option { return core.WithPolicy(p) }

// WithConflictBudget bounds every individual solve to n conflicts;
// exceeding it yields an Unsolved result for that query.
func WithConflictBudget(n uint64) Option { return core.WithConflictBudget(n) }

// WithInterrupt installs a cooperative cancellation hook, polled
// periodically during SAT search; returning true abandons the solve.
func WithInterrupt(f func() bool) Option { return core.WithInterrupt(f) }

// NewEncodingCache returns an empty cross-query encoding cache, safe to
// share across analyzers and goroutines.
func NewEncodingCache() *EncodingCache { return core.NewEncodingCache() }

// WithEncodingCache makes the analyzer clone pre-encoded structural
// snapshots from the shared cache instead of re-encoding per query.
// Snapshots are found by a fingerprint memoized on the configuration:
// edit a device's or link's fields (Down, Profiles) on a Clone of the
// configuration, not in place, or the edit goes unseen.
func WithEncodingCache(c *EncodingCache) Option { return core.WithEncodingCache(c) }

// WithPresimplify preprocesses each CNF before search: unit propagation
// to fixpoint, failed-literal probing, subsumption and bounded variable
// elimination. Verdicts are unchanged; searches start smaller.
func WithPresimplify(on bool) Option { return core.WithPresimplify(on) }

// DefaultPolicy returns the paper's Section III-D security policy.
func DefaultPolicy() *SecurityPolicy { return secpolicy.Default() }

// NewNetwork returns an empty SCADA network.
func NewNetwork() *Network { return scadanet.NewNetwork() }

// ParseConfig reads a configuration in the .scada text format.
func ParseConfig(r io.Reader) (*Config, error) { return scadanet.ParseConfig(r) }

// ParseConfigFile reads a .scada configuration from a file.
func ParseConfigFile(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scadanet.ParseConfig(f)
}

// WriteConfig serializes a configuration in the .scada text format.
func WriteConfig(w io.Writer, cfg *Config) error { return scadanet.WriteConfig(w, cfg) }

// CaseStudyConfig builds the paper's Section IV 5-bus case study; fig4
// selects the rewired topology variant.
func CaseStudyConfig(fig4 bool) (*Config, error) { return scadanet.CaseStudyConfig(fig4) }

// BusSystemByName returns an embedded test system: "ieee14", "ieee30",
// "ieee57", "ieee118", or "case5".
func BusSystemByName(name string) (*BusSystem, error) { return powergrid.ByName(name) }

// FullMeasurementSet builds the maximum measurement set of a bus system.
func FullMeasurementSet(sys *BusSystem) *MeasurementSet {
	return powergrid.FullMeasurementSet(sys)
}

// GenerateSCADA builds a synthetic SCADA configuration per the paper's
// evaluation methodology.
func GenerateSCADA(p SynthParams) (*Config, error) { return synth.Generate(p) }

// Hardening synthesis (the paper's future-work direction).
type (
	// HardeningPlan is a synthesized remediation sequence.
	HardeningPlan = hardening.Plan
	// HardeningAction is one remediation step.
	HardeningAction = hardening.Action
	// HardeningOptions tunes the planner.
	HardeningOptions = hardening.Options
)

// Harden synthesizes configuration changes (security-profile upgrades,
// redundant links) that make cfg satisfy the query. The input is not
// modified; the hardened copy is in the returned plan.
func Harden(cfg *Config, q Query, opt HardeningOptions) (*HardeningPlan, error) {
	return hardening.Synthesize(cfg, q, opt)
}

// Misconfiguration linting.
type (
	// LintReport is the result of a configuration lint.
	LintReport = lint.Report
	// LintFinding is one diagnostic.
	LintFinding = lint.Finding
)

// Lint statically checks a configuration for the misconfiguration
// classes the paper identifies (protocol/crypto inconsistencies,
// unreachable devices, missing redundancy). nil policy uses the default.
func Lint(cfg *Config, policy *SecurityPolicy) *LintReport {
	return lint.Check(cfg, policy)
}

// Failures is a concrete contingency for direct evaluation.
type Failures = core.Failures

// Fault tolerance: per-query budgets, partial-results campaigns, panic
// isolation, checkpoint/resume, and deterministic fault injection (see
// DESIGN.md §9).
type (
	// QueryBudget bounds one verification by wall-clock deadline and
	// conflict count, with optional retries under escalating budgets;
	// exhaustion degrades the query to an Unsolved result.
	QueryBudget = core.QueryBudget
	// Outcome pairs a query's result with its isolated error in
	// collect-mode campaigns.
	Outcome = core.Outcome
	// PanicError wraps a panic recovered from a campaign worker,
	// carrying the task index and the worker's stack trace.
	PanicError = core.PanicError
	// Checkpoint is a resumable JSONL campaign journal with atomic
	// flushes and a campaign fingerprint in its header.
	Checkpoint = core.Checkpoint
	// FaultPlan is a deterministic fault-injection plan for
	// chaos-testing campaigns (nil injects nothing).
	FaultPlan = faultinject.Faults
)

// Failure reasons reported on unsolved results.
const (
	ReasonDeadline    = core.ReasonDeadline
	ReasonConflicts   = core.ReasonConflicts
	ReasonInterrupted = core.ReasonInterrupted
)

// Checkpoint kinds.
const (
	CheckpointKindCampaign  = core.CheckpointKindCampaign
	CheckpointKindEnumerate = core.CheckpointKindEnumerate
)

// ErrCheckpointMismatch reports a checkpoint written by a different
// campaign (schema, kind, or fingerprint differs).
var ErrCheckpointMismatch = core.ErrCheckpointMismatch

// ErrBadBudget reports a nonsensical query budget (negative deadline,
// retry count, or escalation factor), rejected at analyzer construction.
var ErrBadBudget = core.ErrBadBudget

// WithBudget bounds every query of the analyzer by the given budget.
func WithBudget(b QueryBudget) Option { return core.WithBudget(b) }

// WithFaults threads a deterministic fault-injection plan through the
// analyzer's solver and campaign hooks; nil is a no-op.
func WithFaults(f *FaultPlan) Option { return core.WithFaults(f) }

// NewFaultPlan returns an empty fault-injection plan derived from seed;
// arm individual faults with its chainable setters.
func NewFaultPlan(seed int64) *FaultPlan { return faultinject.New(seed) }

// OpenCheckpoint opens (or creates) a resumable campaign checkpoint,
// rejecting files whose header does not match kind and fingerprint.
func OpenCheckpoint(path, kind, fingerprint string) (*Checkpoint, error) {
	return core.OpenCheckpoint(path, kind, fingerprint)
}

// CampaignFingerprint derives the checkpoint fingerprint of a campaign
// from its configuration, checkpoint kind, and any extra JSON-encodable
// campaign parameters (for example the query list).
func CampaignFingerprint(cfg *Config, kind string, extra ...any) (string, error) {
	return core.CampaignFingerprint(cfg, kind, extra...)
}
