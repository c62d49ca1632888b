package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"scadaver/internal/faultinject"
	"scadaver/internal/logic"
	"scadaver/internal/obs"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/secpolicy"
)

// Property selects which dependability property a query verifies.
type Property int

// The three resiliency specifications from the paper (Section III-A).
const (
	Observability Property = iota + 1
	SecuredObservability
	BadDataDetectability
)

// String implements fmt.Stringer.
func (p Property) String() string {
	switch p {
	case Observability:
		return "observability"
	case SecuredObservability:
		return "secured-observability"
	case BadDataDetectability:
		return "bad-data-detectability"
	}
	return "unknown"
}

// MarshalJSON renders the property as its name.
func (p Property) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON parses a property name.
func (p *Property) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "observability":
		*p = Observability
	case "secured-observability":
		*p = SecuredObservability
	case "bad-data-detectability":
		*p = BadDataDetectability
	default:
		return fmt.Errorf("core: unknown property %q", s)
	}
	return nil
}

// Query is one resiliency verification request.
type Query struct {
	Property Property `json:"property"`

	// Combined selects the paper's plain k-resiliency (a joint budget of
	// K failures over IEDs and RTUs); otherwise the split (K1, K2) form
	// is used: at most K1 IED and K2 RTU failures.
	Combined bool `json:"combined,omitempty"`
	K        int  `json:"k,omitempty"`
	K1       int  `json:"k1,omitempty"`
	K2       int  `json:"k2,omitempty"`

	// KL additionally allows up to KL communication-link failures (the
	// paper's failure model covers "a link failure toward the device";
	// 0 keeps links reliable).
	KL int `json:"kl,omitempty"`

	// R is the number of simultaneously corrupted measurements tolerated
	// (bad-data detectability only).
	R int `json:"r,omitempty"`
}

// String renders the query compactly, e.g. "(1,1)-resilient
// secured-observability".
func (q Query) String() string {
	if q.Property == BadDataDetectability {
		if q.Combined {
			return fmt.Sprintf("(%d,%d)-resilient %v", q.K, q.R, q.Property)
		}
		return fmt.Sprintf("(%d,%d;r=%d)-resilient %v", q.K1, q.K2, q.R, q.Property)
	}
	if q.Combined {
		return fmt.Sprintf("%d-resilient %v", q.K, q.Property)
	}
	return fmt.Sprintf("(%d,%d)-resilient %v", q.K1, q.K2, q.Property)
}

// ThreatVector is a set of device (and, under a link budget, link)
// failures that violates the queried property within the failure budget.
type ThreatVector struct {
	IEDs  []scadanet.DeviceID `json:"ieds,omitempty"`
	RTUs  []scadanet.DeviceID `json:"rtus,omitempty"`
	Links []scadanet.LinkID   `json:"links,omitempty"`
}

// Size returns the total number of failed elements.
func (v ThreatVector) Size() int { return len(v.IEDs) + len(v.RTUs) + len(v.Links) }

// Devices returns all failed devices, IEDs first, each list sorted.
func (v ThreatVector) Devices() []scadanet.DeviceID {
	out := make([]scadanet.DeviceID, 0, len(v.IEDs)+len(v.RTUs))
	out = append(out, v.IEDs...)
	out = append(out, v.RTUs...)
	return out
}

// String implements fmt.Stringer.
func (v ThreatVector) String() string {
	parts := make([]string, 0, v.Size())
	for _, id := range v.IEDs {
		parts = append(parts, fmt.Sprintf("IED %d", id))
	}
	for _, id := range v.RTUs {
		parts = append(parts, fmt.Sprintf("RTU %d", id))
	}
	for _, id := range v.Links {
		parts = append(parts, fmt.Sprintf("link %d", id))
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Key returns a canonical identity for the vector, for deduplication
// across streams: a resumed enumeration replays its checkpointed
// vectors, so a relay that stitches two streams (the cluster
// coordinator failing an enumeration over to a new owner) drops lines
// whose Key it has already forwarded.
func (v ThreatVector) Key() string { return v.String() }

// key returns a canonical identity for deduplication.
func (v ThreatVector) key() string { return v.Key() }

// PhaseTimes splits one verification into its pipeline phases: building
// the logical model (structure formulas), encoding the query-specific
// constraints to CNF, the SAT solve, and decoding/minimizing the threat
// vector out of a sat model. Phases that did not run (e.g. decode on an
// unsat query) are zero. The paper's evaluation is entirely about where
// this time goes; Result keeps the lump total for compatibility and
// adds this breakdown.
type PhaseTimes struct {
	Build  time.Duration `json:"buildNanos"`
	Encode time.Duration `json:"encodeNanos"`
	// Preprocess is the CNF simplification time (WithPresimplify); for
	// the query that builds a cache snapshot it is the snapshot's one-off
	// Simplify cost, split out of Build. Zero when preprocessing is off
	// or the snapshot came from the cache.
	Preprocess time.Duration `json:"preprocessNanos,omitempty"`
	Solve      time.Duration `json:"solveNanos"`
	Decode     time.Duration `json:"decodeNanos"`

	// Delta-cache accounting (delta-aware EncodingCache only; see
	// DESIGN.md §16). The first query to consume an evolved snapshot
	// claims the mutation's counters, mirroring how the builder query
	// carries the snapshot's one-off preprocessing cost: DeltaReuse
	// constraint groups survived the config delta verbatim,
	// DeltaReencoded were rebuilt inside the dirty cone, and
	// CarriedLearnts learnt clauses passed the RUP carryover gate.
	DeltaReuse     uint64 `json:"deltaReuse,omitempty"`
	DeltaReencoded uint64 `json:"deltaReencoded,omitempty"`
	CarriedLearnts uint64 `json:"carriedLearnts,omitempty"`
}

// Sum returns the total time attributed to phases; the gap to
// Result.Duration is per-query bookkeeping overhead.
func (p PhaseTimes) Sum() time.Duration {
	return p.Build + p.Encode + p.Preprocess + p.Solve + p.Decode
}

// String implements fmt.Stringer.
func (p PhaseTimes) String() string {
	msf := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	s := fmt.Sprintf("build=%.2fms encode=%.2fms solve=%.2fms decode=%.2fms",
		msf(p.Build), msf(p.Encode), msf(p.Solve), msf(p.Decode))
	if p.Preprocess > 0 {
		s += fmt.Sprintf(" preprocess=%.2fms", msf(p.Preprocess))
	}
	if p.DeltaReuse > 0 || p.DeltaReencoded > 0 {
		s += fmt.Sprintf(" delta=%d/%d carried=%d",
			p.DeltaReuse, p.DeltaReuse+p.DeltaReencoded, p.CarriedLearnts)
	}
	return s
}

// Result is the outcome of one verification.
type Result struct {
	Query    Query         `json:"query"`
	Status   sat.Status    `json:"status"` // Sat: threat found; Unsat: resiliency certified
	Vector   *ThreatVector `json:"vector,omitempty"`
	Duration time.Duration `json:"durationNanos"` // total wall time (kept for JSON compatibility)
	Phases   PhaseTimes    `json:"phases"`        // per-phase breakdown of Duration
	Stats    sat.Stats     `json:"stats"`

	// Attempts is the number of solve attempts the query consumed
	// (> 1 when a QueryBudget retried with escalated budgets).
	Attempts int `json:"attempts,omitempty"`
	// FailureReason explains an Unsolved status (ReasonDeadline,
	// ReasonConflicts, ReasonInterrupted, ...); empty for decided
	// queries.
	FailureReason string `json:"failureReason,omitempty"`

	// Certification attestation (WithCertification; see certify.go).
	// Certified reports the verdict was independently checked: a Sat
	// witness re-validated by the direct evaluator and its model by
	// strict evaluation of the query's formulas, an Unsat answer's
	// logged proof replayed through the DRAT proof checker. Quarantined
	// is set when the first audit diverged and the pristine quarantine
	// re-solve produced the reported verdict; CertifyError then records
	// the divergence (and the quarantine's own failure, if any).
	// ProofClauses counts the derived clause additions of the query's
	// derivation: the ones logged on its clone plus those of the
	// snapshot's checked prelude it forked (the whole log when it
	// shares none). ProofReplayed counts the logged proof steps replayed
	// into the checker to certify this verdict: zero for Sat and
	// Unsolved verdicts, which do not rest on the proof, and for an
	// Unsat one the steps the query logged. Audit is the certification
	// overhead, replay included, outside the solve phase.
	Certified     bool          `json:"certified,omitempty"`
	Quarantined   bool          `json:"quarantined,omitempty"`
	CertifyError  string        `json:"certifyError,omitempty"`
	ProofClauses  uint64        `json:"proofClauses,omitempty"`
	ProofReplayed uint64        `json:"proofReplayed,omitempty"`
	Audit         time.Duration `json:"auditNanos,omitempty"`
}

// Resilient reports whether the system satisfies the queried resiliency
// specification (i.e. the threat query is unsatisfiable).
func (r *Result) Resilient() bool { return r.Status == sat.Unsat }

// String summarizes the result.
func (r *Result) String() string {
	var s string
	switch r.Status {
	case sat.Sat:
		s = fmt.Sprintf("%v: VIOLATED — threat vector %v (%.2fms)",
			r.Query, r.Vector, float64(r.Duration.Microseconds())/1000)
	case sat.Unsat:
		s = fmt.Sprintf("%v: HOLDS (%v, %.2fms)",
			r.Query, r.Status, float64(r.Duration.Microseconds())/1000)
	default:
		reason := r.FailureReason
		if reason == "" {
			reason = "budget exhausted"
		}
		s = fmt.Sprintf("%v: UNSOLVED — %s after %d attempt(s) (%.2fms)",
			r.Query, reason, max(r.Attempts, 1), float64(r.Duration.Microseconds())/1000)
	}
	if r.Certified {
		s += " [certified]"
	}
	if r.Quarantined {
		s += " [quarantined]"
	}
	return s
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithPolicy overrides the default security policy.
func WithPolicy(p *secpolicy.Policy) Option {
	return func(a *Analyzer) { a.policy = p }
}

// WithConflictBudget bounds SAT search per query (0 = unlimited); an
// exhausted budget yields Status Unsolved. The budget applies to every
// individual solve: each verification — and each iteration of threat
// enumeration — gets the full budget.
func WithConflictBudget(n uint64) Option {
	return func(a *Analyzer) { a.conflictBudget = n }
}

// WithFaults threads a deterministic fault-injection plan (see
// internal/faultinject) into every solver and campaign hook of this
// analyzer: solver stalls, solve delays, and — when the same options
// reach a Runner — worker panics. A nil plan (the default) injects
// nothing; the option exists so chaos tests exercise the exact
// production code paths, with no build tags.
func WithFaults(f *faultinject.Faults) Option {
	return func(a *Analyzer) { a.faults = f }
}

// WithInterrupt installs a cancellation hook polled by every solver this
// analyzer creates. When it returns true the in-flight solve unwinds and
// the verification reports Status Unsolved. Runner uses this to wire
// context cancellation into workers.
func WithInterrupt(f func() bool) Option {
	return func(a *Analyzer) { a.interrupt = f }
}

// WithTrace nests every verification of this analyzer under the given
// parent span: one "query" span per Verify / Sweep solve, with "build",
// "encode", "solve" and "decode" phase children, and periodic solver
// "progress" events on the solve span. A nil parent (the default)
// disables tracing at the cost of one nil-check per phase.
func WithTrace(parent *obs.Span) Option {
	return func(a *Analyzer) { a.trace = parent }
}

// WithMetrics records per-query counters and phase-duration histograms
// into the registry (see the scadaver_* metric families in README
// "Observability"). The registry is concurrency-safe, so one registry
// may aggregate across all Runner workers and Sweep iterations of a
// campaign. A nil registry (the default) disables metrics.
func WithMetrics(m *obs.Registry) Option {
	return func(a *Analyzer) { a.metrics = m }
}

// DefaultProgressEvery is the solver progress-probe interval (in
// conflicts) used by traced verifications when none is configured.
const DefaultProgressEvery = 4096

// WithProgressEvery sets how many solver conflicts pass between
// "progress" trace events during a solve (0 keeps
// DefaultProgressEvery). Progress events only fire when tracing is
// enabled via WithTrace.
func WithProgressEvery(n uint64) Option {
	return func(a *Analyzer) { a.progressEvery = n }
}

// Analyzer verifies resiliency specifications of one SCADA
// configuration. It is not safe for concurrent use; create one analyzer
// per goroutine (see Runner, which enforces exactly that ownership
// rule). The underlying configuration is only ever read, so any number
// of analyzers may share one Config concurrently.
type Analyzer struct {
	cfg            *scadanet.Config
	policy         *secpolicy.Policy
	conflictBudget uint64
	interrupt      func() bool
	budget         QueryBudget
	faults         *faultinject.Faults

	// Formula preprocessing and the cross-query encoding cache (see
	// codecache.go). encFP memoizes the analyzer's share of the cache
	// key; it is derived state, not configuration.
	presimplify bool
	cache       *EncodingCache
	encFP       string

	// Verdict certification (see certify.go).
	certify bool

	// Observability (all optional; nil = disabled). qs is the live
	// registry entry of the query currently being verified (analyzers
	// are single-goroutine, so one slot suffices); see flight.go.
	trace         *obs.Span
	metrics       *obs.Registry
	queries       *obs.QueryRegistry
	qs            *obs.QueryState
	progressEvery uint64

	// Derived, computed once.
	fieldIEDs []*scadanet.Device
	fieldRTUs []*scadanet.Device
	// failures holds ¬Node for every field device not already Down,
	// the first failIEDs of them IEDs: the failure budget's operands.
	failures  []*logic.Formula
	failIEDs  int
	stateSets [][]int
	groups    [][]int
	senders   map[int][]scadanet.DeviceID // measurement (1-based) -> IEDs
	// hops memoizes every link's static usability (see hopJudgements).
	hops map[scadanet.LinkID]hopJudgement
}

// Verification errors.
var (
	ErrNoFieldDevices = errors.New("core: configuration has no field devices")
	ErrBadQuery       = errors.New("core: invalid query")
)

// NewAnalyzer builds an analyzer over a validated configuration.
func NewAnalyzer(cfg *scadanet.Config, opts ...Option) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a := &Analyzer{
		cfg:    cfg,
		policy: secpolicy.Default(),
	}
	for _, o := range opts {
		o(a)
	}
	if a.cache == nil {
		a.cache = NewEncodingCache()
	}
	if err := a.budget.Validate(); err != nil {
		return nil, err
	}
	a.fieldIEDs = cfg.Net.DevicesOfKind(scadanet.IED)
	a.fieldRTUs = cfg.Net.DevicesOfKind(scadanet.RTU)
	if len(a.fieldIEDs)+len(a.fieldRTUs) == 0 {
		return nil, ErrNoFieldDevices
	}
	fail := func(devs []*scadanet.Device) {
		for _, d := range devs {
			if !d.Down {
				a.failures = append(a.failures, logic.Not(nodeVar(d.ID)))
			}
		}
	}
	fail(a.fieldIEDs)
	a.failIEDs = len(a.failures)
	fail(a.fieldRTUs)
	a.stateSets = cfg.Msrs.StateSets()
	a.groups = cfg.Msrs.UniqueGroups()
	a.senders = make(map[int][]scadanet.DeviceID)
	for _, d := range a.fieldIEDs {
		for _, z := range cfg.Net.MeasurementsOf(d.ID) {
			a.senders[z] = append(a.senders[z], d.ID)
		}
	}
	return a, nil
}

// Config returns the analyzed configuration.
func (a *Analyzer) Config() *scadanet.Config { return a.cfg }

// Policy returns the active security policy.
func (a *Analyzer) Policy() *secpolicy.Policy { return a.policy }

func validateQuery(q Query) error {
	switch q.Property {
	case Observability, SecuredObservability, BadDataDetectability:
	default:
		return fmt.Errorf("%w: unknown property %d", ErrBadQuery, int(q.Property))
	}
	if q.Combined && q.K < 0 {
		return fmt.Errorf("%w: negative K", ErrBadQuery)
	}
	if !q.Combined && (q.K1 < 0 || q.K2 < 0) {
		return fmt.Errorf("%w: negative K1/K2", ErrBadQuery)
	}
	if q.KL < 0 {
		return fmt.Errorf("%w: negative KL", ErrBadQuery)
	}
	if q.Property == BadDataDetectability && q.R < 0 {
		return fmt.Errorf("%w: negative R", ErrBadQuery)
	}
	return nil
}

// Verify runs one threat query: it searches for a failure set within the
// budget that violates the property. Sat means the specification is
// violated and Result.Vector holds a minimized threat vector; Unsat
// certifies the specification.
//
// Every query takes the same path: clone the cached structural snapshot
// for the query's property, R and KL, then put the failure budget on
// the private clone and solve. The snapshot and its clone are
// deterministic, so a query's verdict and witness do not depend on which
// analyzer, worker or sweep asks it.
//
// The verification is split into four observed phases — build (the
// snapshot clone, or on a cache miss the structural model: configuration
// constraints, delivery definitions and the negated property), encode
// (the query's failure budget), solve, and decode (threat-vector
// extraction and minimization) — reported in Result.Phases and, when
// tracing is on, as child spans of the query span. A cancelled solve
// (interrupt hook) still closes every span on the normal return path.
func (a *Analyzer) Verify(q Query) (*Result, error) {
	res, _, err := a.verify(q)
	return res, err
}

// verify is Verify, also returning the query's certification context
// (nil when certification is off).
func (a *Analyzer) verify(q Query) (*Result, *certState, error) {
	if err := validateQuery(q); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	qspan := a.startQuerySpan(q)
	defer qspan.End()
	qs := a.beginQuery(q, "build")
	defer func() {
		if r := recover(); r != nil {
			a.panicQuery(qs, r)
			panic(r)
		}
	}()

	// Clone the shared structural snapshot (built and, under
	// presimplify, simplified exactly once per structure) and solve with
	// the failure budget on the private clone. A certified query forks
	// the snapshot's prelude checker (see forkCertify).
	var ph PhaseTimes
	sp := qspan.Start("build")
	t0 := time.Now()
	budget := a.budgetFormula(q)
	enc, built, entry, err := a.snapshot(q, budget, a.certify, sp, qs)
	if err != nil {
		sp.End()
		a.completeQuery(qs, qspan, "error", err.Error())
		return nil, nil, err
	}
	var cert *certState
	if a.certify {
		enc, cert = a.forkCertify(q, entry, enc, sp, qs)
	}
	ph.Build = time.Since(t0)
	if built {
		preprocessPhase(&ph, entry.pre)
	}
	sp.End()

	qs.SetPhase("encode")
	sp = qspan.Start("encode")
	t0 = time.Now()
	var assumptions []*logic.Formula
	if a.presimplify && entry.delta.Load() != nil {
		// Delta snapshot: the clone is private, so the budget can be
		// ASSERTED rather than assumed — and that is what makes the
		// cheap preprocessing below possible. Under an assumption the
		// budget's clauses stay guarded and root probing cannot fire
		// them; asserted, specializing and probing the combined
		// formula derives the same interface facts a cold
		// presimplified encode gets from its full Simplify, which is
		// what lets the solve finish at propagation depth.
		enc.Assert(budget)
		ph.Encode = time.Since(t0)
		sp.End()
		qs.SetPhase("preprocess")
		sp = qspan.Start("preprocess")
		t0 = time.Now()
		enc.Solver().ReduceRoot()
		enc.Solver().ProbeRoot(queryProbeLimit)
		// Add, not assign: a building query already holds the
		// snapshot's Simplify here (preprocessPhase).
		ph.Preprocess += time.Since(t0)
		sp.End()
	} else {
		assumptions = append(assumptions, budget)
		ph.Encode = time.Since(t0)
		sp.End()
	}

	qs.SetPhase("solve")
	sp = qspan.Start("solve")
	a.armProgress(enc, sp)
	t0 = time.Now()
	out := a.solveBudgeted(q, enc, sp, assumptions...)
	status := a.corruptStatus(out.status)
	ph.Solve = time.Since(t0)
	a.disarmProgress(enc)
	stats := enc.Solver().Stats()
	if built {
		// The builder query carries the snapshot's one-time preprocessing
		// counters so campaign sums account for the work exactly once.
		addPreprocessStats(&stats, entry.pre)
	}
	if st := entry.delta.Load(); st != nil {
		// Feed this solve's learnt clauses back into the lineage's
		// carryover stash (bounded to the snapshot's own variables so a
		// budget-counter auxiliary never leaks across generations) and
		// let the first query on an evolved snapshot claim the
		// mutation's accounting.
		st.harvest(enc, entry.harvestMax)
	}
	if ms, ok := entry.claimDelta(); ok {
		ph.DeltaReuse += ms.DeltaReuse
		ph.DeltaReencoded += ms.DeltaReencoded
		ph.CarriedLearnts += ms.CarriedLearnts
	}
	sp.Annotate(obs.A("status", status.String()), obs.A("conflicts", stats.Conflicts),
		obs.A("attempts", out.attempts))
	sp.End()

	res := &Result{
		Query:         q,
		Status:        status,
		Stats:         stats,
		Attempts:      out.attempts,
		FailureReason: out.reason,
	}
	if status == sat.Sat {
		qs.SetPhase("decode")
		sp = qspan.Start("decode")
		t0 = time.Now()
		v := a.extractVector(q, enc)
		v = a.minimizeVector(q, v)
		if a.faults.CorruptModelNow() {
			a.corruptVector(&v)
		}
		ph.Decode = time.Since(t0)
		sp.End()
		res.Vector = &v
	}
	if cert != nil {
		qs.SetPhase("certify")
		sp = qspan.Start("certify")
		// The budget was assumed, not asserted, so an Unsat is certified
		// by RUP-ness of its negated budget literal.
		var alits []sat.Lit
		if status == sat.Unsat {
			for _, f := range assumptions {
				alits = append(alits, enc.Implying(f))
			}
		}
		a.certifyResult(q, enc, cert, alits, res)
		sp.Annotate(obs.A("certified", res.Certified), obs.A("replayed", res.ProofReplayed))
		sp.End()
	}
	res.Phases = ph
	res.Duration = time.Since(start)
	qspan.Annotate(obs.A("status", res.Status.String()))
	a.recordMetrics(res)
	a.completeQuery(qs, qspan, res.Status.String(), res.FailureReason)
	return res, cert, nil
}

// budgetLabel renders the failure budget for span attributes and metric
// labels: "k=2" for combined budgets, "k1=1,k2=1" for split ones, with
// the link and corrupted-measurement budgets appended when set.
func budgetLabel(q Query) string {
	var s string
	if q.Combined {
		s = fmt.Sprintf("k=%d", q.K)
	} else {
		s = fmt.Sprintf("k1=%d,k2=%d", q.K1, q.K2)
	}
	if q.KL > 0 {
		s += fmt.Sprintf(",kl=%d", q.KL)
	}
	if q.Property == BadDataDetectability {
		s += fmt.Sprintf(",r=%d", q.R)
	}
	return s
}

// startQuerySpan opens the per-verification span (nil when tracing is
// disabled; all span operations then no-op).
func (a *Analyzer) startQuerySpan(q Query) *obs.Span {
	if a.trace == nil {
		return nil
	}
	return a.trace.Start("query",
		obs.A("property", q.Property.String()),
		obs.A("budget", budgetLabel(q)))
}

// armProgress wires the solver's progress probe to "progress" events on
// the given solve span and to the live query registry entry, so long
// searches report conflicts/decisions/propagations/restarts and the
// learnt-DB size while they run. With a registry armed it also installs
// the solver event hook feeding the flight recorder (restarts, DB
// reductions). Callers must clear both via disarmProgress after the
// solve so a probe never outlives its span on a reused solver. With
// neither tracing nor a registry armed nothing is installed, keeping
// the disabled cost at the solver's usual nil-checks.
func (a *Analyzer) armProgress(enc *logic.Encoder, solveSpan *obs.Span) {
	qs := a.qs
	if solveSpan == nil && qs == nil {
		return
	}
	every := a.progressEvery
	if every == 0 {
		every = DefaultProgressEvery
	}
	enc.Solver().SetProgress(every, func(p sat.Progress) {
		qs.Progress(p.Conflicts, p.Decisions, p.Propagations, p.Restarts, p.Reduces, p.LearntDB)
		if solveSpan == nil {
			return
		}
		solveSpan.Event("progress",
			obs.A("conflicts", p.Conflicts),
			obs.A("decisions", p.Decisions),
			obs.A("propagations", p.Propagations),
			obs.A("restarts", p.Restarts),
			obs.A("learntDB", p.LearntDB))
	})
	if qs != nil {
		enc.Solver().SetEventHook(func(e sat.Event) {
			// Restarts fire far more often than the progress probe's
			// cadence, so piggyback the hot counters on each event: the
			// live view then tracks conflicts at restart granularity
			// even when the probe cadence is coarse.
			qs.Progress(e.Conflicts, e.Decisions, e.Propagations, e.Restarts, e.Reduces, e.LearntDB)
			qs.Record(e.Kind.String(), fmt.Sprintf("learnt=%d", e.LearntDB), e.Conflicts)
		})
	}
}

// disarmProgress clears the probe and event hook armed by armProgress.
func (a *Analyzer) disarmProgress(enc *logic.Encoder) {
	enc.Solver().SetProgress(0, nil)
	enc.Solver().SetEventHook(nil)
}

// recordMetrics aggregates one finished verification into the metrics
// registry. Result.Stats is the query's own solve on its private clone,
// so the solver counters stay attributable to individual queries.
func (a *Analyzer) recordMetrics(res *Result) {
	m := a.metrics
	if m == nil {
		return
	}
	prop := res.Query.Property.String()
	m.Inc("scadaver_queries_total", map[string]string{
		"property": prop,
		"k":        budgetLabel(res.Query),
		"status":   res.Status.String(),
	})
	for _, phase := range []struct {
		name string
		d    time.Duration
	}{
		{"build", res.Phases.Build},
		{"encode", res.Phases.Encode},
		{"solve", res.Phases.Solve},
		{"decode", res.Phases.Decode},
	} {
		m.ObserveDuration("scadaver_phase_seconds",
			map[string]string{"phase": phase.name, "property": prop}, phase.d)
	}
	pl := map[string]string{"property": prop}
	m.Add("scadaver_solver_conflicts_total", pl, float64(res.Stats.Conflicts))
	m.Add("scadaver_solver_decisions_total", pl, float64(res.Stats.Decisions))
	m.Add("scadaver_solver_propagations_total", pl, float64(res.Stats.Propagations))
	// Preprocessing series only appear on queries that actually ran (or
	// built) a Simplify pass, so dashboards of non-preprocessing
	// deployments stay unchanged.
	if res.Phases.Preprocess > 0 {
		m.ObserveDuration("scadaver_phase_seconds",
			map[string]string{"phase": "preprocess", "property": prop}, res.Phases.Preprocess)
	}
	if res.Stats.SimplifyTime > 0 {
		m.Add("scadaver_sat_elim_vars_total", pl, float64(res.Stats.ElimVars))
		m.ObserveDuration("scadaver_sat_simplify_seconds", pl, res.Stats.SimplifyTime)
	}
}

// nodeVar names the availability term of a field device.
func nodeVar(id scadanet.DeviceID) *logic.Formula { return logic.Vf("Node_%d", id) }

// linkVar names the status term of a link.
func linkVar(id scadanet.LinkID) *logic.Formula { return logic.Vf("Link_%d", id) }

// pairVar names the protocol/crypto pairing judgement of a link.
func pairVar(id scadanet.LinkID) *logic.Formula { return logic.Vf("Pair_%d", id) }

// secVar names the Authenticated ∧ IntegrityProtected judgement of a
// link (secured properties only).
func secVar(id scadanet.LinkID) *logic.Formula { return logic.Vf("Sec_%d", id) }

// reachVar names the reach term of a forwarder (RTU or router): at or
// above "its traffic reaches the MTU" in every model (deliveryNet).
func reachVar(id scadanet.DeviceID) *logic.Formula { return logic.Vf("Reach_%d", id) }

// delVar names the delivery term of an IED: AssuredDelivery_I, or
// SecuredDelivery_I in a secured encoding.
func delVar(id scadanet.DeviceID) *logic.Formula { return logic.Vf("Del_%d", id) }

// encode builds the full SMT-style model of the query from scratch:
// configuration constraints, the delivery/observability definitions,
// the failure budget, and the negated property as the goal, with proof
// (nil: none) armed from the first clause. No query solves on it;
// certification's quarantine re-solves on it, because it shares
// nothing with the cache or preprocessing.
func (a *Analyzer) encode(q Query, proof sat.ProofWriter) *logic.Encoder {
	enc, delivered := a.encodeStructure(q, proof)
	enc.Assert(a.budgetFormula(q))
	enc.Assert(a.violationFormula(q, delivered))
	return enc
}

// encodeStructure builds the query-independent part of the model — the
// configuration constraints and the delivery definitions — and returns
// the encoder together with the per-measurement delivered terms. Only
// the property family (plain vs secured) and the link budget of q are
// consulted; the failure budget and the goal are NOT asserted, which is
// what lets one snapshot serve every budget. A non-nil proof is armed on
// the fresh solver before any clause is asserted: logic.Encoder encodes
// eagerly, so a later hook would miss input clauses.
func (a *Analyzer) encodeStructure(q Query, proof sat.ProofWriter) (*logic.Encoder, []*logic.Formula) {
	asserted, delivered := a.structureFormulas(q)
	enc := logic.NewEncoder()
	if proof != nil {
		enc.Solver().SetProofHook(proof)
	}
	for _, f := range asserted {
		enc.Assert(f)
	}
	return enc, delivered
}

// structureFormulas builds the formulas encodeStructure asserts, in the
// order it asserts them — the order fixes the CNF's variable numbering
// and clause order — together with the per-measurement delivered terms
// (1-based index). The Sat audit evaluates the same list under the
// solver's model (auditModel).
func (a *Analyzer) structureFormulas(q Query) (asserted, delivered []*logic.Formula) {
	asserted = a.configFormulas(q)
	for _, g := range a.deliveryNet(q.Property != Observability) {
		asserted = append(asserted, g.form)
	}
	return asserted, a.deliveredTerms()
}

// configFormulas builds the configuration constraints of the structure:
// device availability, link status and the static per-hop judgements.
func (a *Analyzer) configFormulas(q Query) (asserted []*logic.Formula) {
	secured := q.Property != Observability

	// Device availability: statically down devices are fixed; the MTU
	// and routers are assumed available (the paper's failure model
	// covers IEDs and RTUs).
	for _, d := range append(append([]*scadanet.Device(nil), a.fieldIEDs...), a.fieldRTUs...) {
		if d.Down {
			asserted = append(asserted, logic.Not(nodeVar(d.ID)))
		}
	}
	// Link status. Under a link-failure budget (KL > 0) healthy links
	// are left free and their failures counted; otherwise they are
	// fixed up.
	var linkFailures []*logic.Formula
	for _, l := range a.cfg.Net.Links() {
		switch {
		case l.Down:
			asserted = append(asserted, logic.Not(linkVar(l.ID)))
		case q.KL > 0:
			linkFailures = append(linkFailures, logic.Not(linkVar(l.ID)))
		default:
			asserted = append(asserted, linkVar(l.ID))
		}
	}
	if q.KL > 0 {
		asserted = append(asserted, logic.AtMost(q.KL, linkFailures...))
	}

	// Static per-hop configuration judgements are encoded as named
	// terms fixed to their configured truth values, as in the paper's
	// model (CommProtoPairing/CryptoPropPairing, and for the secured
	// properties Authenticated/IntegrityProtected). This keeps the
	// secured model strictly larger than the plain one — the effect the
	// paper observes in Fig. 5(b).
	hops := a.hopJudgements()
	for _, l := range a.cfg.Net.Links() {
		h := hops[l.ID]
		asserted = append(asserted, logic.Iff(pairVar(l.ID), logic.Const(h.paired())))
		if secured {
			asserted = append(asserted, logic.Iff(secVar(l.ID), logic.Const(h.secOK)))
		}
	}
	return asserted
}

// hopJudgement is the static usability of one link: the paper's
// CommProtoPairing and CryptoPropPairing hop conditions, and whether the
// hop authenticates and protects integrity under the analyzer's policy
// (the secured properties' extra condition).
type hopJudgement struct {
	protoOK, cryptoOK, secOK bool
}

// paired reports whether both pairing conditions hold.
func (h hopJudgement) paired() bool { return h.protoOK && h.cryptoOK }

// hopJudgements returns the judgement of every link of the
// configuration, computed on first use: the judgements depend only on
// the configuration and the policy, and the encoders and the direct
// evaluator all read them from here.
func (a *Analyzer) hopJudgements() map[scadanet.LinkID]hopJudgement {
	if a.hops == nil {
		links := a.cfg.Net.Links()
		a.hops = make(map[scadanet.LinkID]hopJudgement, len(links))
		for _, l := range links {
			protoOK, cryptoOK := a.cfg.Net.HopPairing(l)
			a.hops[l.ID] = hopJudgement{
				protoOK:  protoOK,
				cryptoOK: cryptoOK,
				secOK:    a.cfg.Net.HopCaps(l, a.policy).Has(secpolicy.Authenticates | secpolicy.IntegrityProtects),
			}
		}
	}
	return a.hops
}

// deliveredTerms returns D_Z / S_Z by 1-based measurement index:
// measurement Z is delivered (securely, in a secured encoding) by at
// least one transmitting IED.
func (a *Analyzer) deliveredTerms() []*logic.Formula {
	delivered := make([]*logic.Formula, a.cfg.Msrs.Len()+1)
	for z := 1; z <= a.cfg.Msrs.Len(); z++ {
		var alts []*logic.Formula
		for _, ied := range a.senders[z] {
			alts = append(alts, delVar(ied))
		}
		delivered[z] = logic.Or(alts...) // False when unassigned
	}
	return delivered
}

// netGroup is one group of the delivery encoding: the reach clauses
// into one forwarder (key reach:<id>) or the delivery definition of one
// IED (key del:<id>), with a signature over the incident links it is
// built from and the named variable it defines.
type netGroup struct {
	key, sig, named string
	form            *logic.Formula
}

// deliveryNet encodes AssuredDelivery_I (or SecuredDelivery_I, when
// secured) for every IED over one reach net that all IEDs share
// (DESIGN.md §5, "Delivery"). A hop over link l is usable when
// Link_l ∧ Pair_l (∧ Sec_l, secured) holds.
//
//   - Forwarders (RTUs and routers) may form a cyclic mesh, so they get
//     only the "if" direction of reachability: for each link l from u
//     into forwarder v, the Horn clause
//     ¬Node_v ∨ ¬Link_l ∨ ¬Pair_l [∨ ¬Sec_l] ∨ ¬Reach_u ∨ Reach_v, where
//     Node_v appears only for field devices and Reach_MTU is true.
//   - IEDs never forward, so their level is defined exactly:
//     Del_I ↔ Node_I ∧ ∨_l (Link_l ∧ Pair_l [∧ Sec_l] ∧ Reach_u) over
//     I's links to forwarders and the MTU.
//
// Every violation formula is antitone in delivery, and a model's Reach
// values lie at or above the least fixpoint — the true reachability —
// so its Del values are at or above true delivery: a Sat verdict is a
// real threat. The least fixpoint satisfies every clause, so an Unsat
// verdict is real too. Groups come in device-ID order, the clauses of
// a forwarder in link order; a forwarder with no clauses has no group.
func (a *Analyzer) deliveryNet(secured bool) []netGroup {
	net := a.cfg.Net
	mtu := net.MTUID()
	incident := make(map[scadanet.DeviceID][]*scadanet.Link)
	for _, l := range net.Links() {
		incident[l.A] = append(incident[l.A], l)
		incident[l.B] = append(incident[l.B], l)
	}
	hop := func(l *scadanet.Link) []*logic.Formula {
		if secured {
			return []*logic.Formula{linkVar(l.ID), pairVar(l.ID), secVar(l.ID)}
		}
		return []*logic.Formula{linkVar(l.ID), pairVar(l.ID)}
	}
	var groups []netGroup
	for _, d := range net.Devices() {
		if d.Kind == scadanet.MTU {
			continue
		}
		var forms []*logic.Formula
		var sig strings.Builder
		for _, l := range incident[d.ID] {
			u := l.Other(d.ID)
			if net.Device(u).Kind == scadanet.IED {
				continue // IEDs do not forward
			}
			fmt.Fprintf(&sig, "%d>%d;", l.ID, u)
			terms := hop(l)
			if u != mtu {
				terms = append(terms, reachVar(u))
			}
			if d.Kind == scadanet.IED {
				forms = append(forms, logic.And(terms...))
				continue
			}
			var clause []*logic.Formula
			if d.FieldDevice() {
				clause = append(clause, logic.Not(nodeVar(d.ID)))
			}
			for _, t := range terms {
				clause = append(clause, logic.Not(t))
			}
			forms = append(forms, logic.Or(append(clause, reachVar(d.ID))...))
		}
		if d.Kind == scadanet.IED {
			groups = append(groups, netGroup{
				key:   fmt.Sprintf("del:%d", d.ID),
				sig:   sig.String(),
				named: fmt.Sprintf("Del_%d", d.ID),
				form:  logic.Iff(delVar(d.ID), logic.And(nodeVar(d.ID), logic.Or(forms...))),
			})
		} else if len(forms) > 0 {
			groups = append(groups, netGroup{
				key:   fmt.Sprintf("reach:%d", d.ID),
				sig:   sig.String(),
				named: fmt.Sprintf("Reach_%d", d.ID),
				form:  logic.And(forms...),
			})
		}
	}
	return groups
}

// budgetFormula encodes the failure budget: the number of additionally
// unavailable devices stays within the specification. Devices already
// marked Down in the configuration are existing contingencies and do not
// consume budget.
func (a *Analyzer) budgetFormula(q Query) *logic.Formula {
	if q.Combined {
		return logic.AtMost(q.K, a.failures...)
	}
	return logic.And(
		logic.AtMost(q.K1, a.failures[:a.failIEDs]...),
		logic.AtMost(q.K2, a.failures[a.failIEDs:]...),
	)
}

// violationFormula encodes the negated property over the delivered-
// measurement terms (1-based index).
func (a *Analyzer) violationFormula(q Query, delivered []*logic.Formula) *logic.Formula {
	n := a.cfg.Msrs.NStates
	switch q.Property {
	case Observability, SecuredObservability:
		// ¬Obs: some state uncovered, or fewer than n unique delivered
		// measurements.
		var uncovered []*logic.Formula
		for x := 0; x < n; x++ {
			var covers []*logic.Formula
			for z := 1; z <= a.cfg.Msrs.Len(); z++ {
				if containsInt(a.stateSets[z-1], x) {
					covers = append(covers, delivered[z])
				}
			}
			uncovered = append(uncovered, logic.Not(logic.Or(covers...)))
		}
		unique := make([]*logic.Formula, len(a.groups))
		for e, group := range a.groups {
			var any []*logic.Formula
			for _, z0 := range group {
				any = append(any, delivered[z0+1])
			}
			unique[e] = logic.Or(any...)
		}
		return logic.Or(logic.Or(uncovered...), logic.AtMost(n-1, unique...))
	case BadDataDetectability:
		// ¬Detectable: some state is securely covered by at most R
		// measurements (fewer than R+1), so R corrupted measurements can
		// hide bad data on it.
		var weak []*logic.Formula
		for x := 0; x < n; x++ {
			var covers []*logic.Formula
			for z := 1; z <= a.cfg.Msrs.Len(); z++ {
				if containsInt(a.stateSets[z-1], x) {
					covers = append(covers, delivered[z])
				}
			}
			weak = append(weak, logic.AtMost(q.R, covers...))
		}
		return logic.Or(weak...)
	}
	return logic.False()
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// extractVector reads the failed devices and links out of a sat model.
func (a *Analyzer) extractVector(q Query, enc *logic.Encoder) ThreatVector {
	var v ThreatVector
	for _, d := range a.fieldIEDs {
		if enc.Value(fmt.Sprintf("Node_%d", d.ID)) == sat.False {
			v.IEDs = append(v.IEDs, d.ID)
		}
	}
	for _, d := range a.fieldRTUs {
		if enc.Value(fmt.Sprintf("Node_%d", d.ID)) == sat.False {
			v.RTUs = append(v.RTUs, d.ID)
		}
	}
	if q.KL > 0 {
		for _, l := range a.cfg.Net.Links() {
			if l.Down {
				continue // an existing contingency, not part of the vector
			}
			if enc.Value(fmt.Sprintf("Link_%d", l.ID)) == sat.False {
				v.Links = append(v.Links, l.ID)
			}
		}
	}
	sortIDs(v.IEDs)
	sortIDs(v.RTUs)
	sortLinkIDs(v.Links)
	return v
}

// minimizeVector greedily removes failures that are not needed for the
// violation, using the direct evaluator, so reported vectors are
// (inclusion-)minimal and easier to act on.
func (a *Analyzer) minimizeVector(q Query, v ThreatVector) ThreatVector {
	f := Failures{
		Devices: map[scadanet.DeviceID]bool{},
		Links:   map[scadanet.LinkID]bool{},
	}
	for _, id := range v.Devices() {
		f.Devices[id] = true
	}
	for _, id := range v.Links {
		f.Links[id] = true
	}
	for _, id := range v.Devices() {
		f.Devices[id] = false
		if a.violatedUnder(q, f) {
			delete(f.Devices, id) // not needed
		} else {
			f.Devices[id] = true // needed
		}
	}
	for _, id := range v.Links {
		f.Links[id] = false
		if a.violatedUnder(q, f) {
			delete(f.Links, id)
		} else {
			f.Links[id] = true
		}
	}
	var out ThreatVector
	for _, d := range a.fieldIEDs {
		if f.Devices[d.ID] {
			out.IEDs = append(out.IEDs, d.ID)
		}
	}
	for _, d := range a.fieldRTUs {
		if f.Devices[d.ID] {
			out.RTUs = append(out.RTUs, d.ID)
		}
	}
	for _, id := range v.Links {
		if f.Links[id] {
			out.Links = append(out.Links, id)
		}
	}
	sortIDs(out.IEDs)
	sortIDs(out.RTUs)
	sortLinkIDs(out.Links)
	return out
}

// violatedUnder evaluates the property directly (no SAT) under a
// concrete failure set.
func (a *Analyzer) violatedUnder(q Query, f Failures) bool {
	switch q.Property {
	case Observability:
		return !a.EvalObservabilityUnder(f, false)
	case SecuredObservability:
		return !a.EvalObservabilityUnder(f, true)
	case BadDataDetectability:
		return !a.EvalBadDataDetectabilityUnder(f, q.R)
	}
	return false
}

func sortLinkIDs(ids []scadanet.LinkID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func sortIDs(ids []scadanet.DeviceID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
