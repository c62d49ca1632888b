package core

import (
	"encoding/json"
	"fmt"
	"time"

	"scadaver/internal/logic"
	"scadaver/internal/obs"
	"scadaver/internal/sat"
)

// Sweep verifies a family of queries that differ only in their failure
// budget over one topology, reusing the structural encoding. The
// configuration constraints, the delivery definitions and the negated
// property are encoded once; each VerifyK / VerifySplit call then adds
// only the cardinality constraint for its budget and solves it as an
// assumption, so the SAT core keeps its variables, saved phases and
// learned clauses across the whole sweep instead of rebuilding the CNF
// from scratch per k. This is the fast path behind MaxResiliency and
// MaxResiliencyCombined.
//
// Result.Stats of a sweep verification is the per-solve delta (via
// sat.Stats.Sub), so instrumentation stays attributable to individual
// queries even though the solver is shared across the sweep.
//
// A Sweep borrows its Analyzer and is subject to the same ownership
// rule: one goroutine at a time (see Runner).
type Sweep struct {
	a    *Analyzer
	enc  *logic.Encoder
	prop Property
	r    int
	kl   int

	// cert is the shared certification context of a certified sweep
	// (nil otherwise): one proof log and one checker cover the whole
	// sweep, each per-k Unsat catches the checker up with the steps
	// logged since the previous one, and is certified via RUP-ness of
	// its negated budget assumption (see certify.go).
	cert *certState
}

// NewSweep prepares a reusable encoding of the property — with the fixed
// corrupted-measurement budget r and link budget kl — for repeated
// verification under varying device-failure budgets. With an encoding
// cache configured the sweep starts from a clone of the shared (and,
// under presimplify, pre-simplified) structural snapshot; otherwise it
// encodes the structure itself, preprocessing it when presimplify is on.
// Either way, per-k budgets stay assumptions on the sweep's private
// encoder. A certified sweep on a snapshot forks the snapshot's prelude
// checker, as Verify does — at its first Unsat budget — and encodes
// afresh when the snapshot shares none.
func (a *Analyzer) NewSweep(p Property, r, kl int) (*Sweep, error) {
	probe := Query{Property: p, Combined: true, K: 0, R: r, KL: kl}
	if err := validateQuery(probe); err != nil {
		return nil, err
	}
	sw := &Sweep{a: a, prop: p, r: r, kl: kl}
	if a.usesSnapshots() {
		enc, _, entry, err := a.snapshot(probe, a.certify, nil, nil)
		if err != nil {
			return nil, err
		}
		if !a.certify {
			sw.enc = enc
			return sw, nil
		}
		if sw.cert = a.forkCertify(entry, enc); sw.cert != nil {
			sw.enc = enc
			return sw, nil
		}
	}
	sw.cert = a.beginCertify()
	enc, delivered := a.encodeStructure(probe)
	a.proofSink = nil
	enc.Assert(a.violationFormula(probe, delivered))
	if a.presimplify {
		enc.Simplify()
	}
	sw.enc = enc
	return sw, nil
}

// VerifyK verifies the combined-budget query with at most k device
// failures, reusing the sweep's encoding.
func (s *Sweep) VerifyK(k int) (*Result, error) {
	return s.verify(Query{Property: s.prop, Combined: true, K: k, R: s.r, KL: s.kl})
}

// VerifySplit verifies the split-budget query with at most k1 IED and
// k2 RTU failures, reusing the sweep's encoding.
func (s *Sweep) VerifySplit(k1, k2 int) (*Result, error) {
	return s.verify(Query{Property: s.prop, K1: k1, K2: k2, R: s.r, KL: s.kl})
}

// VerifyRange verifies the combined budgets k = 0..maxK serially on the
// sweep's shared incremental solver, checkpointing each finished budget
// to ck (kind CheckpointKindCampaign, entries keyed by k) and skipping
// budgets a prior interrupted run already decided. Entries match the
// Runner.VerifyAllResumable shape, so a sweep checkpoint taken serially
// resumes on a parallel campaign over the same query list and vice
// versa. A nil ck disables checkpointing.
func (s *Sweep) VerifyRange(maxK int, ck *Checkpoint) ([]*Result, error) {
	results := make([]*Result, maxK+1)
	for n, raw := range ck.Entries() {
		var e campaignEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("checkpoint entry %d: %w", n, err)
		}
		if e.Index < 0 || e.Index > maxK || e.Result == nil {
			return nil, fmt.Errorf("checkpoint entry %d: budget %d out of range [0,%d]", n, e.Index, maxK)
		}
		results[e.Index] = e.Result
	}
	for k := 0; k <= maxK; k++ {
		if results[k] != nil {
			continue
		}
		res, err := s.VerifyK(k)
		if err != nil {
			return nil, err
		}
		results[k] = res
		if cerr := ck.Add(campaignEntry{Index: k, Result: res}); cerr != nil {
			s.a.metrics.Inc("scadaver_checkpoint_errors_total", nil)
		}
	}
	return results, nil
}

func (s *Sweep) verify(q Query) (*Result, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	start := time.Now()
	qspan := s.a.startQuerySpan(q)
	defer qspan.End()
	qs := s.a.beginQuery(q, "encode")
	defer func() {
		if r := recover(); r != nil {
			s.a.panicQuery(qs, r)
			panic(r)
		}
	}()
	before := s.enc.Solver().Stats()

	// The structure was built once in NewSweep, so a sweep query has no
	// build phase; the encode phase covers constructing the budget
	// formula (its CNF counter is encoded lazily inside Solve and is
	// therefore attributed to the solve phase).
	var ph PhaseTimes
	sp := qspan.Start("encode")
	t0 := time.Now()
	budget := s.a.budgetFormula(q)
	ph.Encode = time.Since(t0)
	sp.End()

	// The budget is passed as an assumption, not asserted: only its
	// sequential counter is added to the instance, and the next budget
	// does not have to be compatible with this one.
	qs.SetPhase("solve")
	sp = qspan.Start("solve")
	s.a.armProgress(s.enc, sp)
	t0 = time.Now()
	out := s.a.solveBudgeted(q, s.enc, sp, budget)
	status := s.a.corruptStatus(out.status)
	ph.Solve = time.Since(t0)
	s.a.disarmProgress(s.enc)
	stats := s.enc.Solver().Stats().Sub(before)
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
		v := s.a.extractVector(q, s.enc)
		v = s.a.minimizeVector(q, v)
		if s.a.faults.CorruptModelNow() {
			s.a.corruptVector(&v)
		}
		ph.Decode = time.Since(t0)
		sp.End()
		res.Vector = &v
	}
	if s.cert != nil {
		qs.SetPhase("certify")
		sp = qspan.Start("certify")
		// The budget was assumed, not asserted, so an Unsat at this k is
		// certified by RUP-ness of its negated budget-counter literal.
		var alits []sat.Lit
		if status == sat.Unsat {
			alits = []sat.Lit{s.enc.Implying(budget)}
		}
		s.a.certifyResult(q, s.enc, s.cert, alits, res)
		sp.Annotate(obs.A("certified", res.Certified), obs.A("replayed", res.ProofReplayed))
		sp.End()
	}
	res.Phases = ph
	res.Duration = time.Since(start)
	qspan.Annotate(obs.A("status", res.Status.String()))
	s.a.recordMetrics(res)
	s.a.completeQuery(qs, qspan, res.Status.String(), res.FailureReason)
	return res, nil
}
