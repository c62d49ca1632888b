package core

import (
	"fmt"
	"time"

	"scadaver/internal/logic"
	"scadaver/internal/obs"
	"scadaver/internal/sat"
	"scadaver/internal/sat/drat"
	"scadaver/internal/scadanet"
)

// WithCertification makes every Verify and Sweep verdict of this
// analyzer carry its own evidence instead of being trusted on the
// solver's word (DESIGN.md §15):
//
//   - The solve is proof-logged: every input clause and every derived
//     addition — CDCL learning, preprocessing resolvents,
//     strengthenings and failed literals included — is recorded, as the
//     solver emits it, into a pointer-free log (drat.Log). Nothing is
//     checked at solve time. An Unsat answer rests on the proof, so it
//     replays the log into a DRAT-style checker (internal/sat/drat) and
//     is accepted only if the checker certifies RUP-ness of the negated
//     budget assumption. Sat and Unsolved answers replay nothing.
//   - A Sat answer is audited twice: the reported threat vector must
//     violate the property under the direct evaluator within its
//     failure budget, and the solver's full named model must satisfy
//     the query's formulas — structure assertions, failure budget and
//     negated property, built afresh and never simplified — under
//     strict evaluation, which refuses a model missing any of their
//     variables.
//   - Any divergence quarantines the query: one pristine re-solve with
//     preprocessing and cache both bypassed, itself certified the same
//     way, whose verdict replaces the suspect one.
//
// Certification shares the snapshot. A certifying analyzer takes the
// monolithic certified snapshot on either cache layout — keyed apart
// from uncertified ones, and never evolved by Mutate — built under
// proof logging; its derivation — structure, negated property and
// Simplify — is checked once, eagerly, when it is built. Each query
// clones the snapshot and logs only its own suffix: the budget's
// clauses and the search. An Unsat query clones the snapshot's checker
// and checks that suffix and RUP-ness of the negated budget assumption
// on the clone. A snapshot whose checker rejected a step or accepted a
// RAT addition is not shared: its queries encode the same snapshot
// privately, proof-logged from clause one, and an Unsat one replays the
// whole log into an empty checker. Preprocessing stays on either way:
// it is proof-logged, which is the point.
// Threat enumeration (EnumerateThreats) is not certified — its blocking
// clauses change the formula mid-stream; certify the individual
// verdicts via Verify instead. Overhead is measured in EXPERIMENTS.md
// §R3 and §P8.
func WithCertification(on bool) Option {
	return func(a *Analyzer) { a.certify = on }
}

// certState is the certification context of one proof-logged query.
// The solver's proof stream is recorded into log as the solver emits it
// and checked only when a verdict rests on it: a Sat verdict is
// certified by its model and an Unsolved one claims nothing, so only an
// Unsat verdict replays the log, once (check), into a fork of the
// snapshot's prelude or, when the snapshot shares none, an empty
// checker.
type certState struct {
	prelude *drat.Checker // the snapshot's checked prelude (read-only); nil when it shares none
	checker *drat.Checker // nil until an Unsat verdict needs it
	log     drat.Log
}

// check creates the checker, replays the logged proof into it, and
// returns it with the number of steps replayed. A fork of the prelude
// is made with room for the whole log, so the replay grows nothing.
func (c *certState) check() (*drat.Checker, int) {
	if c.prelude != nil {
		c.checker = c.prelude.CloneWithRoom(c.log.Room())
	} else {
		c.checker = drat.New()
	}
	return c.checker, c.log.Drain(c.checker)
}

// proofClauses is the size of the recorded derivation: the prelude's
// additions plus every addition logged since.
func (c *certState) proofClauses() uint64 {
	n := c.log.Additions()
	if c.prelude != nil {
		n += c.prelude.Additions()
	}
	return uint64(n)
}

// forkCertify starts the certified solve of q on enc, a private clone
// of the certified snapshot e, and returns the encoder to solve on. The
// snapshot's prelude checker checked the derivation from the first
// clause through Simplify once, when the snapshot was built, so the
// query logs only its own suffix — the budget's clauses, the search,
// and the refutation of the budget assumption — and an Unsat verdict
// checks that suffix on a clone of the prelude. Refuting the prelude's
// database under the budget refutes the query, because every prelude
// step was RUP or a deletion and so the database is implied by the
// snapshot's input formula. A snapshot that shares no prelude is
// encoded again privately, with the query's log armed from clause one.
func (a *Analyzer) forkCertify(q Query, e *encodingEntry, enc *logic.Encoder, build *obs.Span, qs *obs.QueryState) (*logic.Encoder, *certState) {
	c := &certState{prelude: e.prelude}
	w := a.proofWriter(&c.log)
	if e.prelude == nil {
		return a.encodeSnapshot(q, w, build, qs), c
	}
	enc.Solver().SetProofHook(w)
	return enc, c
}

// proofWriter wraps a certification proof log in the fault plan's
// proof-truncation hook, when one is armed, so chaos tests can corrupt
// the stream between solver and log at solve time.
func (a *Analyzer) proofWriter(log *drat.Log) sat.ProofWriter {
	if drop := a.faults.ProofDropHook(); drop != nil {
		return proofDropper{drop: drop, next: log}
	}
	return log
}

// proofDropper interposes the fault plan's proof-truncation predicate
// in front of the certification proof log: once it fires, derived
// clause additions stop reaching the log (inputs and deletions still
// flow), modeling a proof writer that silently lost derivation steps.
type proofDropper struct {
	drop func() bool
	next sat.ProofWriter
}

// Step implements sat.ProofWriter.
func (p proofDropper) Step(op sat.ProofOp, lits []sat.Lit) {
	if op == sat.ProofAdd && p.drop() {
		return
	}
	p.next.Step(op, lits)
}

// corruptStatus applies the fault plan's verdict-flip fault to a
// decided solve status. Undecided statuses are never flipped (there is
// no wrong answer to inject into "I don't know").
func (a *Analyzer) corruptStatus(st sat.Status) sat.Status {
	if st == sat.Unsolved || !a.faults.CorruptVerdict() {
		return st
	}
	if st == sat.Sat {
		return sat.Unsat
	}
	return sat.Sat
}

// corruptVector applies the fault plan's model corruption to a decoded
// threat vector: the first failed element is dropped — an inclusion-
// minimal witness stops violating the property once any element is
// removed, so the corruption is guaranteed to be wrong — or, for an
// empty vector, the first healthy IED is added.
func (a *Analyzer) corruptVector(v *ThreatVector) {
	switch {
	case len(v.IEDs) > 0:
		v.IEDs = v.IEDs[1:]
	case len(v.RTUs) > 0:
		v.RTUs = v.RTUs[1:]
	case len(v.Links) > 0:
		v.Links = v.Links[1:]
	default:
		for _, d := range a.fieldIEDs {
			if !d.Down {
				v.IEDs = append(v.IEDs, d.ID)
				break
			}
		}
	}
}

// certifyResult audits one decided verdict, quarantining on divergence:
// a Sat verdict against the direct evaluator and the query's formulas,
// an Unsat one against its proof, replayed from the log into the
// checker only now (res.ProofReplayed counts the steps). assumptions are
// the solver literals the solve assumed (the budget's literal; empty
// when the budget was asserted, as in quarantine): an
// Unsat-under-assumptions answer is certified by RUP-ness of the negated
// assumption clause rather than by the empty clause. Undecided verdicts
// are not audited — there is no claim to certify.
func (a *Analyzer) certifyResult(q Query, enc *logic.Encoder, cert *certState, assumptions []sat.Lit, res *Result) {
	t0 := time.Now()
	defer func() { res.Audit = time.Since(t0) }()
	res.ProofClauses = cert.proofClauses()
	if res.Status == sat.Unsolved {
		return
	}
	pl := map[string]string{"property": q.Property.String()}
	a.metrics.Inc("scadaver_certify_checked_total", pl)
	var err error
	switch res.Status {
	case sat.Sat:
		err = a.auditSat(q, enc.Model(), res)
	case sat.Unsat:
		ck, n := cert.check()
		res.ProofReplayed += uint64(n)
		err = auditUnsat(ck, assumptions)
	}
	if err == nil {
		res.Certified = true
		return
	}
	a.metrics.Inc("scadaver_certify_failed_total", pl)
	a.quarantine(q, res, err)
}

// auditSat checks a Sat verdict from two independent directions: the
// reported (minimized) threat vector must fit the failure budget and
// violate the property under the direct evaluator, and the solver's
// full named model — including values the preprocessor's variable
// elimination reconstructed — must satisfy the query's formulas
// (auditModel).
func (a *Analyzer) auditSat(q Query, model logic.Model, res *Result) error {
	if res.Vector == nil {
		return fmt.Errorf("core: certify: sat verdict carries no threat vector")
	}
	v := *res.Vector
	if q.Combined {
		if n := len(v.IEDs) + len(v.RTUs); n > q.K {
			return fmt.Errorf("core: certify: vector has %d device failures, budget K=%d", n, q.K)
		}
	} else {
		if len(v.IEDs) > q.K1 || len(v.RTUs) > q.K2 {
			return fmt.Errorf("core: certify: vector has (%d,%d) failures, budget (K1=%d,K2=%d)",
				len(v.IEDs), len(v.RTUs), q.K1, q.K2)
		}
	}
	if len(v.Links) > q.KL {
		return fmt.Errorf("core: certify: vector has %d link failures, budget KL=%d", len(v.Links), q.KL)
	}
	f := Failures{Devices: map[scadanet.DeviceID]bool{}, Links: map[scadanet.LinkID]bool{}}
	for _, id := range v.Devices() {
		f.Devices[id] = true
	}
	for _, id := range v.Links {
		f.Links[id] = true
	}
	if !a.violatedUnder(q, f) {
		return fmt.Errorf("core: certify: vector %v does not violate %v under the direct evaluator", v, q)
	}
	return a.auditModel(q, model)
}

// auditModel checks that model satisfies the query as formulas, freshly
// built and never simplified: every structure assertion, the failure
// budget and the negated property must evaluate to true, and every
// variable they mention must be assigned. It trusts neither the
// encoder, the solver, preprocessing nor the cache. Once the named
// variables are fixed, every Tseitin gate and counter cell of the
// query's CNF is determined, so this holds exactly when that CNF is
// satisfiable under the model as unit assumptions.
func (a *Analyzer) auditModel(q Query, model logic.Model) error {
	asserted, delivered := a.structureFormulas(q)
	n := len(asserted)
	checks := append(asserted, a.budgetFormula(q), a.violationFormula(q, delivered))
	for i, f := range checks {
		ok, err := model.Satisfies(f)
		if err != nil {
			return fmt.Errorf("core: certify: solver model: %w", err)
		}
		if ok {
			continue
		}
		what := "structure assertion " + f.String()
		switch i {
		case n:
			what = "the failure budget"
		case n + 1:
			what = "the negated property"
		}
		return fmt.Errorf("core: certify: solver model falsifies %s", what)
	}
	return nil
}

// auditUnsat checks an Unsat verdict against the replayed proof: the
// checker must have accepted every step, and the refutation must be
// closed — the empty clause for asserted budgets, or the negated
// assumption clause shown RUP for assumption-based solves (any model of
// the formula satisfying the assumptions would contradict a RUP
// consequence, so none exists).
func auditUnsat(ck *drat.Checker, assumptions []sat.Lit) error {
	if err := ck.Err(); err != nil {
		return fmt.Errorf("core: certify: proof step rejected: %w", err)
	}
	if err := ck.VerifyUnsat(assumptions...); err != nil {
		return fmt.Errorf("core: certify: refutation not certified: %w", err)
	}
	return nil
}

// quarantine handles a certification divergence: the suspect verdict is
// discarded and the query re-solved from a pristine encoding (encode) —
// preprocessing and cache both bypassed, itself certified like any
// other solve — whose verdict replaces the reported one. The
// re-solve is bounded by the analyzer's conflict budget and interrupt
// only; fault-injection hooks are deliberately not re-armed, so an
// injected corruption cannot survive its own quarantine.
func (a *Analyzer) quarantine(q Query, res *Result, cause error) {
	pl := map[string]string{"property": q.Property.String()}
	a.metrics.Inc("scadaver_certify_quarantine_total", pl)
	res.Quarantined = true
	res.CertifyError = cause.Error()

	cert := &certState{}
	enc := a.encode(q, &cert.log)
	s := enc.Solver()
	s.SetConflictBudget(a.conflictBudget)
	s.SetInterrupt(a.interrupt)
	st := enc.Solve()
	s.SetConflictBudget(0)
	s.SetInterrupt(nil)

	orig := res.Status
	var verr error
	switch st {
	case sat.Sat:
		res.Status = sat.Sat
		v := a.extractVector(q, enc)
		v = a.minimizeVector(q, v)
		res.Vector = &v
		verr = a.auditSat(q, enc.Model(), res)
	case sat.Unsat:
		res.Status = sat.Unsat
		res.Vector = nil
		ck, n := cert.check()
		res.ProofReplayed += uint64(n)
		verr = auditUnsat(ck, nil)
	default:
		verr = fmt.Errorf("core: certify: quarantine re-solve undecided")
	}
	if st != sat.Unsolved && st != orig {
		a.metrics.Inc("scadaver_certify_divergence_total", pl)
	}
	res.ProofClauses = cert.proofClauses()
	res.Certified = verr == nil
	if verr != nil {
		res.CertifyError = fmt.Sprintf("%v; quarantine: %v", cause, verr)
	}
}
