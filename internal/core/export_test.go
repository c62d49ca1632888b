package core

import (
	"scadaver/internal/logic"
	"scadaver/internal/sat"
	"scadaver/internal/sat/drat"
)

// ViolatedUnder exposes the direct (SAT-free) property evaluator to the
// external core_test package.
func (a *Analyzer) ViolatedUnder(q Query, f Failures) bool { return a.violatedUnder(q, f) }

// SnapshotEncoder exposes the shared (uncertified) cache snapshot that
// serves q itself, not a clone, so tests can inspect exactly what every
// query on that structure starts from. The analyzer must have a plain
// encoding cache.
func (a *Analyzer) SnapshotEncoder(q Query) (*logic.Encoder, error) {
	_, _, e, err := a.snapshot(q, false, nil, nil)
	if err != nil {
		return nil, err
	}
	return e.enc, nil
}

// StructureEncoder returns the encoding a plain-cache snapshot for q is
// built from — structure plus negated property, no failure budget —
// before any preprocessing.
func (a *Analyzer) StructureEncoder(q Query) *logic.Encoder {
	probe := Query{Property: q.Property, Combined: true, R: q.R, KL: q.KL}
	enc, delivered := a.encodeStructure(probe)
	enc.Assert(a.violationFormula(probe, delivered))
	return enc
}

// SnapshotPrelude returns the prelude checker a certified plain-cache
// snapshot for q keeps for its queries to clone (nil if it shares none).
func (a *Analyzer) SnapshotPrelude(q Query) (*drat.Checker, error) {
	_, _, e, err := a.snapshot(q, true, nil, nil)
	if err != nil {
		return nil, err
	}
	return e.prelude, nil
}

// RecordPrelude feeds w the proof stream a certified plain-cache snapshot
// build for q feeds its prelude checker: the structural encoding, the
// negated property and, under presimplify, the snapshot's Simplify.
func (a *Analyzer) RecordPrelude(q Query, w sat.ProofWriter) {
	probe := Query{Property: q.Property, Combined: true, R: q.R, KL: q.KL}
	a.proofSink = w
	enc, delivered := a.encodeStructure(probe)
	a.proofSink = nil
	enc.Assert(a.violationFormula(probe, delivered))
	if a.presimplify {
		enc.Simplify()
	}
	enc.Solver().SetProofHook(nil)
}

// SatEncoder solves q on the encoder Verify would use — a clone of the
// shared snapshot under the budget as an assumption when the analyzer
// serves snapshots, else a fresh encoding, presimplified when
// configured — and returns it with a Result carrying the minimized
// threat vector, as the Sat audit receives them. Both are nil when q is
// not Sat.
func (a *Analyzer) SatEncoder(q Query) (*logic.Encoder, *Result, error) {
	var enc *logic.Encoder
	var assumptions []*logic.Formula
	if a.usesSnapshots() {
		var err error
		if enc, _, _, err = a.snapshot(q, a.certify, nil, nil); err != nil {
			return nil, nil, err
		}
		assumptions = append(assumptions, a.budgetFormula(q))
	} else {
		enc = a.encode(q)
		if a.presimplify {
			enc.Simplify()
		}
	}
	if enc.Solve(assumptions...) != sat.Sat {
		return nil, nil, nil
	}
	v := a.minimizeVector(q, a.extractVector(q, enc))
	return enc, &Result{Query: q, Status: sat.Sat, Vector: &v}, nil
}

// AuditSat runs the Sat audit of a verdict reached on enc.
func (a *Analyzer) AuditSat(q Query, enc *logic.Encoder, res *Result) error {
	return a.auditSat(q, enc.Model(), res)
}

// AuditModel runs the model half of the Sat audit: model must satisfy
// the query's formulas.
func (a *Analyzer) AuditModel(q Query, model logic.Model) error { return a.auditModel(q, model) }

// PristineEncoding returns a fresh encoding of q — no preprocessing, no
// cache, never solved — for pristineAudit.
func (a *Analyzer) PristineEncoding(q Query) *logic.Encoder { return a.encode(q) }

// DeltaQueries is the query shape list of the delta-cache tests.
func DeltaQueries() []Query { return deltaQueries() }

// VerifyChecked runs Verify and also returns the checker its verdict was
// certified against: nil unless certification replayed the proof into
// one, which only an Unsat verdict does.
func (a *Analyzer) VerifyChecked(q Query) (*Result, *drat.Checker, error) {
	res, cert, err := a.verify(q)
	if cert == nil {
		return res, nil, err
	}
	return res, cert.checker, err
}

// Checker returns a certified sweep's checker: nil until an Unsat budget
// replayed the proof into one.
func (s *Sweep) Checker() *drat.Checker {
	if s.cert == nil {
		return nil
	}
	return s.cert.checker
}

// OnlineSweep is the reference the replayed certification is held to:
// certification as it was before proofs were logged, with a checker
// armed as the solver's proof hook and so fed every step at solve time,
// Sat searches included. NewOnlineSweep encodes as NewSweep does and
// Verify solves a budget on that encoding as Sweep.VerifyK and
// Sweep.VerifySplit do, so on an analyzer without faults the search, the
// proof stream and the verdicts are those of the replayed path.
type OnlineSweep struct {
	a   *Analyzer
	enc *logic.Encoder
	ck  *drat.Checker
}

// NewOnlineSweep is NewSweep with an online checker: a clone of the
// certified snapshot's prelude armed on the snapshot's clone, or, when
// the snapshot shares none or the analyzer serves no snapshots, an empty
// checker armed from the first clause of a fresh encoding.
func (a *Analyzer) NewOnlineSweep(p Property, r, kl int) (*OnlineSweep, error) {
	probe := Query{Property: p, Combined: true, R: r, KL: kl}
	if s, err := a.onlineFork(probe); s != nil || err != nil {
		return s, err
	}
	ck := drat.New()
	a.proofSink = ck
	enc, delivered := a.encodeStructure(probe)
	a.proofSink = nil
	enc.Assert(a.violationFormula(probe, delivered))
	if a.presimplify {
		enc.Simplify()
	}
	return &OnlineSweep{a: a, enc: enc, ck: ck}, nil
}

// onlineFork arms a clone of q's certified snapshot with a clone of its
// prelude checker, as Verify's cached path forks them; nil when the
// analyzer serves no snapshots or the snapshot shares no prelude.
func (a *Analyzer) onlineFork(q Query) (*OnlineSweep, error) {
	if !a.usesSnapshots() {
		return nil, nil
	}
	enc, _, e, err := a.snapshot(q, true, nil, nil)
	if err != nil || e.prelude == nil {
		return nil, err
	}
	ck := e.prelude.Clone()
	enc.Solver().SetProofHook(ck)
	return &OnlineSweep{a: a, enc: enc, ck: ck}, nil
}

// OnlineVerify is Verify certified against an online checker: the budget
// assumed on a forked snapshot, as Verify's cached path solves it, or
// asserted on a fresh proof-logged encoding, as its uncached path does.
// It returns the result and the checker.
func (a *Analyzer) OnlineVerify(q Query) (*Result, *drat.Checker, error) {
	s, err := a.onlineFork(q)
	if err != nil {
		return nil, nil, err
	}
	if s != nil {
		res, ck := s.Verify(q)
		return res, ck, nil
	}
	ck := drat.New()
	a.proofSink = ck
	enc := a.encode(q)
	a.proofSink = nil
	if a.presimplify {
		enc.Simplify()
	}
	s = &OnlineSweep{a: a, enc: enc, ck: ck}
	return s.solve(q, nil), ck, nil
}

// Verify solves q with its failure budget as an assumption and
// certifies the verdict against the online checker, returning the
// result and the checker.
func (s *OnlineSweep) Verify(q Query) (*Result, *drat.Checker) {
	return s.solve(q, s.a.budgetFormula(q)), s.ck
}

// solve solves the sweep's encoding under budget (nil: none to assume)
// and certifies the verdict as certification did before proofs were
// logged: ProofClauses is the online checker's addition count, a Sat
// verdict is audited as Verify audits it, an Unsat one against the
// checker as it stands, and a divergence is quarantined.
func (s *OnlineSweep) solve(q Query, budget *logic.Formula) *Result {
	a := s.a
	var assumptions []*logic.Formula
	if budget != nil {
		assumptions = append(assumptions, budget)
	}
	out := a.solveBudgeted(q, s.enc, nil, assumptions...)
	res := &Result{Query: q, Status: a.corruptStatus(out.status), ProofClauses: uint64(s.ck.Additions())}
	var err error
	switch res.Status {
	case sat.Sat:
		v := a.minimizeVector(q, a.extractVector(q, s.enc))
		res.Vector = &v
		err = a.auditSat(q, s.enc.Model(), res)
	case sat.Unsat:
		var alits []sat.Lit
		for _, f := range assumptions {
			alits = append(alits, s.enc.Implying(f))
		}
		err = auditUnsat(s.ck, alits)
	default:
		return res
	}
	if err != nil {
		a.quarantine(q, res, err)
	} else {
		res.Certified = true
	}
	return res
}
