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
