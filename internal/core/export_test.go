package core

import "scadaver/internal/logic"

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
