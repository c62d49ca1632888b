package core

// ViolatedUnder exposes the direct (SAT-free) property evaluator to the
// external core_test package.
func (a *Analyzer) ViolatedUnder(q Query, f Failures) bool { return a.violatedUnder(q, f) }
