package core

import (
	"scadaver/internal/logic"
	"scadaver/internal/sat"
	"scadaver/internal/sat/drat"
	"scadaver/internal/scadanet"
)

// ViolatedUnder exposes the direct (SAT-free) property evaluator to the
// external core_test package.
func (a *Analyzer) ViolatedUnder(q Query, f Failures) bool { return a.violatedUnder(q, f) }

// SnapshotEncoder exposes the shared (uncertified) cache snapshot that
// serves q itself, not a clone, so tests can inspect exactly what every
// query on that structure starts from. The analyzer must have a plain
// encoding cache.
func (a *Analyzer) SnapshotEncoder(q Query) (*logic.Encoder, error) {
	_, _, e, err := a.snapshot(q, logic.True(), false, nil, nil)
	if err != nil {
		return nil, err
	}
	return e.enc, nil
}

// StructureEncoder returns the encoding a plain-cache snapshot for q is
// built from — structure plus negated property, no failure budget —
// before any preprocessing.
func (a *Analyzer) StructureEncoder(q Query) *logic.Encoder {
	probe := snapshotKeyOf(q).probe()
	enc, delivered := a.encodeStructure(probe, nil)
	enc.Assert(a.violationFormula(probe, delivered))
	return enc
}

// SnapshotPrelude returns the prelude checker a certified plain-cache
// snapshot for q keeps for its queries to clone (nil if it shares none).
func (a *Analyzer) SnapshotPrelude(q Query) (*drat.Checker, error) {
	_, _, e, err := a.snapshot(q, logic.True(), true, nil, nil)
	if err != nil {
		return nil, err
	}
	return e.prelude, nil
}

// RecordPrelude feeds w the proof stream a certified plain-cache snapshot
// build for q feeds its prelude checker: the structural encoding, the
// negated property and, under presimplify, the snapshot's Simplify.
func (a *Analyzer) RecordPrelude(q Query, w sat.ProofWriter) {
	a.encodeSnapshot(q, w, nil, nil).Solver().SetProofHook(nil)
}

// QueryClone returns the private clone of q's (uncertified) snapshot
// that Verify would put budget, q's failure budget, on.
func (a *Analyzer) QueryClone(q Query, budget *logic.Formula) (*logic.Encoder, error) {
	enc, _, _, err := a.snapshot(q, budget, false, nil, nil)
	return enc, err
}

// BudgetFormula exposes q's failure budget, the formula every query
// puts on its snapshot clone.
func (a *Analyzer) BudgetFormula(q Query) *logic.Formula { return a.budgetFormula(q) }

// SatEncoder solves q on the encoder Verify uses — a clone of the
// shared snapshot under the budget as an assumption — and returns it
// with a Result carrying the minimized threat vector, as the Sat audit
// receives them. Both are nil when q is not Sat.
func (a *Analyzer) SatEncoder(q Query) (*logic.Encoder, *Result, error) {
	budget := a.budgetFormula(q)
	enc, _, _, err := a.snapshot(q, budget, a.certify, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	if enc.Solve(budget) != sat.Sat {
		return nil, nil, nil
	}
	v := a.minimizeVector(q, a.extractVector(q, enc))
	return enc, &Result{Query: q, Status: sat.Sat, Vector: &v}, nil
}

// ColdVerify is the independent reference the equivalence suites hold
// Verify to: q solved on encode(q) — the pristine from-scratch encoding
// quarantine re-solves on, sharing no snapshot, clone or preprocessing
// with Verify — with its budget asserted, and a Sat model's vector
// extracted and minimized as Verify does.
func (a *Analyzer) ColdVerify(q Query) *Result {
	enc := a.encode(q, nil)
	res := &Result{Query: q, Status: enc.Solve()}
	res.Stats = enc.Solver().Stats()
	if res.Status == sat.Sat {
		v := a.minimizeVector(q, a.extractVector(q, enc))
		res.Vector = &v
	}
	return res
}

// PathVerify is the reference the reach-net delivery encoding is held
// to: each query encoded with delivery as it was before the reach net —
// each IED's Del term equivalent to its Node term and a disjunction over
// every simple path from the IED to the MTU, enumerated without a cap,
// each path the conjunction of its hops' Link, Pair (and, secured, Sec)
// terms and its field devices' Node terms. One encoding per structure
// (snapshotKeyOf) is built from scratch, never simplified, and the
// queries on it solve their budgets as assumptions, one after another
// on the same solver (a budget's clauses only bind under its own
// assumption literal, so they constrain no later query). It returns
// the verdicts in query order and the number of paths per encoding.
// Enumeration is exponential in a mesh, so keep it to sparse
// configurations.
func (a *Analyzer) PathVerify(qs []Query) ([]sat.Status, int) {
	encs := map[snapshotKey]*logic.Encoder{}
	out := make([]sat.Status, len(qs))
	total := 0
	for i, q := range qs {
		key := snapshotKeyOf(q)
		if encs[key] == nil {
			var n int
			encs[key], n = a.pathEncoding(key.probe())
			total = max(total, n)
		}
		out[i] = encs[key].Solve(a.budgetFormula(q))
	}
	return out, total
}

// pathEncoding builds q's path encoding without its failure budget and
// returns it with the number of paths it enumerated.
func (a *Analyzer) pathEncoding(q Query) (*logic.Encoder, int) {
	secured := q.Property != Observability
	enc := logic.NewEncoder()
	for _, f := range a.configFormulas(q) {
		enc.Assert(f)
	}
	total := 0
	for _, d := range a.fieldIEDs {
		var alts []*logic.Formula
		var conj []*logic.Formula // reused per path: And copies its operands
		for _, path := range a.paths(d.ID) {
			conj = conj[:0]
			at := d.ID
			for _, l := range path {
				conj = append(conj, linkVar(l.ID), pairVar(l.ID))
				if secured {
					conj = append(conj, secVar(l.ID))
				}
				at = l.Other(at)
				if a.cfg.Net.Device(at).FieldDevice() {
					conj = append(conj, nodeVar(at))
				}
			}
			alts = append(alts, logic.And(conj...))
		}
		total += len(alts)
		enc.Assert(logic.Iff(delVar(d.ID), logic.And(nodeVar(d.ID), logic.Or(alts...))))
	}
	enc.Assert(a.violationFormula(q, a.deliveredTerms()))
	return enc, total
}

// paths enumerates every simple path from the IED to the MTU as a link
// sequence, depth first, forwarding through RTUs and routers only.
func (a *Analyzer) paths(ied scadanet.DeviceID) [][]*scadanet.Link {
	net := a.cfg.Net
	mtu := net.MTUID()
	adj := map[scadanet.DeviceID][]*scadanet.Link{}
	for _, l := range net.Links() {
		adj[l.A] = append(adj[l.A], l)
		adj[l.B] = append(adj[l.B], l)
	}
	var out [][]*scadanet.Link
	visited := map[scadanet.DeviceID]bool{ied: true}
	var path []*scadanet.Link
	var dfs func(at scadanet.DeviceID)
	dfs = func(at scadanet.DeviceID) {
		if at == mtu {
			out = append(out, append([]*scadanet.Link(nil), path...))
			return
		}
		for _, l := range adj[at] {
			next := l.Other(at)
			if visited[next] || next != mtu && net.Device(next).Kind == scadanet.IED {
				continue
			}
			visited[next] = true
			path = append(path, l)
			dfs(next)
			path = path[:len(path)-1]
			visited[next] = false
		}
	}
	dfs(ied)
	return out
}

// ColdEnumerate is the independent reference for threat enumeration:
// every minimal threat vector of q, enumerated on encode(q) as
// EnumerateThreats enumerates on its snapshot clone.
func (a *Analyzer) ColdEnumerate(q Query) []ThreatVector {
	enc := a.encode(q, nil)
	var out []ThreatVector
	seen := map[string]bool{}
	for enc.Solve() == sat.Sat {
		v := a.minimizeVector(q, a.extractVector(q, enc))
		if !seen[v.key()] {
			seen[v.key()] = true
			out = append(out, v)
		}
		if !blockVector(enc, v) {
			break
		}
	}
	return out
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
func (a *Analyzer) PristineEncoding(q Query) *logic.Encoder { return a.encode(q, nil) }

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

// OnlineVerify is the reference the replayed certification is held to:
// Verify certified as it was before proofs were logged, with a checker
// armed as the solver's proof hook and so fed every step at solve time,
// Sat searches included. The budget is assumed on a clone of q's
// certified snapshot armed with a clone of its prelude checker, as
// Verify forks them, or, when the snapshot shares none, on a private
// copy of the snapshot armed with an empty checker from its first
// clause. On an analyzer without faults the search, the proof stream
// and the verdict are those of Verify. It returns the result and the
// checker.
func (a *Analyzer) OnlineVerify(q Query) (*Result, *drat.Checker, error) {
	enc, _, e, err := a.snapshot(q, a.budgetFormula(q), true, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	var ck *drat.Checker
	if e.prelude != nil {
		ck = e.prelude.Clone()
		enc.Solver().SetProofHook(ck)
	} else {
		ck = drat.New()
		enc = a.encodeSnapshot(q, ck, nil, nil)
	}
	return a.solveOnline(q, enc, ck), ck, nil
}

// solveOnline solves q's budget as an assumption on enc and certifies
// the verdict as certification did before proofs were logged:
// ProofClauses is the online checker's addition count, a Sat verdict is
// audited as Verify audits it, an Unsat one against the checker as it
// stands, and a divergence is quarantined.
func (a *Analyzer) solveOnline(q Query, enc *logic.Encoder, ck *drat.Checker) *Result {
	budget := a.budgetFormula(q)
	out := a.solveBudgeted(q, enc, nil, budget)
	res := &Result{Query: q, Status: a.corruptStatus(out.status), ProofClauses: uint64(ck.Additions())}
	var err error
	switch res.Status {
	case sat.Sat:
		v := a.minimizeVector(q, a.extractVector(q, enc))
		res.Vector = &v
		err = a.auditSat(q, enc.Model(), res)
	case sat.Unsat:
		err = auditUnsat(ck, []sat.Lit{enc.Implying(budget)})
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

// EntryState is what tests inspect of one cache entry: whether it keeps
// a shared prelude checker and whether it carries evolvable delta state.
type EntryState struct{ Prelude, Delta bool }

// Entries returns the state of every entry in the cache, by key.
func (c *EncodingCache) Entries() map[string]EntryState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]EntryState, len(c.entries))
	for key, e := range c.entries {
		out[key] = EntryState{Prelude: e.prelude != nil, Delta: e.delta.Load() != nil}
	}
	return out
}
