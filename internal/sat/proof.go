package sat

// DRAT-style proof logging. When a ProofWriter is installed via
// SetProofHook the solver narrates every change it makes to the clause
// database: original clauses as they are asserted (ProofInput), derived
// clauses as they are learned or produced by preprocessing
// (ProofAdd), and clauses it stops using (ProofDelete). The resulting
// step sequence is a standard DRAT proof — every ProofAdd is a reverse-
// unit-propagation (RUP) consequence of the clauses alive at that point
// — which internal/sat/drat checks forward, in process, or dumps as
// DIMACS + DRAT text for external checkers.
//
// Emission invariants, relied on by the checker:
//
//   - ProofInput carries the caller's clause after sorting and
//     deduplication but BEFORE root-value filtering, so the logged
//     formula is exactly what was asserted; the solver's internally
//     stored (filtered) clause is propagation-equivalent given the root
//     units the log also contains.
//   - Strengthened clauses (self-subsumption) are logged
//     as an Add of the shorter clause followed by a Delete of the
//     original, in that order: the Add is RUP while the original is
//     still present.
//   - BVE resolvents are logged before their parent clauses are
//     deleted, for the same reason.
//   - The first transition to root-level unsatisfiability logs an Add
//     of the empty clause (see markRootUnsat); an Unsat verdict under
//     assumptions does NOT (the certificate there is RUP-ness of the
//     negated-assumptions clause — drat.Checker.VerifyUnsat).
//   - Deletes are best-effort bookkeeping so a forward checker can stay
//     bounded-memory; a delete may name a clause the checker knows in a
//     slightly different (unfiltered) form, so checkers treat unmatched
//     deletes leniently. Dropping a delete is always sound — it only
//     leaves the checker more axioms.

// ProofOp classifies one proof step.
type ProofOp uint8

// The proof step kinds: an original (input) clause, a derived clause
// addition, and a clause deletion.
const (
	ProofInput ProofOp = iota
	ProofAdd
	ProofDelete
)

// String implements fmt.Stringer.
func (op ProofOp) String() string {
	switch op {
	case ProofInput:
		return "input"
	case ProofAdd:
		return "add"
	case ProofDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// ProofWriter receives proof steps. Step is called on the solving
// goroutine with a literal slice the solver may reuse or mutate
// afterwards — implementations must copy lits if they retain them, and
// must not call back into the solver. An empty (or nil) lits slice with
// ProofAdd is the empty clause: the formula has been refuted.
type ProofWriter interface {
	Step(op ProofOp, lits []Lit)
}

// SetProofHook installs (or, with nil, removes) the proof writer. Arm
// it before the first AddClause so the logged input formula is
// complete; the disabled cost is a nil-check per database change.
func (s *Solver) SetProofHook(w ProofWriter) { s.proof = w }

// ProofHook returns the installed proof writer (nil when disarmed).
func (s *Solver) ProofHook() ProofWriter { return s.proof }

// proofStep forwards one step to the hook, if armed.
func (s *Solver) proofStep(op ProofOp, lits []Lit) {
	if s.proof != nil {
		s.proof.Step(op, lits)
	}
}

// markRootUnsat records root-level unsatisfiability, logging the empty
// clause on the first transition. Every call site establishes the
// precondition that the empty clause is RUP at that point: unit
// propagation over the clauses already logged yields a conflict.
func (s *Solver) markRootUnsat() {
	if s.rootUnsat {
		return
	}
	s.rootUnsat = true
	if s.proof != nil {
		s.proof.Step(ProofAdd, nil)
	}
}

// rupImplied reports whether the clause is a reverse-unit-propagation
// consequence of the current database: assuming the negation of every
// literal and propagating yields a conflict (or some literal is already
// true at the root). It must be called at decision level 0, leaves the
// solver back at level 0, and emits no proof steps itself —
// ImportLearnts uses it to vet carried clauses before logging their
// import.
func (s *Solver) rupImplied(lits []Lit) bool {
	if s.rootUnsat {
		return true
	}
	for _, l := range lits {
		if s.value(l) == True {
			return true
		}
	}
	s.trailLim = append(s.trailLim, len(s.trail))
	for _, l := range lits {
		if s.value(l) == Unknown {
			s.uncheckedEnqueue(l.Neg(), 0)
		}
	}
	conflict := s.propagate() != 0
	s.cancelUntil(0)
	return conflict
}

// proofClause forwards clause c of the arena as one step, if armed.
func (s *Solver) proofClause(op ProofOp, c cref) {
	if s.proof != nil {
		s.proofBuf = s.ca.appendLits(s.proofBuf[:0], c)
		s.proof.Step(op, s.proofBuf)
	}
}
