package sat

// Inprocessing between restarts: root-level clause-database cleaning
// (simplifyRoots) and clause vivification (vivifyRound). Both run at
// decision level 0, typically from a portfolio replica's restart hook,
// and only ever remove clauses or literals that are redundant with
// respect to the current clause database — the formula's models are
// preserved exactly, so inprocessed replicas stay interchangeable with
// serial solving.

// inprocessEvery is how many restarts pass between inprocessing rounds
// in a portfolio replica: frequent enough that long solves keep
// shrinking their clause DB, rare enough that short solves pay nothing.
const inprocessEvery = 4

// vivifyClausesPerRound bounds how many learned clauses one vivifyRound
// probes. Each probe costs a handful of propagations, so the bound keeps
// the pause between restarts small; the rotating cursor (vivifyNext)
// ensures successive rounds cover the whole database anyway.
const vivifyClausesPerRound = 48

// simplifyRoots removes clauses satisfied at the root level from both
// the problem and the learned database (MiniSat's simplifyDB). Sound at
// decision level 0: a root-satisfied clause stays satisfied in every
// extension. Clauses currently acting as (root) reasons are kept so
// reason pointers never dangle.
func (s *Solver) simplifyRoots() {
	if s.decisionLevel() != 0 || s.rootUnsat {
		return
	}
	removed := false
	for _, db := range [2][]cref{s.clauses, s.learned} {
		for _, c := range db {
			if s.ca.deleted(c) || s.isReason(c) {
				continue
			}
			for _, w := range s.ca.lits(c) {
				if s.value(Lit(w)) == True {
					s.ca.markDeleted(c)
					removed = true
					s.proofClause(ProofDelete, c)
					break
				}
			}
		}
	}
	if !removed {
		return
	}
	for _, dbp := range [2]*[]cref{&s.clauses, &s.learned} {
		kept := (*dbp)[:0]
		for _, c := range *dbp {
			if s.ca.deleted(c) {
				s.ca.drop(c)
				continue
			}
			kept = append(kept, c)
		}
		*dbp = kept
	}
	s.cleanWatches()
	s.maybeCompact()
}

// vivifyRound strengthens up to budget learned clauses by distillation
// (clause vivification): for each clause it assumes the negation of its
// literals one by one and lets unit propagation prove literals redundant
// or the remaining suffix implied. The cursor s.vivifyNext rotates the
// starting point so successive rounds examine different clauses.
func (s *Solver) vivifyRound(budget int) {
	if s.decisionLevel() != 0 || s.rootUnsat || len(s.learned) == 0 {
		return
	}
	examined := 0
	for scanned := 0; scanned < len(s.learned) && examined < budget; scanned++ {
		if s.vivifyNext >= len(s.learned) {
			s.vivifyNext = 0
		}
		c := s.learned[s.vivifyNext]
		s.vivifyNext++
		if s.ca.deleted(c) || s.ca.size(c) < 3 || s.isReason(c) {
			continue
		}
		examined++
		s.vivifyClause(c)
		if s.rootUnsat {
			return
		}
	}
}

// detach removes c's two watchers. The watched literals are always at
// positions 0 and 1 (the propagation invariant); a watcher already
// dropped by lazy deletion is simply not found, which is fine.
func (s *Solver) detach(c cref) {
	for _, w := range [2]Lit{s.ca.lit(c, 0), s.ca.lit(c, 1)} {
		l := w.Neg()
		ws := s.watches[l][:s.wn[l]]
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.wn[l]--
				break
			}
		}
	}
}

// vivifyClause distills a single learned clause at the root level. The
// clause is explicitly detached before probing — probe propagation may
// permute other watch lists, and a lazily-deleted watcher restored
// afterwards could leave the clause unwatched, which is unsound.
//
// Soundness: with the clause detached, every probe propagates only over
// the remaining database D (all implied by the formula F). If assuming
// ¬l1..¬lk makes l true under D, then {l1..lk, l} is a consequence of F;
// if it yields a conflict, {l1..lk} already is. Dropped literals are
// false in every model falsifying the kept prefix, so removing them
// preserves the clause's models.
func (s *Solver) vivifyClause(c cref) {
	// Proof: a successful vivification logs the shortened clause before
	// deleting the original (Add-before-Delete keeps the Add RUP); the
	// original is snapshotted because the default case below overwrites
	// the clause's literals in place.
	var orig []Lit
	if s.proof != nil {
		s.origBuf = s.ca.appendLits(s.origBuf[:0], c)
		orig = s.origBuf
	}
	// Resolve root-assigned literals first: a root-true literal makes the
	// clause permanently satisfied, root-false literals are stripped.
	size := s.ca.size(c)
	lits := make([]Lit, 0, size)
	for _, w := range s.ca.lits(c) {
		switch l := Lit(w); s.value(l) {
		case True:
			s.detach(c)
			s.ca.markDeleted(c)
			s.proofStep(ProofDelete, orig)
			return
		case False:
			// strip
		default:
			lits = append(lits, l)
		}
	}
	s.detach(c)
	kept := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if v := s.value(l); v == True {
			// ¬(kept) forces l: the clause shortens to kept + {l}.
			kept = append(kept, l)
			break
		} else if v == False {
			// ¬(kept) forces ¬l: l is redundant, drop it.
			continue
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(l.Neg(), 0)
		kept = append(kept, l)
		if s.propagate() != 0 {
			// ¬(kept) is contradictory: kept alone is implied.
			break
		}
	}
	s.cancelUntil(0)
	if len(kept) == size {
		s.attach(c) // nothing removed; restore as-is
		return
	}
	s.stats.VivifiedClauses++
	switch len(kept) {
	case 0:
		s.ca.markDeleted(c)
		s.markRootUnsat()
	case 1:
		// kept[0] was unassigned at the root when probing began, so it is
		// still unassigned here: enqueue it as a root unit.
		if s.proof != nil {
			s.proofStep(ProofAdd, kept)
			s.proofStep(ProofDelete, orig)
		}
		s.ca.markDeleted(c)
		s.uncheckedEnqueue(kept[0], 0)
		if s.propagate() != 0 {
			s.markRootUnsat()
		}
	default:
		if s.proof != nil {
			s.proofStep(ProofAdd, kept)
			s.proofStep(ProofDelete, orig)
		}
		// Shrink in place: kept fits the clause's own slot.
		dst := s.ca.lits(c)
		for i, l := range kept {
			dst[i] = uint32(l)
		}
		s.ca.shrink(c, len(kept))
		if int32(len(kept)) < s.ca.lbd(c) {
			s.ca.setLBD(c, int32(len(kept)))
		}
		s.attach(c)
	}
}
