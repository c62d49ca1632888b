package sat

import "time"

// ReduceRoot applies the root-level assignment to the problem clause
// database: it propagates to fixpoint, deletes every root-satisfied
// clause, and strips root-false literals from the rest. This is the
// cheap, linear tail of Simplify — no probing, no subsumption, no
// variable elimination — for callers that have just asserted a batch of
// units over an already-preprocessed database and want the clauses
// specialized under them (the delta cache runs it per sealed snapshot:
// asserting the guard selectors turns every (¬sel ∨ C) into C and every
// retired group into satisfied clauses, at unit-propagation cost rather
// than a full preprocessing pass; see DESIGN.md §16).
//
// Strengthening never produces a unit or empty clause: after propagate
// reaches fixpoint without conflict, any non-satisfied clause has at
// least two non-false literals (the watch invariant would have
// propagated or conflicted otherwise), so the pass needs no inner
// propagation loop. Learned clauses are left alone — the intended call
// point is before any search or import has populated them.
//
// It reports false when propagation proves the database unsatisfiable
// at the root, mirroring Simplify.
func (s *Solver) ReduceRoot() bool {
	start := time.Now()
	defer func() { s.stats.SimplifyTime += time.Since(start) }()

	s.cancelUntil(0)
	if s.rootUnsat {
		return false
	}
	if s.propagate() != 0 {
		s.markRootUnsat()
		return false
	}

	kept := s.clauses[:0]
	for _, c := range s.clauses {
		if s.ca.deleted(c) {
			s.ca.drop(c)
			continue
		}
		satisfied := false
		falseLits := 0
		for _, w := range s.ca.lits(c) {
			switch s.value(Lit(w)) {
			case True:
				satisfied = true
			case False:
				falseLits++
			}
			if satisfied {
				break
			}
		}
		switch {
		case satisfied:
			s.detach(c)
			s.proofClause(ProofDelete, c)
			s.ca.markDeleted(c)
			s.ca.drop(c)
		case falseLits > 0:
			// Detach while the watched literals are still at positions 0
			// and 1, then keep the survivors in place, in order; they are
			// all root-unassigned, so any two of them may be watched.
			s.detach(c)
			var orig []Lit
			if s.proof != nil {
				s.origBuf = s.ca.appendLits(s.origBuf[:0], c)
				orig = s.origBuf
			}
			lits := s.ca.lits(c)
			j := 0
			for _, w := range lits {
				if s.value(Lit(w)) != False {
					lits[j] = w
					j++
				}
			}
			s.ca.shrink(c, j)
			// Add-before-Delete keeps the proof step RUP: assuming the
			// strengthened clause false falsifies the original under the
			// root units already on the trail.
			s.proofClause(ProofAdd, c)
			s.proofStep(ProofDelete, orig)
			s.attach(c)
			kept = append(kept, c)
		default:
			kept = append(kept, c)
		}
	}
	s.clauses = kept

	// Root assignments are now facts of the database, not consequences of
	// clauses that may have just been strengthened away; drop the reason
	// pointers like Simplify's rebuild does.
	for _, l := range s.trail {
		s.reason[l.Var()] = 0
	}
	s.qhead = len(s.trail)
	s.maybeCompact()
	return true
}

// ProbeRoot runs bounded failed-literal probing at the root level (the
// probing stage of Simplify on its own): each candidate literal is
// assumed and propagated, and a conflict fixes its negation as a root
// unit. Low-numbered variables are probed first, which on the encoder's
// numbering means the named structural interface — exactly the
// variables the per-query budget clauses will constrain — so units
// derived here are the ones that let a later solve finish at
// propagation depth. Reports false when probing proves the database
// unsatisfiable.
func (s *Solver) ProbeRoot(maxProbes int) bool {
	start := time.Now()
	defer func() { s.stats.SimplifyTime += time.Since(start) }()

	s.cancelUntil(0)
	if s.rootUnsat {
		return false
	}
	if s.propagate() != 0 {
		s.markRootUnsat()
		return false
	}
	s.probeFailedLiterals(maxProbes)
	return !s.rootUnsat
}

// detach removes c's two watchers. The watched literals are always at
// positions 0 and 1 (the propagation invariant); a watcher already
// dropped by lazy deletion is simply not found, which is fine.
func (s *Solver) detach(c cref) {
	for _, w := range [2]Lit{s.ca.lit(c, 0), s.ca.lit(c, 1)} {
		l := w.Neg()
		ws := s.watchesOf(l)
		for i := range ws {
			if ws[i].c == c {
				ws[i] = ws[len(ws)-1]
				s.wl[l].n--
				break
			}
		}
	}
}
