package sat

// This file implements learnt-clause carryover between solver
// generations (DESIGN.md §16). When an encoding snapshot is rebuilt
// after a configuration delta, the clauses the previous generation
// learned are still valuable — most of the formula survived the
// mutation — but they were derived against the OLD clause database, so
// they cannot be transplanted on trust. HarvestLearnts extracts
// transferable candidates from a retiring solver; ImportLearnts
// re-admits them into a successor after vetting each one: root-value
// filtering, eliminated-variable checks and a mandatory
// reverse-unit-propagation test against the NEW database. The RUP gate
// is what makes carryover unconditionally sound — variable filtering
// alone is not, since resolution can launder a dirty dependency into a
// clause over clean variables.

// SavedPhases returns a copy of the saved-phase (polarity) array for
// the first n variables (all of them when n <= 0 or out of range).
// Alongside learnt clauses, branching heuristics are the other state
// worth carrying between solver generations: they are pure heuristics,
// so transplanting them is unconditionally sound, and consecutive
// generations differ by one dirty cone — the phases that satisfied the
// previous instance are very close to satisfying the next one.
func (s *Solver) SavedPhases(n int) []bool {
	if n <= 0 || n > len(s.polarity) {
		n = len(s.polarity)
	}
	return append([]bool(nil), s.polarity[:n]...)
}

// AdoptPhases installs saved phases for the variables both solvers
// share; extra entries on either side are ignored.
func (s *Solver) AdoptPhases(p []bool) {
	copy(s.polarity, p)
}

// SavedActivity returns a copy of the branching-activity scores for the
// first n variables (all of them when n <= 0 or out of range).
func (s *Solver) SavedActivity(n int) []float64 {
	if n <= 0 || n > len(s.activity) {
		n = len(s.activity)
	}
	return append([]float64(nil), s.activity[:n]...)
}

// AdoptActivity installs saved activity scores for the variables both
// solvers share and rebuilds the decision order, so the next search
// starts branching where the previous generation's search was hot
// instead of rediscovering the formula's core from uniform scores.
// Must be called at decision level 0.
func (s *Solver) AdoptActivity(a []float64) {
	if s.decisionLevel() != 0 {
		return
	}
	copy(s.activity, a)
	s.resetOrder(cap(s.level))
}

// HarvestLearnts copies up to limit learned clauses whose variables all
// lie below maxVar and whose length is at most maxLen, preferring
// low-LBD ("glue") clauses implicitly by scanning the database in
// place. Learned clauses are consequences of the clause database alone,
// independent of any assumptions in force, so harvesting is sound at
// any decision level. maxVar <= 0 means no variable bound; maxLen <= 0
// means no length bound.
func (s *Solver) HarvestLearnts(maxVar, maxLen, limit int) [][]Lit {
	if s == nil || limit <= 0 {
		return nil
	}
	out := make([][]Lit, 0, min(limit, len(s.learned)))
	for _, c := range s.learned {
		if s.ca.deleted(c) {
			continue
		}
		if maxLen > 0 && s.ca.size(c) > maxLen {
			continue
		}
		ok := true
		if maxVar > 0 {
			for _, w := range s.ca.lits(c) {
				if int(Lit(w).Var()) >= maxVar {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		out = append(out, s.ca.appendLits(make([]Lit, 0, s.ca.size(c)), c))
		if len(out) >= limit {
			break
		}
	}
	return out
}

// ImportLearnts re-admits harvested clauses into this solver and
// returns how many were accepted. It must be called at decision level
// 0 on a solver whose problem clauses are already loaded. A candidate
// is skipped when it mentions an eliminated variable or is
// root-satisfied, has its root-false literals stripped, and must pass a
// reverse-unit-propagation check against this database, so a clause
// that depended on retired constraints is dropped rather than imported
// unsoundly. With a proof writer armed, accepted imports are logged as
// derived additions (they are RUP, so the DRAT checker accepts them).
func (s *Solver) ImportLearnts(cands [][]Lit) int {
	if s == nil || s.decisionLevel() != 0 {
		return 0
	}
	accepted := 0
	for _, cand := range cands {
		if s.rootUnsat {
			break
		}
		lits := make([]Lit, 0, len(cand))
		skip := false
		for _, l := range cand {
			if int(l.Var()) >= s.NumVars() || s.eliminated[l.Var()] {
				skip = true
				break
			}
			switch s.value(l) {
			case True:
				skip = true
			case False:
				continue
			default:
				lits = append(lits, l)
			}
			if skip {
				break
			}
		}
		if skip {
			continue
		}
		// The RUP gate: only clauses the new database already implies at
		// the unit-propagation level survive the generation change.
		if !s.rupImplied(cand) {
			continue
		}
		if s.proof != nil {
			s.proofStep(ProofAdd, cand)
		}
		s.stats.ImportedClauses++
		accepted++
		switch len(lits) {
		case 0:
			s.markRootUnsat()
		case 1:
			s.uncheckedEnqueue(lits[0], 0)
			if s.propagate() != 0 {
				s.markRootUnsat()
			}
		default:
			c := s.ca.alloc(lits, true)
			s.ca.setLBD(c, int32(len(lits)))
			s.learned = append(s.learned, c)
			s.attach(c)
		}
	}
	return accepted
}
