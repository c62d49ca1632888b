package sat

import "slices"

// Clone returns an independent deep copy of the solver at the root
// level: variables, root-level assignments, problem and learned clauses,
// watches, activities, saved phases, and the elimination stack of a
// previous Simplify all carry over; per-solve hooks (interrupt, conflict
// hook, progress probe, proof writer) and the cumulative statistics do
// not. The copy shares no mutable state with the original, so clones
// may be solved concurrently — this is what the encoding cache hands
// out per query.
//
// Clone must be taken at decision level 0 (any active search is unwound
// first). Root-level antecedents are dropped in the copy: conflict
// analysis never resolves on level-0 assignments, so reasons there are
// dead weight.
func (s *Solver) Clone() *Solver {
	s.cancelUntil(0)
	nv := len(s.assigns)
	n := &Solver{
		varInc:         s.varInc,
		varDecay:       s.varDecay,
		clauseInc:      s.clauseInc,
		clauseDecay:    s.clauseDecay,
		maxLearned:     s.maxLearned,
		restartBase:    s.restartBase,
		lubyIdx:        s.lubyIdx,
		conflictBudget: s.conflictBudget,
		rootUnsat:      s.rootUnsat,
		assigns:        append([]Tribool(nil), s.assigns...),
		level:          append([]int(nil), s.level...),
		reason:         make([]cref, nv),
		trail:          append([]Lit(nil), s.trail...),
		activity:       append([]float64(nil), s.activity...),
		polarity:       append([]bool(nil), s.polarity...),
		seen:           make([]bool, nv),
		frozen:         append([]bool(nil), s.frozen...),
		eliminated:     append([]bool(nil), s.eliminated...),
		elimStack:      slices.Clip(s.elimStack), // append-only, so shared capacity-clipped
		watches:        make([][]watcher, 2*nv),
		wn:             make([]int32, 2*nv),
	}
	n.qhead = len(n.trail)
	n.resetOrder()
	// The delta cache clones per sealed snapshot and again per query, so
	// this copy is hot. The live clauses are copied word for word into
	// one exactly sized arena (deleted clauses still on a list are left
	// behind), and the watch lists are pre-partitioned from one shared
	// watcher buffer so attach never grows a list.
	live, words := 0, 1
	count := func(src []cref) {
		for _, c := range src {
			if !s.ca.deleted(c) {
				live++
				words += s.ca.words(c)
			}
		}
	}
	count(s.clauses)
	count(s.learned)
	if live > 0 {
		mem := make([]uint32, 1, words)
		wcount := make([]int32, 2*nv)
		copyDB := func(src []cref) []cref {
			out := make([]cref, 0, len(src))
			for _, c := range src {
				if s.ca.deleted(c) {
					continue
				}
				out = append(out, cref(len(mem)))
				mem = append(mem, s.ca.mem[c:int(c)+s.ca.words(c)]...)
				wcount[s.ca.lit(c, 0).Neg()]++
				wcount[s.ca.lit(c, 1).Neg()]++
			}
			return out
		}
		n.clauses = copyDB(s.clauses)
		n.learned = copyDB(s.learned)
		n.ca.mem = mem
		wbuf := make([]watcher, 2*live)
		off := 0
		for i, w := range wcount {
			if w == 0 {
				continue
			}
			n.watches[i] = wbuf[off : off+int(w) : off+int(w)]
			off += int(w)
		}
		for _, c := range n.clauses {
			n.attach(c)
		}
		for _, c := range n.learned {
			n.attach(c)
		}
	}
	n.stats.MaxVars = nv
	return n
}
