package sat

import "slices"

// Room is the growth a copy reserves beyond what it copies: Vars more
// variables and Clauses more clauses of up to three literals (the
// budget counters the analyzer adds to each clone have clauses of two
// and three), with their watchers. Adding that much to the copy
// reallocates nothing. The zero Room reserves nothing.
type Room struct {
	Vars, Clauses int
}

// roomClauseLen is the clause length a Room's arena words are sized for.
const roomClauseLen = 3

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
func (s *Solver) Clone() *Solver { return s.CloneWithRoom(Room{}) }

// CloneWithRoom is Clone with room for room more variables and clauses
// in the copy: the encoding cache sizes it for the failure budget each
// query adds to its clone.
func (s *Solver) CloneWithRoom(room Room) *Solver {
	s.cancelUntil(0)
	nv := len(s.level)
	vcap := nv + room.Vars
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
		vals:           withRoom(s.vals, 2*vcap),
		level:          withRoom(s.level, vcap),
		reason:         make([]cref, nv, vcap),
		trail:          withRoom(s.trail, vcap),
		activity:       withRoom(s.activity, vcap),
		polarity:       withRoom(s.polarity, vcap),
		seen:           make([]bool, nv, vcap),
		frozen:         withRoom(s.frozen, vcap),
		eliminated:     withRoom(s.eliminated, vcap),
		elimStack:      slices.Clip(s.elimStack), // append-only, so shared capacity-clipped
		wl:             make([]watchList, 2*nv, 2*vcap),
	}
	n.qhead = len(n.trail)
	n.resetOrder(vcap)
	// The delta cache clones per sealed snapshot and again per query, so
	// this copy is hot. The live clauses are copied word for word into
	// one arena (deleted clauses still on a list are left behind), and
	// attachAll gives each watch list its slots, a third of them spare.
	words, live := 1, 0
	for _, db := range [2][]cref{s.clauses, s.learned} {
		for _, c := range db {
			if !s.ca.deleted(c) {
				words += s.ca.words(c)
				live++
			}
		}
	}
	mem := make([]uint32, 1, words+room.Clauses*clauseWords(roomClauseLen, false))
	copyDB := func(src []cref, room int) []cref {
		out := make([]cref, 0, len(src)+room)
		for _, c := range src {
			if s.ca.deleted(c) {
				continue
			}
			out = append(out, cref(len(mem)))
			mem = append(mem, s.ca.mem[c:int(c)+s.ca.words(c)]...)
		}
		return out
	}
	n.clauses = copyDB(s.clauses, room.Clauses)
	n.learned = copyDB(s.learned, 0)
	n.ca.mem = mem
	// The pool's end gets room for the budget and for the search. Each
	// new clause pushes two watchers, and a list that outgrows its slots
	// moves to the pool's end with twice as many; a list attached with
	// half again its watchers first moves after half as many pushes, so
	// a push costs fewer than six slots: twelve per new clause. The
	// search moves watchers between lists, and lists keep the slots they
	// reach: a certified IEEE-57 query's first descent alone takes 40–60%
	// of the slots attachAll gives the lists (three per clause), so the
	// end has room for half of those again, and a clone compacts its
	// pool only in a long search.
	n.attachAll(12*room.Clauses + 3*live/2)
	n.stats.MaxVars = nv
	return n
}

// withRoom returns a copy of src with capacity c, or len(src) if more.
func withRoom[T any](src []T, c int) []T {
	out := make([]T, len(src), max(c, len(src)))
	copy(out, src)
	return out
}
