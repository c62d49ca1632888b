package sat

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Solver is an incremental CDCL SAT solver. Construct with New, create
// variables with NewVar, add clauses with AddClause, and call Solve
// (optionally with assumption literals). After a Sat answer, Value and
// Model expose the satisfying assignment.
type Solver struct {
	// Clause database: the pointer-free arena holding every clause
	// (arena.go) and the two lists naming them.
	ca      clauseArena
	clauses []cref // problem clauses
	learned []cref // learned clauses

	// Assignment state.
	vals     []Tribool // literal -> current value (both polarities written)
	level    []int32   // var -> decision level of assignment
	reason   []cref    // var -> antecedent clause (0 for decisions and root facts)
	trail    []Lit     // assignment stack
	trailLim []int     // decision-level boundaries in trail
	qhead    int       // propagation queue head (index into trail)

	// Watches: literal -> clauses watching that literal's negation, all
	// in one pointer-free pool (watch.go); wl[l] locates l's list there.
	wpool   []watcher
	wl      []watchList
	wwasted int // pool slots no list owns

	// Decision heuristic.
	activity []float64
	varInc   float64
	varDecay float64
	order    *activityHeap
	polarity []bool // saved phases (true = last assigned false)

	// Learned-clause management.
	clauseInc   float64
	clauseDecay float64
	maxLearned  int

	// Conflict-analysis scratch.
	seen       []bool
	analyzeTmp []Lit
	// Clause minimization scratch, reused across conflicts: the
	// first-UIP clause before minimization, the variables litRedundant
	// marked beyond it, and litRedundant's depth-first stack.
	minimizeTmp   []Lit
	minimizeMarks []Lit
	minimizeStack []Lit
	// computeLBD marks a decision level as counted by writing the
	// current lbdStamp into levelStamp[level+1].
	levelStamp []uint32
	lbdStamp   uint32

	// Scratch literal buffers, never retained: addTmp normalizes
	// AddClause input; proofBuf and origBuf hold clause literals handed
	// to the proof writer.
	addTmp   []Lit
	proofBuf []Lit
	origBuf  []Lit

	// Preprocessing state (see simplify.go). Frozen variables are exempt
	// from elimination because callers will still refer to them in future
	// clauses or assumptions; eliminated variables are resolved out of the
	// clause database and reconstructed into models by extendModel.
	frozen     []bool
	eliminated []bool
	elimStack  []elimRecord

	// Restart bookkeeping: the Luby sequence over restartBase.
	lubyIdx     int
	restartBase int

	// Budget: 0 = unlimited.
	conflictBudget uint64

	// Cooperative cancellation: polled periodically during search.
	interrupt func() bool

	// Deterministic cancellation seam: consulted after every conflict
	// with the current call's conflict count (see SetConflictHook).
	conflictHook func(conflicts uint64) bool

	// Progress probe: fired every progressEvery conflicts (see
	// SetProgress). progressNext is the conflict count of the next report.
	progress      func(Progress)
	progressEvery uint64
	progressNext  uint64

	// Event hook: fired on rare search transitions (restarts, DB
	// reductions) for the flight recorder (see SetEventHook). The
	// disabled cost is one nil-check per restart/reduction.
	eventHook func(Event)

	// Proof logging seam (see proof.go): every clause-database change —
	// inputs, learned clauses, preprocessing derivations, deletions
	// — is narrated as a DRAT step when armed. Nil outside certified
	// runs; the disabled cost is one nil-check per database change.
	proof ProofWriter

	rootUnsat bool
	stats     Stats
}

// New returns an empty solver ready for variables and clauses.
func New() *Solver {
	s := &Solver{
		varInc:      1.0,
		varDecay:    0.95,
		clauseInc:   1.0,
		clauseDecay: 0.999,
		maxLearned:  4000,
		restartBase: 100,
	}
	s.order = newActivityHeap(&s.activity)
	return s
}

// NewVar introduces a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.level))
	s.vals = append(s.vals, Unknown, Unknown)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, 0)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true)
	s.seen = append(s.seen, false)
	s.wl = append(s.wl, watchList{}, watchList{})
	s.frozen = append(s.frozen, false)
	s.eliminated = append(s.eliminated, false)
	s.order.push(v)
	s.stats.MaxVars = len(s.level)
	return v
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.level) }

// SetConflictBudget bounds the number of conflicts a single Solve may
// spend; 0 means unlimited. An exhausted budget yields Unsolved. The
// budget applies to each Solve call individually — it is not consumed
// across calls on an incrementally reused solver.
func (s *Solver) SetConflictBudget(n uint64) { s.conflictBudget = n }

// SetInterrupt installs a cancellation hook polled periodically during
// search (roughly every few hundred decisions/conflicts). When it
// returns true the current Solve unwinds to the root level and returns
// Unsolved. A nil hook disables polling. The solver remains usable for
// further Solve calls afterwards.
func (s *Solver) SetInterrupt(f func() bool) { s.interrupt = f }

// SetConflictHook installs a deterministic cancellation seam: after
// every conflict of a Solve call the hook receives the number of
// conflicts that call has spent so far, and a true return unwinds the
// search to the root level with Unsolved — exactly like an exhausted
// conflict budget, but decided by the caller. Unlike SetInterrupt
// (polled on a wall-clock-ish iteration cadence) the hook is exact and
// replayable, which is what the fault-injection harness needs to stall
// solves at reproducible points. A nil hook disables the seam; the
// disabled cost is one nil-check per conflict.
func (s *Solver) SetConflictHook(f func(conflicts uint64) bool) { s.conflictHook = f }

// SetProgress installs a progress probe fired from inside Solve every
// `every` conflicts, so long searches (multi-second unsat proofs in
// particular) are observable while they run. The callback receives a
// Progress snapshot of the cumulative counters; it runs on the solving
// goroutine and must be fast and must not call back into the solver.
// A nil callback or every == 0 disables the probe. The disabled cost is
// one nil-check per conflict.
func (s *Solver) SetProgress(every uint64, f func(Progress)) {
	if f == nil || every == 0 {
		s.progress, s.progressEvery, s.progressNext = nil, 0, 0
		return
	}
	s.progress = f
	s.progressEvery = every
	s.progressNext = s.stats.Conflicts + every
}

// SetEventHook installs a hook fired on coarse search transitions —
// each restart and each learned-DB reduction — with the cumulative
// counters at that point. Events are orders of magnitude rarer than
// conflicts, so the hook may do slightly more work than a progress
// probe (e.g. append to a mutex-guarded ring), but it still runs on
// the solving goroutine and must not call back into the solver. A nil
// hook disables the seam; the disabled cost is one nil-check per
// restart and per reduction.
func (s *Solver) SetEventHook(f func(Event)) { s.eventHook = f }

// fireEvent delivers a solver event to the hook, if armed.
func (s *Solver) fireEvent(kind EventKind) {
	if s.eventHook == nil {
		return
	}
	s.eventHook(Event{
		Kind:         kind,
		Conflicts:    s.stats.Conflicts,
		Decisions:    s.stats.Decisions,
		Propagations: s.stats.Propagations,
		Restarts:     s.stats.Restarts,
		Reduces:      s.stats.Reduces,
		LearntDB:     len(s.learned),
	})
}

// progressSnapshot builds the probe's view of the search.
func (s *Solver) progressSnapshot() Progress {
	return Progress{
		Conflicts:    s.stats.Conflicts,
		Decisions:    s.stats.Decisions,
		Propagations: s.stats.Propagations,
		Restarts:     s.stats.Restarts,
		Reduces:      s.stats.Reduces,
		LearntDB:     len(s.learned),
		Level:        s.decisionLevel(),
	}
}

// Stats returns a snapshot of the solver counters.
func (s *Solver) Stats() Stats {
	st := s.stats
	st.Clauses = len(s.clauses)
	return st
}

// value returns l's truth value: one load, since the assignment is
// indexed by literal and enqueue and backtrack write both polarities.
func (s *Solver) value(l Lit) Tribool { return s.vals[l] }

// Value returns the truth value of v in the current assignment. It is
// meaningful for all variables after Solve returned Sat.
func (s *Solver) Value(v Var) Tribool {
	if int(v) >= len(s.level) {
		return Unknown
	}
	return s.vals[PosLit(v)]
}

// Model returns the satisfying assignment as a slice indexed by variable.
// Unassigned variables (possible for variables outside every clause)
// default to false. Valid only after Solve returned Sat.
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.level))
	for v := range m {
		m[v] = s.vals[PosLit(Var(v))] == True
	}
	return m
}

// AddClause adds a clause over the given literals. Duplicate literals are
// merged and tautologies are ignored. Adding the empty clause (or a
// clause falsified at the root level) makes the instance unsat; further
// additions are no-ops that keep the instance unsat.
func (s *Solver) AddClause(lits ...Lit) error {
	if s.rootUnsat {
		return nil
	}
	if s.decisionLevel() != 0 {
		s.cancelUntil(0)
	}
	// Normalize in two passes. The first sorts, dedupes, and detects
	// tautologies; the proof logs the clause at this point — before
	// root-value filtering — so the recorded input formula is exactly
	// what the caller asserted (the checker mirrors root units by its
	// own propagation, making the filtered clause the solver stores
	// propagation-equivalent). The second pass drops root-false
	// literals and root-satisfied clauses.
	tmp := append(s.addTmp[:0], lits...)
	s.addTmp = tmp
	slices.Sort(tmp)
	ded := tmp[:0]
	var prev Lit = LitUndef
	for _, l := range tmp {
		if int(l.Var()) >= len(s.level) || l < 0 {
			return fmt.Errorf("sat: literal %v uses an undeclared variable", l)
		}
		if s.eliminated[l.Var()] {
			return fmt.Errorf("sat: literal %v uses a variable eliminated by Simplify (Freeze it before simplifying)", l)
		}
		if l == prev {
			continue
		}
		if prev != LitUndef && l == prev.Neg() {
			return nil // tautology
		}
		ded = append(ded, l)
		prev = l
	}
	if !s.ca.room(len(ded), false) {
		return fmt.Errorf("sat: clause database exceeds 2^32 words")
	}
	s.proofStep(ProofInput, ded)
	out := ded[:0]
	for _, l := range ded {
		switch s.value(l) {
		case True:
			return nil // already satisfied at root
		case False:
			continue // drop
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.markRootUnsat()
		return nil
	case 1:
		s.uncheckedEnqueue(out[0], 0)
		if s.propagate() != 0 {
			s.markRootUnsat()
		}
		return nil
	}
	c := s.ca.alloc(out, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return nil
}

func (s *Solver) attach(c cref) {
	// Watch the first two literals. Watch lists are indexed by the
	// negation of the watched literal: when that literal becomes false
	// the clause must be inspected.
	w0, w1 := s.ca.lit(c, 0), s.ca.lit(c, 1)
	s.pushWatch(w0.Neg(), watcher{c: c, blocker: int32(w1)})
	s.pushWatch(w1.Neg(), watcher{c: c, blocker: int32(w0)})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.vals[l], s.vals[l^1] = True, False
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// 0 if a fixpoint was reached without conflict.
func (s *Solver) propagate() cref {
	ca := s.ca.mem
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; clauses watching p must move
		s.qhead++
		ws := s.watchesOf(p)
		j := 0
		var conflict cref
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if conflict != 0 {
				j += copy(ws[j:], ws[wi:])
				break
			}
			blocker := Lit(w.blocker)
			if s.value(blocker) == True {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			h := ca[c]
			if h&clDeleted != 0 {
				continue
			}
			b := int(c) + clHeader
			if h>>clSizeShift == 2 {
				// Binary fast path: the blocker is the other literal (attach
				// keeps this invariant — binary clauses never move watches),
				// and it is not True (checked above), so the clause is unit
				// or conflicting without scanning the literal array. 95% of
				// the grid encodings' clauses have <= 3 literals, so this
				// skips the watch-move machinery for the bulk of the
				// propagation traffic.
				bl := ca[b : b+2 : b+2]
				ws[j] = w
				j++
				if s.value(blocker) == False {
					conflict = c
					s.qhead = len(s.trail)
					continue
				}
				if Lit(bl[0]) != blocker {
					// Reason clauses carry the implied literal at slot 0
					// (analyze relies on it).
					bl[0], bl[1] = bl[1], bl[0]
				}
				s.stats.Propagations++
				s.uncheckedEnqueue(blocker, c)
				continue
			}
			lits := ca[b : b+int(h>>clSizeShift)]
			// Ensure the false watched literal is at position 1.
			if falseLit := uint32(p.Neg()); lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := Lit(lits[0])
			if first != blocker && s.value(first) == True {
				ws[j] = watcher{c: c, blocker: int32(first)}
				j++
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(lits); k++ {
				if s.value(Lit(lits[k])) != False {
					lits[1], lits[k] = lits[k], lits[1]
					s.pushWatch(Lit(lits[1]).Neg(), watcher{c: c, blocker: int32(first)})
					// The push may have moved the pool: re-slice p's
					// list, which keeps its length until the scan ends.
					o := s.wl[p].off
					ws = s.wpool[o : o+uint32(len(ws))]
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c: c, blocker: int32(first)}
			j++
			if s.value(first) == False {
				conflict = c
				s.qhead = len(s.trail)
				continue
			}
			s.stats.Propagations++
			s.uncheckedEnqueue(first, c)
		}
		s.wl[p].n = uint32(j)
		if conflict != 0 {
			return conflict
		}
	}
	return 0
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = l.Sign() // l is the true literal on the trail
		s.vals[l], s.vals[l^1] = Unknown, Unknown
		s.reason[v] = 0
		s.level[v] = -1
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.order.rebuild()
	}
	s.order.update(v)
}

// bumpClause raises a learned clause's activity. Problem clauses carry
// no activity (reduction never ranks them), so they are skipped, as in
// MiniSat.
func (s *Solver) bumpClause(c cref) {
	if !s.ca.learned(c) {
		return
	}
	act := s.ca.act(c) + s.clauseInc
	s.ca.setAct(c, act)
	if act > 1e20 {
		for _, lc := range s.learned {
			s.ca.setAct(lc, s.ca.act(lc)*1e-20)
		}
		s.clauseInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backjump level. The clause
// is scratch: it stays valid until the next analyze call.
func (s *Solver) analyze(conflict cref) ([]Lit, int) {
	learnt := s.analyzeTmp[:0]
	learnt = append(learnt, LitUndef) // slot for the asserting literal
	counter := 0
	var p Lit = LitUndef
	idx := len(s.trail) - 1
	c := conflict

	for {
		s.bumpClause(c)
		lits := s.ca.lits(c)
		if p != LitUndef {
			lits = lits[1:] // lits[0] is p for reason clauses
		}
		for _, w := range lits {
			q := Lit(w)
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next trail literal to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
		// Reason clauses store the implied literal first; normalize.
		if rl := s.ca.lits(c); Lit(rl[0]) != p {
			for k := 1; k < len(rl); k++ {
				if Lit(rl[k]) == p {
					rl[0], rl[k] = rl[k], rl[0]
					break
				}
			}
		}
	}
	learnt[0] = p.Neg()

	// Recursive clause minimization (MiniSat's, Sörensson & Biere 2009):
	// drop a literal whose reason chain ends in literals of the clause
	// or at level 0. Snapshot the clause first: the in-place compaction
	// below overwrites dropped literals, and every seen flag, the
	// clause's own and those litRedundant left, is cleared afterwards.
	s.minimizeTmp = append(s.minimizeTmp[:0], learnt...)
	s.minimizeMarks = s.minimizeMarks[:0]
	var levels uint32
	for _, l := range learnt[1:] {
		levels |= abstractLevel(s.level[l.Var()])
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		l := learnt[i]
		if s.reason[l.Var()] == 0 || !s.litRedundant(l, levels) {
			learnt[j] = l
			j++
		}
	}
	for _, l := range s.minimizeTmp {
		s.seen[l.Var()] = false
	}
	for _, l := range s.minimizeMarks {
		s.seen[l.Var()] = false
	}
	minimized := learnt[:j]

	// Compute backjump level (second-highest level in the clause).
	back := 0
	if len(minimized) > 1 {
		maxIdx := 1
		for i := 2; i < len(minimized); i++ {
			if s.level[minimized[i].Var()] > s.level[minimized[maxIdx].Var()] {
				maxIdx = i
			}
		}
		minimized[1], minimized[maxIdx] = minimized[maxIdx], minimized[1]
		back = int(s.level[minimized[1].Var()])
	}
	s.analyzeTmp = learnt[:0]
	return minimized, back
}

// abstractLevel folds a decision level into one bit of a 32-bit mask,
// so a set of levels can be tested for membership in one AND. Distinct
// levels may share a bit; the mask only rules levels out.
func abstractLevel(level int32) uint32 { return 1 << (level & 31) }

// litRedundant reports whether literal l of a learned clause is implied
// by the clause's other literals: a depth-first walk of l's reason
// graph must end in marked (seen) variables and level-0 facts. It
// follows an implied variable only if its level's bit is in levels (the
// clause's abstract levels); a decision, an assumption or a level the
// clause lacks fails the walk. A success leaves the variables it
// visited marked, and listed in minimizeMarks, so later literals reuse
// them; a failure unmarks exactly those this call marked.
func (s *Solver) litRedundant(l Lit, levels uint32) bool {
	stack := append(s.minimizeStack[:0], l)
	top := len(s.minimizeMarks)
	for len(stack) > 0 {
		v := stack[len(stack)-1].Var()
		stack = stack[:len(stack)-1]
		for _, w := range s.ca.lits(s.reason[v]) {
			q := Lit(w)
			u := q.Var()
			if u == v || s.seen[u] || s.level[u] == 0 {
				continue
			}
			if s.reason[u] == 0 || abstractLevel(s.level[u])&levels == 0 {
				for _, m := range s.minimizeMarks[top:] {
					s.seen[m.Var()] = false
				}
				s.minimizeMarks = s.minimizeMarks[:top]
				s.minimizeStack = stack
				return false
			}
			s.seen[u] = true
			stack = append(stack, q)
			s.minimizeMarks = append(s.minimizeMarks, q)
		}
	}
	s.minimizeStack = stack
	return true
}

// computeLBD counts the distinct decision levels in a clause. A level
// counts once: the first literal at it stamps levelStamp[level+1] with
// this call's stamp. record calls it after backjumping, so the
// asserting literal is unassigned and counts as level -1.
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdStamp++
	if s.lbdStamp == 0 { // wrapped: old stamps could collide
		clear(s.levelStamp)
		s.lbdStamp = 1
	}
	if need := s.decisionLevel() + 2; len(s.levelStamp) < need {
		s.levelStamp = append(s.levelStamp, make([]uint32, need-len(s.levelStamp))...)
	}
	n := int32(0)
	for _, l := range lits {
		if i := s.level[l.Var()] + 1; s.levelStamp[i] != s.lbdStamp {
			s.levelStamp[i] = s.lbdStamp
			n++
		}
	}
	return n
}

func (s *Solver) record(lits []Lit) {
	// First-UIP clauses (minimization included) are RUP by construction.
	s.proofStep(ProofAdd, lits)
	if len(lits) == 1 {
		s.uncheckedEnqueue(lits[0], 0)
		return
	}
	lbd := s.computeLBD(lits)
	c := s.ca.alloc(lits, true)
	s.ca.setLBD(c, lbd)
	s.learned = append(s.learned, c)
	s.stats.Learned++
	s.attach(c)
	s.bumpClause(c)
	s.uncheckedEnqueue(lits[0], c)
}

// reduceDB discards roughly half the learned clauses, preferring high-LBD
// low-activity ones. Clauses currently acting as reasons are kept.
func (s *Solver) reduceDB() {
	s.stats.Reduces++
	sort.Slice(s.learned, func(i, j int) bool {
		a, b := s.learned[i], s.learned[j]
		if la, lb := s.ca.lbd(a), s.ca.lbd(b); la != lb {
			return la < lb
		}
		return s.ca.act(a) > s.ca.act(b)
	})
	keepFrom := len(s.learned) / 2
	kept := s.learned[:0]
	for i, c := range s.learned {
		if i < keepFrom || s.ca.lbd(c) <= 2 || s.isReason(c) {
			kept = append(kept, c)
			continue
		}
		s.ca.markDeleted(c)
		s.ca.drop(c)
		s.stats.Removed++
		s.proofClause(ProofDelete, c)
	}
	s.learned = kept
	s.cleanWatches()
	s.maybeCompact()
	s.fireEvent(EventReduce)
}

// cleanWatches drops watchers of deleted clauses and shrinks watch lists
// whose slots grew far beyond their live size, so steady-state
// propagation neither scans dead entries nor pins peak-sized lists. The
// cut slots are waste, and the pool compacts once waste passes half.
func (s *Solver) cleanWatches() {
	for l := range s.wl {
		wl := &s.wl[l]
		ws := s.wpool[wl.off : wl.off+wl.n]
		j := 0
		for _, w := range ws {
			if !s.ca.deleted(w.c) {
				ws[j] = w
				j++
			}
		}
		wl.n = uint32(j)
		if wl.cap >= 16 && wl.cap > 4*wl.n {
			s.wwasted += int(wl.cap - wl.n)
			wl.cap = wl.n
		}
	}
	if 2*s.wwasted > len(s.wpool) {
		s.compactWatches(0)
	}
}

func (s *Solver) isReason(c cref) bool {
	// Clause literals get permuted by watch maintenance, so the implied
	// literal is not necessarily at position 0: scan all of them.
	for _, w := range s.ca.lits(c) {
		v := Lit(w).Var()
		if s.vals[PosLit(v)] != Unknown && s.reason[v] == c {
			return true
		}
	}
	return false
}

func (s *Solver) pickBranchLit() Lit {
	for !s.order.empty() {
		v := s.order.pop()
		if s.vals[PosLit(v)] == Unknown && !s.eliminated[v] {
			return MkLit(v, s.polarity[v])
		}
	}
	return LitUndef
}

func luby(i int) int {
	// Luby sequence: 1,1,2,1,1,2,4,...
	for k := 1; ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i >= 1<<k {
			continue
		}
		return luby(i - (1 << (k - 1)) + 1)
	}
}

// nextRestartLimit returns the number of conflicts allowed before the
// next restart: the Luby sequence over restartBase.
func (s *Solver) nextRestartLimit() int {
	return s.restartBase * luby(s.lubyIdx+1)
}

// interruptPollInterval is how many search-loop iterations pass between
// polls of the interrupt hook: frequent enough for sub-millisecond
// cancellation latency, rare enough that the indirect call never shows
// up in profiles.
const interruptPollInterval = 256

// Solve searches for a satisfying assignment consistent with the given
// assumption literals. It returns Sat, Unsat, or Unsolved if the conflict
// budget was exhausted or the interrupt hook fired. Per-call wall time
// and the call count accumulate into Stats.
func (s *Solver) Solve(assumptions ...Lit) Status {
	start := time.Now()
	defer func() {
		s.stats.Solves++
		s.stats.SolveTime += time.Since(start)
	}()
	if s.rootUnsat {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != 0 {
		s.markRootUnsat()
		return Unsat
	}

	var conflicts uint64
	restartLimit := s.nextRestartLimit()
	conflictsAtRestart := 0
	sinceInterruptPoll := 0

	for {
		if s.interrupt != nil {
			sinceInterruptPoll++
			if sinceInterruptPoll >= interruptPollInterval {
				sinceInterruptPoll = 0
				if s.interrupt() {
					s.cancelUntil(0)
					return Unsolved
				}
			}
		}
		conflict := s.propagate()
		if conflict != 0 {
			s.stats.Conflicts++
			conflicts++
			conflictsAtRestart++
			if s.progress != nil && s.stats.Conflicts >= s.progressNext {
				s.progressNext = s.stats.Conflicts + s.progressEvery
				s.progress(s.progressSnapshot())
			}
			if s.decisionLevel() == 0 {
				s.markRootUnsat()
				return Unsat
			}
			learnt, back := s.analyze(conflict)
			s.cancelUntil(back)
			s.record(learnt)
			s.varInc /= s.varDecay
			s.clauseInc /= s.clauseDecay
			if s.conflictBudget > 0 && conflicts >= s.conflictBudget {
				s.cancelUntil(0)
				return Unsolved
			}
			if s.conflictHook != nil && s.conflictHook(conflicts) {
				s.cancelUntil(0)
				return Unsolved
			}
			continue
		}

		if conflictsAtRestart >= restartLimit {
			// Restart; assumptions are re-enqueued on the next descent.
			s.lubyIdx++
			s.stats.Restarts++
			restartLimit = s.nextRestartLimit()
			conflictsAtRestart = 0
			s.cancelUntil(0)
			s.fireEvent(EventRestart)
			continue
		}
		if len(s.learned) > s.maxLearned+len(s.trail) {
			s.reduceDB()
		}

		// Place assumptions as pseudo-decisions before free decisions.
		next, pending := s.nextAssumption(assumptions)
		if pending {
			if next == LitUndef {
				// An assumption is falsified by the current forced
				// assignment: unsat under these assumptions.
				s.cancelUntil(0)
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(next, 0)
			continue
		}

		l := s.pickBranchLit()
		if l == LitUndef {
			s.extendModel()
			return Sat
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(l, 0)
	}
}

// nextAssumption returns the next assumption to decide on. The second
// result is false when all assumptions are already enqueued. A LitUndef
// first result signals an assumption that is false under the current
// (root-level) assignment.
func (s *Solver) nextAssumption(assumptions []Lit) (Lit, bool) {
	for s.decisionLevel() < len(assumptions) {
		a := assumptions[s.decisionLevel()]
		switch s.value(a) {
		case True:
			// Already satisfied; open an empty pseudo-level to keep
			// level bookkeeping aligned with the assumption index.
			s.trailLim = append(s.trailLim, len(s.trail))
			continue
		case False:
			return LitUndef, true
		default:
			return a, true
		}
	}
	return 0, false
}
