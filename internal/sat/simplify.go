package sat

import (
	"slices"
	"time"
)

// Preprocessing (SatELite-style, Eén & Biere 2005): unit propagation to
// fixpoint, failed-literal probing, backward subsumption, self-subsuming
// resolution, and bounded variable elimination with model
// reconstruction. Simplify rewrites the problem-clause database into an
// equisatisfiable, typically much smaller one before CDCL search starts.
//
// The solver stays incrementally usable afterwards under one contract:
// variables the caller will mention again — in future AddClause calls or
// as Solve assumptions — must be Frozen before Simplify, which exempts
// them from elimination. Eliminated variables are resolved out of the
// clause database entirely; their values are reconstructed into every
// satisfying model by extendModel, so Model and Value keep reporting
// them correctly.

// Bounds keeping preprocessing cheap relative to search. Probing is
// capped per Simplify call; elimination skips variables with large
// occurrence lists (resolving them is quadratic and rarely pays off on
// the structured formulas the encoder emits) and never grows the
// formula: a variable is eliminated only when the non-tautological
// resolvents number at most the clauses they replace plus elimGrow.
// Subsumption and elimination alternate for at most simplifyRounds
// rounds.
const (
	simplifyProbeLimit = 4096
	elimOccLimit       = 40
	elimGrow           = 0
	simplifyRounds     = 10
)

// elimRecord remembers, for one eliminated variable, the clauses in
// which it occurred positively at elimination time (snapshots including
// the variable itself). That one side suffices for reconstruction: in a
// model of the simplified formula the variable must be true iff some of
// these clauses is not satisfied by its other literals — were both a
// positive and a negative occurrence clause otherwise-false, their
// resolvent (which Simplify added) would be falsified too.
type elimRecord struct {
	v   Var
	pos [][]Lit
}

// Freeze exempts v from variable elimination in future Simplify calls.
// Callers must freeze every variable they will still refer to after
// simplification — in added clauses, assumptions, or Block-style model
// queries by name. Freezing an already-frozen variable is a no-op.
func (s *Solver) Freeze(v Var) { s.frozen[v] = true }

// Eliminated reports whether v was removed by a previous Simplify.
func (s *Solver) Eliminated(v Var) bool { return s.eliminated[v] }

// Simplify preprocesses the clause database at the root level:
// propagates to fixpoint, probes literals for failed assignments,
// removes subsumed clauses, strengthens clauses by self-subsuming
// resolution, and eliminates non-frozen variables by bounded resolution.
// It reports false when preprocessing proves the instance unsatisfiable
// (subsequent Solve calls return Unsat immediately). Learned clauses are
// discarded — they are logically redundant — so Simplify is best called
// once, after the structural encoding and before search.
func (s *Solver) Simplify() bool {
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

	s.probeFailedLiterals(simplifyProbeLimit)
	if s.rootUnsat {
		return false
	}

	p := newSimplifier(s)
	if !p.run() {
		s.markRootUnsat()
	}
	p.rebuild()
	return !s.rootUnsat
}

// probeFailedLiterals assumes each candidate literal at a fresh decision
// level and propagates: a conflict proves the literal's negation at the
// root ("failed literal"). Watches are still attached here, so this is
// plain unit propagation, bounded by maxProbes assumptions per call.
//
// A probe that ends without conflict stamps every literal it implied
// with the current epoch, and a later candidate stamped in the current
// epoch is skipped: what it implies is a subset of that conflict-free
// closure, so it cannot fail. A failed literal adds root units, which
// can make any probe fail, so it starts a new epoch. Skipped candidates
// still count against maxProbes, which keeps the failed literals, the
// root units and the proof those of probing every candidate. Only the
// saved phases and watch order a skipped probe would have left differ
// (Simplify rebuilds the watches anyway).
func (s *Solver) probeFailedLiterals(maxProbes int) {
	implied := make([]uint32, len(s.vals))
	epoch := uint32(1)
	probes := 0
	for v := Var(0); int(v) < len(s.level); v++ {
		if probes >= maxProbes {
			return
		}
		if s.vals[PosLit(v)] != Unknown || s.eliminated[v] {
			continue
		}
		for _, l := range [2]Lit{PosLit(v), NegLit(v)} {
			if s.value(l) != Unknown {
				continue
			}
			probes++
			if implied[l] == epoch {
				continue
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(l, 0)
			conflict := s.propagate()
			if conflict == 0 {
				for _, m := range s.trail[s.trailLim[0]:] {
					implied[m] = epoch
				}
				s.cancelUntil(0)
				continue
			}
			s.cancelUntil(0)
			epoch++
			s.stats.FailedLits++
			// A failed literal's negation is a RUP unit: assuming l and
			// propagating is exactly the RUP check of {¬l}.
			s.proofStep(ProofAdd, []Lit{l.Neg()})
			s.uncheckedEnqueue(l.Neg(), 0)
			if s.propagate() != 0 {
				s.markRootUnsat()
				return
			}
		}
	}
}

// simplifier is the occurrence-list workspace of one Simplify call. The
// clause database is copied into an indexed working set (watches play no
// role here); occurrence lists are kept exact — a clause index appears
// in occ[l] iff the live clause contains l — so subsumption candidates
// and resolution partners come straight off the lists.
type simplifier struct {
	s       *Solver
	cls     []simpClause
	occ     [][]int
	queue   []int // clause indices pending backward subsumption
	inQueue []bool
	units   []Lit // root assignments pending application to the working set
	rounds  int   // subsumption/elimination rounds run() has started

	// touched marks, per variable, that a clause containing it was added,
	// killed or strengthened since the variable's last elimination
	// attempt. Only touched variables can pass the elimination bound
	// after failing it once (see eliminateRound).
	touched []bool

	// Scratch reused across calls, never retained: marks[l] == mark
	// flags the literals of the positive clause countResolvents is
	// pairing; res holds the resolvents of an elimination back to back
	// and resEnd their end offsets; cand and occBuf hold copies of
	// occurrence lists that are edited while being walked; orig holds a
	// clause's pre-strengthening literals for the proof.
	marks  []uint32
	mark   uint32
	res    []Lit
	resEnd []int
	cand   []int
	occBuf []int
	orig   []Lit
}

type simpClause struct {
	lits []Lit // sorted ascending, deduped
	dead bool
}

func newSimplifier(s *Solver) *simplifier {
	p := &simplifier{
		s:       s,
		occ:     make([][]int, len(s.vals)),
		touched: make([]bool, len(s.level)),
		marks:   make([]uint32, len(s.vals)),
	}
	for i := range p.touched {
		p.touched[i] = true
	}
	// One literal slab for the working set, each clause a
	// capacity-clipped segment so in-place strengthening stays inside
	// it, and one slab presizing the occurrence lists.
	nlits := 0
	for _, c := range s.clauses {
		if !s.ca.deleted(c) {
			nlits += s.ca.size(c)
		}
	}
	slab := make([]Lit, 0, nlits)
	work := make([][]Lit, 0, len(s.clauses))
	for _, c := range s.clauses {
		if s.ca.deleted(c) {
			continue
		}
		lo := len(slab)
		satisfied := false
		for _, w := range s.ca.lits(c) {
			switch l := Lit(w); s.value(l) {
			case True:
				satisfied = true
			case False:
				// drop
			default:
				slab = append(slab, l)
			}
			if satisfied {
				break
			}
		}
		if satisfied {
			slab = slab[:lo]
			continue
		}
		lits := slab[lo:len(slab):len(slab)]
		slices.Sort(lits)
		work = append(work, lits)
	}
	occN := make([]int, len(p.occ))
	for _, l := range slab {
		occN[l]++
	}
	occSlab := make([]int, len(slab))
	off := 0
	for l, n := range occN {
		p.occ[l] = occSlab[off : off : off+n]
		off += n
	}
	p.cls = make([]simpClause, 0, len(work))
	p.inQueue = make([]bool, 0, len(work))
	for _, lits := range work {
		p.addClause(lits)
	}
	// The working set replaces the watched representation entirely
	// (rebuild lays out fresh watch lists). Discarded learned clauses
	// are logged as deletions so a forward checker's database tracks
	// the solver's.
	if s.proof != nil {
		for _, c := range s.learned {
			if !s.ca.deleted(c) {
				s.proofClause(ProofDelete, c)
			}
		}
	}
	s.learned = nil
	return p
}

// addClause inserts a working clause (sorted lits), routing empty and
// unit clauses to the root assignment machinery.
func (p *simplifier) addClause(lits []Lit) {
	switch len(lits) {
	case 0:
		p.s.markRootUnsat()
	case 1:
		p.units = append(p.units, lits[0])
	default:
		ci := len(p.cls)
		p.cls = append(p.cls, simpClause{lits: lits})
		p.inQueue = append(p.inQueue, false)
		for _, l := range lits {
			p.occ[l] = append(p.occ[l], ci)
		}
		p.touch(lits)
		p.push(ci)
	}
}

// touch marks every variable of lits for another elimination attempt.
func (p *simplifier) touch(lits []Lit) {
	for _, l := range lits {
		p.touched[l.Var()] = true
	}
}

func (p *simplifier) push(ci int) {
	if !p.inQueue[ci] {
		p.inQueue[ci] = true
		p.queue = append(p.queue, ci)
	}
}

func (p *simplifier) removeOcc(l Lit, ci int) {
	list := p.occ[l]
	for i, c := range list {
		if c == ci {
			list[i] = list[len(list)-1]
			p.occ[l] = list[:len(list)-1]
			return
		}
	}
}

func (p *simplifier) kill(ci int) {
	c := &p.cls[ci]
	if c.dead {
		return
	}
	c.dead = true
	p.s.proofStep(ProofDelete, c.lits)
	for _, l := range c.lits {
		p.removeOcc(l, ci)
	}
	p.touch(c.lits)
}

// killAll kills every clause on list. It walks a copy: each kill edits
// the occurrence lists, list among them.
func (p *simplifier) killAll(list []int) {
	p.occBuf = append(p.occBuf[:0], list...)
	for _, ci := range p.occBuf {
		p.kill(ci)
	}
}

// removeLit strengthens clause ci by deleting literal l, killing the
// clause if it degenerates to a unit (the unit is queued as a root
// assignment, which supersedes the clause). Reports false on refutation.
func (p *simplifier) removeLit(ci int, l Lit) bool {
	c := &p.cls[ci]
	if c.dead {
		return true
	}
	// Proof: strengthening is an Add of the shorter clause followed by
	// a Delete of the original (in that order — the Add is RUP while
	// the original still backs it). The compaction below mutates c.lits
	// in place, so the original is snapshotted first.
	var orig []Lit
	if p.s.proof != nil {
		p.orig = append(p.orig[:0], c.lits...)
		orig = p.orig
	}
	p.touch(c.lits)
	p.removeOcc(l, ci)
	lits := c.lits[:0]
	for _, q := range c.lits {
		if q != l {
			lits = append(lits, q)
		}
	}
	c.lits = lits
	switch len(lits) {
	case 0:
		p.s.markRootUnsat()
		return false
	case 1:
		if p.s.proof != nil {
			p.s.proofStep(ProofAdd, lits)
			p.s.proofStep(ProofDelete, orig)
		}
		p.units = append(p.units, lits[0])
		// Detach the remaining occurrence; the pending root assignment
		// subsumes the clause.
		p.removeOcc(lits[0], ci)
		c.dead = true
		return true
	}
	if p.s.proof != nil {
		p.s.proofStep(ProofAdd, lits)
		p.s.proofStep(ProofDelete, orig)
	}
	p.push(ci)
	return true
}

// drainUnits applies pending root assignments to the working set:
// satisfied clauses die, falsified occurrences are removed (possibly
// cascading into further units). Reports false on refutation.
func (p *simplifier) drainUnits() bool {
	for len(p.units) > 0 {
		l := p.units[0]
		p.units = p.units[1:]
		switch p.s.value(l) {
		case True:
			continue
		case False:
			p.s.markRootUnsat()
			return false
		}
		p.s.uncheckedEnqueue(l, 0)
		p.killAll(p.occ[l])
		p.occBuf = append(p.occBuf[:0], p.occ[l.Neg()]...)
		for _, ci := range p.occBuf {
			if !p.removeLit(ci, l.Neg()) {
				return false
			}
		}
	}
	return true
}

// run drives simplification to fixpoint: subsumption sweeps alternate
// with elimination rounds until neither makes progress.
func (p *simplifier) run() bool {
	if !p.drainUnits() {
		return false
	}
	for p.rounds < simplifyRounds {
		p.rounds++
		if !p.subsumeAll() {
			return false
		}
		if p.eliminateRound() == 0 || p.s.rootUnsat {
			break
		}
	}
	return !p.s.rootUnsat
}

// subsumeAll processes the backward-subsumption queue: each queued
// clause C kills every live clause it subsumes and strengthens every
// clause it self-subsumes (C = A∨l, D ⊇ A∨¬l ⟹ ¬l leaves D).
// Candidates come from the occurrence list of C's rarest literal, the
// standard SatELite narrowing.
func (p *simplifier) subsumeAll() bool {
	for len(p.queue) > 0 {
		ci := p.queue[0]
		p.queue = p.queue[1:]
		p.inQueue[ci] = false
		c := &p.cls[ci]
		if c.dead || len(c.lits) == 0 {
			continue
		}
		best := c.lits[0]
		for _, l := range c.lits[1:] {
			if len(p.occ[l]) < len(p.occ[best]) {
				best = l
			}
		}
		// Candidates containing best are (possibly self-) subsumed;
		// candidates containing ¬best can only be strengthened with the
		// flip on best itself, which the merge walk also detects.
		p.cand = append(append(p.cand[:0], p.occ[best]...), p.occ[best.Neg()]...)
		for _, di := range p.cand {
			if di == ci || p.cls[di].dead || c.dead {
				continue
			}
			d := &p.cls[di]
			if len(d.lits) < len(c.lits) {
				continue
			}
			flip, ok := subsume(c.lits, d.lits)
			if !ok {
				continue
			}
			if flip == LitUndef {
				p.s.stats.SubsumedClauses++
				p.kill(di)
				continue
			}
			p.s.stats.StrengthenedClauses++
			if !p.removeLit(di, flip.Neg()) {
				return false
			}
			if !p.drainUnits() {
				return false
			}
		}
	}
	return true
}

// subsume reports whether c subsumes d (both sorted ascending), allowing
// at most one sign-flipped variable. A LitUndef flip with ok means plain
// subsumption (c ⊆ d); a concrete flip l means c contains l while d
// contains ¬l and is otherwise a superset — self-subsuming resolution
// may remove ¬l from d.
func subsume(c, d []Lit) (flip Lit, ok bool) {
	flip = LitUndef
	i, j := 0, 0
	for i < len(c) {
		if j >= len(d) {
			return LitUndef, false
		}
		switch {
		case c[i] == d[j]:
			i++
			j++
		case c[i] == d[j].Neg():
			if flip != LitUndef {
				return LitUndef, false
			}
			flip = c[i]
			i++
			j++
		case c[i] > d[j]:
			j++
		default:
			return LitUndef, false
		}
	}
	return flip, true
}

// eliminateRound attempts bounded variable elimination on every
// non-frozen, unassigned, touched variable, returning how many were
// eliminated. Skipping untouched variables is exact, not a heuristic:
// whether tryEliminate(v) succeeds depends only on the clauses in v's
// two occurrence lists, and every edit to those lists or to a clause on
// them touches v. An untouched variable therefore fails again exactly
// as it failed last time, and the rounds, the elimination order and the
// resulting formula are those of trying every variable.
func (p *simplifier) eliminateRound() int {
	eliminated := 0
	for v := Var(0); int(v) < len(p.s.level); v++ {
		if !p.touched[v] || p.s.frozen[v] || p.s.eliminated[v] || p.s.vals[PosLit(v)] != Unknown {
			continue
		}
		if p.tryEliminate(v) {
			eliminated++
			if !p.drainUnits() {
				return eliminated
			}
		}
		if p.s.rootUnsat {
			return eliminated
		}
	}
	return eliminated
}

// tryEliminate resolves v out of the formula when the set of
// non-tautological resolvents of its positive and negative occurrence
// lists is no larger than the clauses they replace (plus elimGrow).
// countResolvents decides that without building a resolvent; only a
// variable that passes has its resolvents merged into the reused res
// buffer and copied out as clauses. The positive occurrence snapshots
// go on the elimination stack for model reconstruction.
func (p *simplifier) tryEliminate(v Var) bool {
	p.touched[v] = false
	pos := p.occ[PosLit(v)]
	neg := p.occ[NegLit(v)]
	if len(pos)+len(neg) > elimOccLimit {
		return false
	}
	limit := len(pos) + len(neg) + elimGrow
	if p.countResolvents(pos, neg, v, limit) > limit {
		return false
	}
	p.res, p.resEnd = p.res[:0], p.resEnd[:0]
	for _, ci := range pos {
		for _, di := range neg {
			var ok bool
			p.res, ok = appendResolvent(p.res, p.cls[ci].lits, p.cls[di].lits, v)
			if ok {
				p.resEnd = append(p.resEnd, len(p.res))
			}
		}
	}

	// Copy the resolvents out of the scratch buffer into one slab of
	// capacity-clipped clauses (strengthening later shrinks them in place).
	slab := append([]Lit(nil), p.res...)
	resolvents := make([][]Lit, len(p.resEnd))
	lo := 0
	for i, hi := range p.resEnd {
		resolvents[i] = slab[lo:hi:hi]
		lo = hi
	}
	// Proof: resolvents are RUP while both parents are still present, so
	// each addition is logged before the occurrence lists are deleted
	// (the kills below log the Deletes). addClause does not emit.
	if p.s.proof != nil {
		for _, r := range resolvents {
			p.s.proofStep(ProofAdd, r)
		}
	}
	rec := elimRecord{v: v, pos: make([][]Lit, 0, len(pos))}
	for _, ci := range pos {
		rec.pos = append(rec.pos, append([]Lit(nil), p.cls[ci].lits...))
	}
	p.killAll(pos)
	p.killAll(neg)
	p.s.eliminated[v] = true
	p.s.elimStack = append(p.s.elimStack, rec)
	p.s.stats.ElimVars++
	for _, r := range resolvents {
		p.addClause(r)
	}
	return true
}

// countResolvents counts the non-tautological resolvents on v of each
// clause on pos with each clause on neg, stopping as soon as the count
// passes limit. Working clauses are not tautologies themselves, so the
// resolvent of C and D is one exactly when D holds the negation of a
// literal of C other than v's: each C marks its literals once, and each
// D is then one scan of the marks, with no merge and no buffer.
func (p *simplifier) countResolvents(pos, neg []int, v Var, limit int) int {
	n := 0
	for _, ci := range pos {
		// A wrapped counter would match stale marks, so it restarts
		// on a cleared array.
		if p.mark++; p.mark == 0 {
			clear(p.marks)
			p.mark = 1
		}
		for _, l := range p.cls[ci].lits {
			p.marks[l] = p.mark
		}
	pairs:
		for _, di := range neg {
			for _, l := range p.cls[di].lits {
				if p.marks[l.Neg()] == p.mark && l.Var() != v {
					continue pairs
				}
			}
			if n++; n > limit {
				return n
			}
		}
	}
	return n
}

// appendResolvent appends the resolvent of a and b on pivot v to dst and
// reports ok. Both clauses are sorted ascending, so a linear merge that
// skips the pivot yields the resolvent sorted, and duplicates arrive
// adjacent; so do complementary literals, as PosLit(x) and NegLit(x) are
// consecutive. A tautological resolvent truncates dst back to its
// original length and reports false.
func appendResolvent(dst, a, b []Lit, v Var) ([]Lit, bool) {
	start := len(dst)
	prev := LitUndef
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var l Lit
		if j == len(b) || i < len(a) && a[i] <= b[j] {
			l = a[i]
			i++
		} else {
			l = b[j]
			j++
		}
		if l.Var() == v || l == prev {
			continue
		}
		if prev != LitUndef && l == prev.Neg() {
			return dst[:start], false
		}
		dst = append(dst, l)
		prev = l
	}
	return dst, true
}

// rebuild installs the surviving working clauses as the solver's clause
// database, in a fresh, exactly sized arena, and attaches them to fresh
// watch lists (none after a refutation). Root-level reasons are
// cleared: the antecedent clauses no longer exist, and conflict analysis
// never resolves on level-0 assignments anyway.
func (p *simplifier) rebuild() {
	s := p.s
	s.clauses = s.clauses[:0]
	s.ca = clauseArena{}
	for _, l := range s.trail {
		s.reason[l.Var()] = 0
	}
	if !s.rootUnsat {
		words := 1
		for i := range p.cls {
			if !p.cls[i].dead {
				words += clauseWords(len(p.cls[i].lits), false)
			}
		}
		s.ca.mem = make([]uint32, 0, words)
		for i := range p.cls {
			if !p.cls[i].dead {
				s.clauses = append(s.clauses, s.ca.alloc(p.cls[i].lits, false))
			}
		}
	}
	s.attachAll(0)
	s.qhead = len(s.trail)
}

// extendModel reconstructs eliminated variables into the current
// satisfying assignment, newest elimination first (a variable's stored
// clauses only mention variables still live at its elimination time, so
// every literal read here is already decided). The variable is set true
// exactly when some positive-occurrence clause is not satisfied by its
// other literals — the assignment that repairs all removed clauses; the
// resolvents kept in the formula guarantee no negative-occurrence clause
// needs the opposite (see DESIGN.md §11).
func (s *Solver) extendModel() {
	for i := len(s.elimStack) - 1; i >= 0; i-- {
		rec := &s.elimStack[i]
		val := False
		for _, cl := range rec.pos {
			satisfied := false
			for _, l := range cl {
				if l.Var() == rec.v {
					continue
				}
				if s.litModelTrue(l) {
					satisfied = true
					break
				}
			}
			if !satisfied {
				val = True
				break
			}
		}
		s.vals[PosLit(rec.v)], s.vals[NegLit(rec.v)] = val, val.Not()
	}
}

// litModelTrue evaluates l under the Model convention: unassigned
// variables read as false.
func (s *Solver) litModelTrue(l Lit) bool {
	b := s.vals[PosLit(l.Var())] == True
	if l.Sign() {
		return !b
	}
	return b
}
