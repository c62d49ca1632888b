package logic

import (
	"fmt"
	"maps"
	"sync/atomic"

	"scadaver/internal/sat"
)

// Encoder turns formulas into CNF over a sat.Solver. Lit is an exact
// (biconditional) Tseitin transformation with biconditional sequential
// counters for cardinality atoms. Implying encodes a formula in a
// positive context: cardinality atoms that occur only under And/Or get
// a one-sided totalizer, which constrains the count from above only.
// Assert, AssertGuarded and Solve's assumptions go through Implying. It
// supports incremental use: Assert adds constraints, Solve can be called
// repeatedly, and further Asserts (e.g. blocking clauses during
// threat-space enumeration) refine the instance.
type Encoder struct {
	solver *sat.Solver
	vars   map[string]sat.Var
	// shared is set once a Clone shares vars: the map is then read-only,
	// and the first new name copies it (copy-on-write). It is atomic
	// because concurrent Clones of one encoder all set it.
	shared  atomic.Bool
	cache   map[*Formula]sat.Lit // Lit's exact literals
	implied map[*Formula]sat.Lit // Implying's one-sided literals
	hasTrue bool
	litTrue sat.Lit
}

// NewEncoder returns an Encoder over a fresh solver.
func NewEncoder() *Encoder {
	return &Encoder{
		solver:  sat.New(),
		vars:    make(map[string]sat.Var),
		cache:   make(map[*Formula]sat.Lit),
		implied: make(map[*Formula]sat.Lit),
	}
}

// Solver exposes the underlying SAT solver (for stats and budgets).
func (e *Encoder) Solver() *sat.Solver { return e.solver }

// Simplify preprocesses the asserted constraints in place (unit
// propagation, probing, subsumption, bounded variable elimination — see
// sat.Solver.Simplify). Every named variable and the internal
// constant-true literal are frozen first: callers keep referring to them
// in later formulas, assumptions, Block clauses, and Model lookups, so
// only anonymous Tseitin and counter auxiliaries are eliminable. The
// formula-literal memos are dropped, since cached auxiliary literals may
// no longer exist; formulas encoded afterwards get fresh auxiliaries.
// Reports false when preprocessing refutes the instance.
func (e *Encoder) Simplify() bool {
	for _, v := range e.vars {
		e.solver.Freeze(v)
	}
	if e.hasTrue {
		e.solver.Freeze(e.litTrue.Var())
	}
	e.cache = make(map[*Formula]sat.Lit)
	e.implied = make(map[*Formula]sat.Lit)
	return e.solver.Simplify()
}

// Clone returns an independent copy of the encoder and its solver
// (variables, clauses, and any Simplify state carry over; see
// sat.Solver.Clone). The formula-literal memos start empty — formulas
// encoded into the clone emit their own auxiliaries — so clones of one
// encoded structure can be extended and solved concurrently. The
// name→variable map is shared with the original until either side
// names a new variable.
func (e *Encoder) Clone() *Encoder { return e.clone(sat.Room{}) }

// CloneFor is Clone with room in the copy's solver for f encoded by
// Implying, which is what Assert(f), or Solve with f assumed, adds: the
// copy then takes f without reallocating (see sat.Solver.CloneWithRoom).
// This is what the core encoding cache hands out per query, with the
// query's failure budget as f.
func (e *Encoder) CloneFor(f *Formula) *Encoder { return e.clone(e.implyingRoom(f)) }

func (e *Encoder) clone(room sat.Room) *Encoder {
	e.shared.Store(true)
	n := &Encoder{
		solver:  e.solver.CloneWithRoom(room),
		vars:    e.vars,
		cache:   make(map[*Formula]sat.Lit),
		implied: make(map[*Formula]sat.Lit),
		hasTrue: e.hasTrue,
		litTrue: e.litTrue,
	}
	n.shared.Store(true)
	return n
}

// VarLit returns the solver literal for the named variable, creating the
// variable on first use.
func (e *Encoder) VarLit(name string) sat.Lit {
	if v, ok := e.vars[name]; ok {
		return sat.PosLit(v)
	}
	if e.shared.Load() {
		e.vars = maps.Clone(e.vars)
		e.shared.Store(false)
	}
	v := e.solver.NewVar()
	e.vars[name] = v
	return sat.PosLit(v)
}

func (e *Encoder) fresh() sat.Lit { return sat.PosLit(e.solver.NewVar()) }

func (e *Encoder) constTrue() sat.Lit {
	if !e.hasTrue {
		e.litTrue = e.fresh()
		e.mustAdd(e.litTrue)
		e.hasTrue = true
	}
	return e.litTrue
}

func (e *Encoder) mustAdd(lits ...sat.Lit) {
	// AddClause only errors on undeclared variables, which the encoder
	// never produces; surface violations loudly during development.
	if err := e.solver.AddClause(lits...); err != nil {
		panic(fmt.Sprintf("logic: internal encoding error: %v", err))
	}
}

// Lit encodes f and returns a literal that is logically equivalent to f
// in every model of the emitted clauses.
func (e *Encoder) Lit(f *Formula) sat.Lit {
	if l, ok := e.cache[f]; ok {
		return l
	}
	var out sat.Lit
	switch f.kind {
	case kindConst:
		if f.b {
			out = e.constTrue()
		} else {
			out = e.constTrue().Neg()
		}
	case kindVar:
		out = e.VarLit(f.name)
	case kindNot:
		out = e.Lit(f.kids[0]).Neg()
	case kindAnd:
		out = e.andLits(e.kidLits(f))
	case kindOr:
		out = e.orLits(e.kidLits(f))
	case kindAtMost:
		out = e.atLeastLit(e.kidLits(f), f.k+1).Neg()
	case kindAtLeast:
		out = e.atLeastLit(e.kidLits(f), f.k)
	default:
		panic("logic: unknown formula kind")
	}
	e.cache[f] = out
	return out
}

func (e *Encoder) kidLits(f *Formula) []sat.Lit {
	lits := make([]sat.Lit, len(f.kids))
	for i, k := range f.kids {
		lits[i] = e.Lit(k)
	}
	return lits
}

// andLits returns a literal g with g <-> AND(lits).
func (e *Encoder) andLits(lits []sat.Lit) sat.Lit {
	switch len(lits) {
	case 0:
		return e.constTrue()
	case 1:
		return lits[0]
	}
	g := e.fresh()
	// g -> l_i
	for _, l := range lits {
		e.mustAdd(g.Neg(), l)
	}
	// (AND l_i) -> g
	cl := make([]sat.Lit, 0, len(lits)+1)
	for _, l := range lits {
		cl = append(cl, l.Neg())
	}
	cl = append(cl, g)
	e.mustAdd(cl...)
	return g
}

// orLits returns a literal g with g <-> OR(lits).
func (e *Encoder) orLits(lits []sat.Lit) sat.Lit {
	switch len(lits) {
	case 0:
		return e.constTrue().Neg()
	case 1:
		return lits[0]
	}
	g := e.fresh()
	// l_i -> g
	for _, l := range lits {
		e.mustAdd(l.Neg(), g)
	}
	// g -> OR l_i
	cl := make([]sat.Lit, 0, len(lits)+1)
	for _, l := range lits {
		cl = append(cl, l)
	}
	cl = append(cl, g.Neg())
	e.mustAdd(cl...)
	return g
}

// atLeastLit returns a literal equivalent to "at least k of lits are
// true" using a biconditional sequential (unary) counter: s[j] after
// step i holds iff at least j of the first i literals are true. Only the
// first k counter cells are materialized. Each cell costs up to two
// gates (an AND carry and an OR), so Lit pays this full price only where
// the atom's truth value matters both ways: under Not, in an Iff, or
// through a direct Lit call. Implying uses atMostImplying instead.
func (e *Encoder) atLeastLit(lits []sat.Lit, k int) sat.Lit {
	n := len(lits)
	if k <= 0 {
		return e.constTrue()
	}
	if k > n {
		return e.constTrue().Neg()
	}
	// prev[j] = "at least j+1 of the literals seen so far are true".
	prev := make([]sat.Lit, 0, k)
	for i, x := range lits {
		width := i + 1
		if width > k {
			width = k
		}
		cur := make([]sat.Lit, width)
		for j := 0; j < width; j++ {
			var ge sat.Lit // at least j+1 among first i+1
			switch {
			case j == i:
				// Needs all first i+1 true: s = prev[j-1] AND x (or
				// just x when j == 0).
				if j == 0 {
					ge = x
				} else {
					ge = e.andLits([]sat.Lit{prev[j-1], x})
				}
			case j == 0:
				// At least 1: s = prev[0] OR x.
				ge = e.orLits([]sat.Lit{prev[0], x})
			default:
				// s = prev[j] OR (prev[j-1] AND x).
				carry := e.andLits([]sat.Lit{prev[j-1], x})
				ge = e.orLits([]sat.Lit{prev[j], carry})
			}
			cur[j] = ge
		}
		prev = cur
	}
	return prev[k-1]
}

// Implying encodes f in a positive context: it returns a literal p
// such that p implies f in every model of the emitted clauses, and every
// assignment of the named variables that satisfies f extends to a model
// with p true. A cardinality atom gets a one-sided totalizer
// (atMostImplying) — clauses of at most three literals, no gates — and
// an And/Or node above such an atom gets the usual
// biconditional gate over its kids' Implying literals. Every other
// formula, Not included, falls back to Lit, so a negated occurrence of
// an atom still gets the exact counter. The one-sided literals have
// their own memo: Lit never reads it, because the negation of a
// one-sided literal does not imply the negated formula.
func (e *Encoder) Implying(f *Formula) sat.Lit {
	if !f.posCard {
		return e.Lit(f)
	}
	if l, ok := e.cache[f]; ok {
		return l // an exact literal implies f as well
	}
	if l, ok := e.implied[f]; ok {
		return l
	}
	var out sat.Lit
	switch f.kind {
	case kindAnd:
		out = e.andLits(e.impliedKidLits(f))
	case kindOr:
		out = e.orLits(e.impliedKidLits(f))
	case kindAtMost:
		out = e.atMostImplying(e.kidLits(f), f.k)
	case kindAtLeast:
		// At least k of n true is at most n−k of them false.
		lits := e.kidLits(f)
		for i, l := range lits {
			lits[i] = l.Neg()
		}
		out = e.atMostImplying(lits, len(lits)-f.k)
	default:
		panic("logic: positive cardinality flag on a non-monotone formula")
	}
	e.implied[f] = out
	return out
}

func (e *Encoder) impliedKidLits(f *Formula) []sat.Lit {
	lits := make([]sat.Lit, len(f.kids))
	for i, k := range f.kids {
		lits[i] = e.Implying(k)
	}
	return lits
}

// atMostImplying returns a literal p with p → "at most k of lits are
// true", using a one-sided totalizer (Bailleux & Boufkhad, CP 2003)
// with output-capped nodes: a balanced binary tree over the literals in
// operand order whose node outputs o_1…o_m, m = min(size, k+1), are
// forced true when at least s of the node's literals are (totalize),
// but nothing forces them false. The root adds ¬o_{k+1} ∨ ¬p. Setting
// every output to the exact (capped) count satisfies all clauses with p
// true whenever the count is within k, so p can always be set to the
// atom's truth value. k = 0 needs no tree: ¬x ∨ ¬p for every literal.
func (e *Encoder) atMostImplying(lits []sat.Lit, k int) sat.Lit {
	n := len(lits)
	if k >= n {
		return e.constTrue()
	}
	if k < 0 {
		return e.constTrue().Neg()
	}
	p := e.fresh()
	if k == 0 {
		for _, x := range lits {
			e.mustAdd(x.Neg(), p.Neg())
		}
		return p
	}
	out := e.totalize(lits, k+1)
	e.mustAdd(out[k].Neg(), p.Neg())
	return p
}

// totalize returns the outputs of a one-sided totalizer node over lits
// capped at m: out[s-1] is forced true when at least s of lits are
// true, for s ≤ min(len(lits), m). A single literal is its own output.
// Otherwise each sum i+j = s of the halves' outputs a_i, b_j adds
// ¬a_i ∨ ¬b_j ∨ o_s, where a term with i = 0 or j = 0 drops its
// literal.
func (e *Encoder) totalize(lits []sat.Lit, m int) []sat.Lit {
	if len(lits) == 1 {
		return lits
	}
	half := len(lits) / 2
	a, b := e.totalize(lits[:half], m), e.totalize(lits[half:], m)
	out := make([]sat.Lit, min(len(lits), m))
	for s := range out {
		out[s] = e.fresh()
	}
	cl := make([]sat.Lit, 0, 3)
	for i := 0; i <= len(a); i++ {
		for j := max(0, 1-i); j <= len(b) && i+j <= len(out); j++ {
			cl = cl[:0]
			if i > 0 {
				cl = append(cl, a[i-1].Neg())
			}
			if j > 0 {
				cl = append(cl, b[j-1].Neg())
			}
			e.mustAdd(append(cl, out[i+j-1])...)
		}
	}
	return out
}

// implyingRoom counts what Implying(f) adds to e: the variables and
// clauses of its one-sided counters (atMostRoom) and of the gates above
// them, the variables of names e does not know yet, and the constant.
// The count is exact for And/Or trees of cardinality atoms over
// literals, which is the shape of a failure budget; a subformula that
// is shared is counted at each occurrence, and one Lit encodes below an
// atom (other than a literal) is not counted: it may grow the clone as
// it would any solver.
func (e *Encoder) implyingRoom(f *Formula) sat.Room {
	var r sat.Room
	add := func(o sat.Room) { r.Vars, r.Clauses = r.Vars+o.Vars, r.Clauses+o.Clauses }
	switch {
	case f.kind == kindConst:
		if !e.hasTrue {
			add(sat.Room{Vars: 1, Clauses: 1})
		}
	case f.kind == kindVar:
		if _, ok := e.vars[f.name]; !ok {
			r.Vars = 1
		}
	case f.kind == kindNot && f.kids[0].kind == kindVar:
		add(e.implyingRoom(f.kids[0]))
	case !f.posCard:
		// Lit's gates and exact counters: not counted.
	case f.kind == kindAnd || f.kind == kindOr:
		for _, k := range f.kids {
			add(e.implyingRoom(k))
		}
		if len(f.kids) > 1 {
			add(sat.Room{Vars: 1, Clauses: len(f.kids) + 1})
		}
	default: // kindAtMost, kindAtLeast
		for _, k := range f.kids {
			add(e.implyingRoom(k))
		}
		n, k := len(f.kids), f.k
		if f.kind == kindAtLeast {
			k = n - k
		}
		add(atMostRoom(n, k))
	}
	return r
}

// atMostRoom is what atMostImplying adds for n literals and bound k:
// the output p and, for k = 0, one clause per literal; otherwise the
// totalizer's nodes (totalizeRoom) and the root's overflow clause.
func atMostRoom(n, k int) sat.Room {
	if k < 0 || k >= n {
		return sat.Room{Vars: 1, Clauses: 1} // at most the constant
	}
	if k == 0 {
		return sat.Room{Vars: 1, Clauses: n}
	}
	r := totalizeRoom(n, k+1)
	return sat.Room{Vars: r.Vars + 1, Clauses: r.Clauses + 1}
}

// totalizeRoom is what totalize adds over n literals capped at m: a
// node over n > 1 literals has out = min(n, m) output variables and
// one clause per sum i+j = s with 1 ≤ s ≤ out of its halves' output
// counts i ≤ min(n/2, m) and j ≤ min(n−n/2, m).
func totalizeRoom(n, m int) sat.Room {
	if n == 1 {
		return sat.Room{}
	}
	ra, rb := totalizeRoom(n/2, m), totalizeRoom(n-n/2, m)
	na, nb, out := min(n/2, m), min(n-n/2, m), min(n, m)
	r := sat.Room{Vars: ra.Vars + rb.Vars + out, Clauses: ra.Clauses + rb.Clauses}
	for i := 0; i <= na; i++ {
		r.Clauses += max(0, min(nb, out-i)-max(0, 1-i)+1)
	}
	return r
}

// Assert requires f to hold in every model.
func (e *Encoder) Assert(f *Formula) {
	// Top-level conjunctions are split to keep the CNF shallow, and a
	// top-level disjunction is one clause over its kids' literals.
	switch f.kind {
	case kindAnd:
		for _, k := range f.kids {
			e.Assert(k)
		}
	case kindConst:
		if !f.b {
			e.mustAdd() // empty clause: unsat
		}
	case kindOr:
		e.mustAdd(e.impliedKidLits(f)...)
	default:
		e.mustAdd(e.Implying(f))
	}
}

// AssertNot requires f to be false in every model.
func (e *Encoder) AssertNot(f *Formula) { e.mustAdd(e.Lit(f).Neg()) }

// AssertGuarded requires f to hold whenever the selector formula sel
// holds: every emitted clause carries ¬sel as an activation literal.
// While sel is free the guarded constraints are inert (a model may set
// sel false), so a database of guarded groups is a sound weakening of
// any subset of them; asserting sel as a unit activates the group, and
// asserting ¬sel permanently retires it. This is the delta-aware
// encoding cache's mechanism for disabling stale constraint groups
// without rebuilding the CNF (DESIGN.md §16). Top-level conjunctions
// are split like Assert's, so each conjunct gets its own short guarded
// clause instead of one deep Tseitin tree, and a top-level disjunction
// is one guarded clause. The body is encoded by Implying; the
// selector, which occurs negated, by Lit.
func (e *Encoder) AssertGuarded(sel, f *Formula) {
	switch f.kind {
	case kindAnd:
		for _, k := range f.kids {
			e.AssertGuarded(sel, k)
		}
	case kindConst:
		if !f.b {
			e.Assert(Not(sel))
		}
	case kindOr:
		e.mustAdd(append([]sat.Lit{e.Lit(sel).Neg()}, e.impliedKidLits(f)...)...)
	default:
		e.mustAdd(e.Lit(sel).Neg(), e.Implying(f))
	}
}

// Solve decides the asserted constraints, optionally under assumption
// formulas (each assumption is encoded by Implying and passed to the SAT
// core as an assumption literal, so it does not permanently constrain
// the instance). A caller that reads an assumed literal back, e.g. to
// certify an Unsat verdict, must call Implying on the same formula.
func (e *Encoder) Solve(assumptions ...*Formula) sat.Status {
	lits := make([]sat.Lit, len(assumptions))
	for i, a := range assumptions {
		lits[i] = e.Implying(a)
	}
	return e.solver.Solve(lits...)
}

// Model returns the values of all named variables after a Sat answer.
type Model map[string]bool

// Model extracts the named-variable assignment; call only after Solve
// returned Sat.
func (e *Encoder) Model() Model {
	m := make(Model, len(e.vars))
	for name, v := range e.vars {
		m[name] = e.solver.Value(v) == sat.True
	}
	return m
}

// Value reports the current truth value of a named variable (Unknown if
// the name was never used).
func (e *Encoder) Value(name string) sat.Tribool {
	v, ok := e.vars[name]
	if !ok {
		return sat.Unknown
	}
	return e.solver.Value(v)
}

// Block adds a clause excluding the given (partial) assignment: at least
// one listed variable must take a value different from the one given.
// It is the workhorse of threat-vector enumeration.
func (e *Encoder) Block(assignment map[string]bool) {
	lits := make([]sat.Lit, 0, len(assignment))
	for name, val := range assignment {
		l := e.VarLit(name)
		if val {
			l = l.Neg()
		}
		lits = append(lits, l)
	}
	e.mustAdd(lits...)
}
