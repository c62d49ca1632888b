// Package drat checks the DRAT-style proofs emitted by internal/sat's
// proof hook (sat.ProofWriter). The Checker verifies forward and in
// process: every ProofAdd step must be a reverse-unit-propagation (RUP)
// consequence of the clauses alive at that point, with a RAT check on
// the first literal as the fallback DRAT allows. Memory stays bounded
// by the solver's own database: ProofDelete steps really remove clauses
// from the checker (with the standard leniency — unmatched deletes are
// ignored, and clauses that currently have at most one unfalsified
// literal are retained so root-level units never lose their
// justification), and clauses satisfied at the root are never stored.
//
// A verdict is certified via VerifyUnsat: either the proof derived the
// empty clause, or — for UNSAT-under-assumptions verdicts, where the
// solver stops as soon as an assumption is falsified instead of
// deriving ⊥ — the clause consisting of the negated assumptions must be
// RUP over the final database. The latter is sound by monotonicity:
// assuming all assumptions at once propagates at least as much as the
// solver's level-by-level descent, so the solver's terminal conflict
// reappears. It is also why that certificate demands a RAT-free
// derivation: RUP additions and deletions leave a database the input
// formula implies, but a RAT addition only preserves satisfiability, so
// a clause RUP over the database after one is no longer implied by the
// input (RATs counts them).
//
// Clone forks a checker mid-stream. A shared solver snapshot keeps the
// checker that watched it being built, and each query solving a clone of
// that snapshot feeds its own steps to a clone of the checker, so the
// snapshot's derivation is checked once rather than once per query.
//
// Dump (dump.go) is the escape hatch for external checkers: it buffers
// the input formula as DIMACS and the derivation as DRAT text, the
// format drat-trim and friends consume.
package drat

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"scadaver/internal/sat"
)

// cclause is one live checker clause. The first two literals are the
// watched ones (the propagation invariant, as in the solver).
type cclause struct {
	lits    []sat.Lit
	deleted bool
}

// Checker is a forward RUP/RAT proof checker implementing
// sat.ProofWriter. Feed it the solver's proof stream via Step (arm it
// with Solver.SetProofHook before the first AddClause), then ask Err
// for the first malformed step and VerifyUnsat for the final verdict
// certificate. A Checker is not safe for concurrent use.
type Checker struct {
	clauses map[string][]*cclause // canonical key -> live instances
	watches [][]*cclause          // lit -> clauses watching lit
	assigns []int8                // var -> +1 true, -1 false, 0 unassigned
	trail   []sat.Lit
	qhead   int

	empty bool // empty clause derived (the formula is refuted)
	err   error
	steps int
	adds  int
	rats  int // additions accepted only by the RAT fallback
	live  int
	tmp   []sat.Lit // normalization scratch
}

// New returns an empty checker.
func New() *Checker {
	return &Checker{clauses: make(map[string][]*cclause)}
}

// Err returns the first error encountered in the step stream (nil if
// every step checked). Once a step fails, later steps are ignored.
func (c *Checker) Err() error { return c.err }

// Empty reports whether the proof derived the empty clause.
func (c *Checker) Empty() bool { return c.empty }

// Steps returns the number of proof steps consumed.
func (c *Checker) Steps() int { return c.steps }

// Additions returns the number of derived-clause (ProofAdd) steps
// consumed — the size of the checked derivation.
func (c *Checker) Additions() int { return c.adds }

// RATs returns the number of additions accepted by the RAT fallback
// rather than by RUP. After the first one, the database is only
// equisatisfiable with the input formula, not implied by it.
func (c *Checker) RATs() int { return c.rats }

// Live returns the number of clauses currently held, the checker's
// memory bound.
func (c *Checker) Live() int { return c.live }

// Clone returns an independent copy of the checker: the live clause
// database, the root trail, the refutation and error status, and the
// step, addition and RAT counters. Steps fed to the copy never reach the
// original, and the reverse. Clone only reads c, so any number of
// goroutines may clone one checker concurrently while nobody steps it.
//
// Like sat.Solver.Clone the copy is arena-allocated — one clause slab,
// one literal slab and one watcher buffer instead of allocations per
// clause — and each clause's literals are capacity-clipped to their
// segment, so the in-place watch swaps stay inside it. Canonical keys
// are immutable strings and are shared. The watch lists are rebuilt from
// each clause's first two literals (the watched pair), which also drops
// the deleted clauses the original still holds lazily.
func (c *Checker) Clone() *Checker {
	n := &Checker{
		clauses: make(map[string][]*cclause, len(c.clauses)),
		watches: make([][]*cclause, len(c.watches)),
		assigns: append([]int8(nil), c.assigns...),
		trail:   append([]sat.Lit(nil), c.trail...),
		qhead:   c.qhead,
		empty:   c.empty,
		err:     c.err,
		steps:   c.steps,
		adds:    c.adds,
		rats:    c.rats,
		live:    c.live,
	}
	ncl, nlits := 0, 0
	for _, bucket := range c.clauses {
		ncl += len(bucket)
		for _, cl := range bucket {
			nlits += len(cl.lits)
		}
	}
	// The slabs are sized exactly: an append past capacity would move
	// them and strand the pointers already taken.
	arena := make([]cclause, 0, ncl)
	ptrs := make([]*cclause, 0, ncl)
	lits := make([]sat.Lit, 0, nlits)
	wcount := make([]int32, len(c.watches))
	for k, bucket := range c.clauses {
		lo := len(ptrs)
		for _, cl := range bucket {
			l0 := len(lits)
			lits = append(lits, cl.lits...)
			arena = append(arena, cclause{lits: lits[l0:len(lits):len(lits)]})
			copied := &arena[len(arena)-1]
			ptrs = append(ptrs, copied)
			wcount[copied.lits[0]]++
			wcount[copied.lits[1]]++
		}
		n.clauses[k] = ptrs[lo:len(ptrs):len(ptrs)]
	}
	wbuf := make([]*cclause, 2*len(arena))
	off := 0
	for i, w := range wcount {
		if w == 0 {
			continue
		}
		n.watches[i] = wbuf[off : off : off+int(w)]
		off += int(w)
	}
	for i := range arena {
		cl := &arena[i]
		n.watches[cl.lits[0]] = append(n.watches[cl.lits[0]], cl)
		n.watches[cl.lits[1]] = append(n.watches[cl.lits[1]], cl)
	}
	return n
}

// Step implements sat.ProofWriter.
func (c *Checker) Step(op sat.ProofOp, lits []sat.Lit) {
	if c.err != nil {
		return
	}
	c.steps++
	switch op {
	case sat.ProofInput:
		c.addClause(lits)
	case sat.ProofAdd:
		c.adds++
		if c.empty {
			return // refutation complete; anything follows
		}
		if !c.rup(lits) {
			if !c.rat(lits) {
				c.err = fmt.Errorf("drat: step %d: clause (%s) is neither RUP nor RAT", c.steps, clauseString(lits))
				return
			}
			c.rats++
		}
		c.addClause(lits)
	case sat.ProofDelete:
		c.deleteClause(lits)
	default:
		c.err = fmt.Errorf("drat: step %d: unknown op %d", c.steps, op)
	}
}

// VerifyUnsat certifies an Unsat verdict. With no assumptions the proof
// must have derived the empty clause; under assumptions it suffices
// that the clause of negated assumptions is RUP over the final database
// (the solver's terminal conflict, replayed all at once) and that no
// addition so far was RAT. RAT is not enough for the assumption clause
// itself either: it would only show the clause preserves
// satisfiability, not that the formula implies it.
func (c *Checker) VerifyUnsat(assumptions ...sat.Lit) error {
	if c.err != nil {
		return c.err
	}
	if c.empty {
		return nil
	}
	if len(assumptions) == 0 {
		return errors.New("drat: proof did not derive the empty clause")
	}
	if c.rats > 0 {
		return fmt.Errorf("drat: assumption clause not implied: %d RAT additions precede it", c.rats)
	}
	neg := make([]sat.Lit, len(assumptions))
	for i, a := range assumptions {
		neg[i] = a.Neg()
	}
	if !c.rup(neg) {
		return fmt.Errorf("drat: assumption clause (%s) is not RUP", clauseString(neg))
	}
	return nil
}

func (c *Checker) ensure(lits []sat.Lit) {
	max := -1
	for _, l := range lits {
		if v := int(l.Var()); v > max {
			max = v
		}
	}
	for len(c.assigns) <= max {
		c.assigns = append(c.assigns, 0)
		c.watches = append(c.watches, nil, nil)
	}
}

func (c *Checker) value(l sat.Lit) int8 {
	v := c.assigns[l.Var()]
	if l.Sign() {
		return -v
	}
	return v
}

func (c *Checker) enqueue(l sat.Lit) {
	if l.Sign() {
		c.assigns[l.Var()] = -1
	} else {
		c.assigns[l.Var()] = 1
	}
	c.trail = append(c.trail, l)
}

// undo pops probe assignments back to the trail mark.
func (c *Checker) undo(mark int) {
	for i := len(c.trail) - 1; i >= mark; i-- {
		c.assigns[c.trail[i].Var()] = 0
	}
	c.trail = c.trail[:mark]
	c.qhead = mark
}

// propagate runs unit propagation from the queue head; it reports true
// on conflict. Watch lists purge deleted clauses lazily as they scan.
func (c *Checker) propagate() bool {
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead]
		c.qhead++
		fl := p.Neg() // literal that just became false
		ws := c.watches[fl]
		kept := ws[:0]
		conflict := false
		for wi := 0; wi < len(ws); wi++ {
			cl := ws[wi]
			if cl.deleted {
				continue
			}
			if conflict {
				kept = append(kept, ws[wi:]...)
				break
			}
			if cl.lits[0] == fl {
				cl.lits[0], cl.lits[1] = cl.lits[1], cl.lits[0]
			}
			first := cl.lits[0]
			if c.value(first) == 1 {
				kept = append(kept, cl)
				continue
			}
			moved := false
			for k := 2; k < len(cl.lits); k++ {
				if c.value(cl.lits[k]) >= 0 {
					cl.lits[1], cl.lits[k] = cl.lits[k], cl.lits[1]
					c.watches[cl.lits[1]] = append(c.watches[cl.lits[1]], cl)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, cl)
			if c.value(first) == -1 {
				conflict = true
				c.qhead = len(c.trail)
				continue
			}
			c.enqueue(first)
		}
		for j := len(kept); j < len(ws); j++ {
			ws[j] = nil
		}
		c.watches[fl] = kept
		if conflict {
			return true
		}
	}
	return false
}

// normalize sorts and dedupes lits into the scratch buffer; ok is false
// for tautologies.
func (c *Checker) normalize(lits []sat.Lit) (out []sat.Lit, ok bool) {
	c.tmp = append(c.tmp[:0], lits...)
	slices.Sort(c.tmp)
	w := 0
	for i, l := range c.tmp {
		if w > 0 && l == c.tmp[w-1] {
			continue
		}
		if w > 0 && l == c.tmp[w-1].Neg() {
			return nil, false
		}
		c.tmp[w] = c.tmp[i]
		w++
	}
	return c.tmp[:w], true
}

func key(sorted []sat.Lit) string {
	var b strings.Builder
	b.Grow(4 * len(sorted))
	for _, l := range sorted {
		b.WriteByte(byte(l))
		b.WriteByte(byte(l >> 8))
		b.WriteByte(byte(l >> 16))
		b.WriteByte(byte(l >> 24))
	}
	return b.String()
}

// addClause installs a (verified or input) clause: root-satisfied
// clauses and tautologies are not stored, unit consequences go straight
// to the root trail, and a root conflict records the refutation.
func (c *Checker) addClause(lits []sat.Lit) {
	c.ensure(lits)
	norm, ok := c.normalize(lits)
	if !ok {
		return // tautology: permanently satisfied
	}
	if len(norm) == 0 {
		c.empty = true
		return
	}
	// Find up to two unfalsified literals to watch, noting satisfaction.
	w0, w1 := -1, -1
	for i, l := range norm {
		switch c.value(l) {
		case 1:
			return // satisfied at root: dead weight forever
		case 0:
			if w0 < 0 {
				w0 = i
			} else if w1 < 0 {
				w1 = i
			}
		}
	}
	switch {
	case w0 < 0:
		c.empty = true // all literals false at root
	case w1 < 0:
		// Unit under the root assignment: the fact outlives the clause.
		c.enqueue(norm[w0])
		if c.propagate() {
			c.empty = true
		}
	default:
		cl := &cclause{lits: append([]sat.Lit(nil), norm...)}
		cl.lits[0], cl.lits[w0] = cl.lits[w0], cl.lits[0]
		if w1 == 0 {
			w1 = w0
		}
		cl.lits[1], cl.lits[w1] = cl.lits[w1], cl.lits[1]
		c.watches[cl.lits[0]] = append(c.watches[cl.lits[0]], cl)
		c.watches[cl.lits[1]] = append(c.watches[cl.lits[1]], cl)
		c.clauses[key(norm)] = append(c.clauses[key(norm)], cl)
		c.live++
	}
}

// deleteClause removes one instance of the clause, leniently: unmatched
// deletes are ignored (the solver may know a clause in root-filtered
// form), and clauses that are currently unit-or-conflicting under the
// root assignment are retained so derived root facts stay justified.
func (c *Checker) deleteClause(lits []sat.Lit) {
	c.ensure(lits)
	norm, ok := c.normalize(lits)
	if !ok {
		return
	}
	bucket := c.clauses[key(norm)]
	for i, cl := range bucket {
		if cl.deleted {
			continue
		}
		nonFalse, satisfied := 0, false
		for _, l := range cl.lits {
			switch c.value(l) {
			case 1:
				satisfied = true
			case 0:
				nonFalse++
			}
		}
		if !satisfied && nonFalse <= 1 {
			return // effectively unit: keep (standard DRAT leniency)
		}
		cl.deleted = true // watch lists purge lazily
		c.live--
		bucket[i] = bucket[len(bucket)-1]
		bucket = bucket[:len(bucket)-1]
		k := key(norm)
		if len(bucket) == 0 {
			delete(c.clauses, k)
		} else {
			c.clauses[k] = bucket
		}
		return
	}
}

// rup checks reverse unit propagation: assuming the negation of every
// literal must propagate to a conflict. A literal already true at the
// root (or a tautological pair) makes the clause trivially implied.
func (c *Checker) rup(lits []sat.Lit) bool {
	if c.empty {
		return true
	}
	c.ensure(lits)
	mark := len(c.trail)
	for _, l := range lits {
		switch c.value(l) {
		case 1:
			c.undo(mark)
			return true
		case 0:
			c.enqueue(l.Neg())
		}
	}
	conflict := c.propagate()
	c.undo(mark)
	return conflict
}

// rat checks the resolution-asymmetric-tautology fallback on the first
// literal (the DRAT pivot convention): every resolvent with a clause
// containing the pivot's negation must itself be RUP. The solver's own
// emissions are RUP by construction, so this path is cold — it scans
// the whole database rather than keeping occurrence lists.
//
// Unit and root-satisfied clauses are not stored, so the scan cannot see
// them. That matters only when the pivot is false at the root: a stored
// partner containing the pivot's negation may then be missing (the unit
// (¬pivot) itself, or a clause satisfied by ¬pivot), so such a clause is
// refused outright. It would not be RUP either, and without this check
// the input (x) alone would admit the addition (¬x), a refutation of a
// satisfiable formula.
func (c *Checker) rat(lits []sat.Lit) bool {
	if len(lits) == 0 {
		return false
	}
	pivot := lits[0]
	c.ensure(lits)
	if c.value(pivot) == -1 {
		return false
	}
	np := pivot.Neg()
	for _, bucket := range c.clauses {
		for _, cl := range bucket {
			if cl.deleted {
				continue
			}
			contains := false
			for _, l := range cl.lits {
				if l == np {
					contains = true
					break
				}
			}
			if !contains {
				continue
			}
			res := append([]sat.Lit(nil), lits...)
			for _, l := range cl.lits {
				if l != np {
					res = append(res, l)
				}
			}
			if !c.rup(res) {
				return false
			}
		}
	}
	return true
}

func clauseString(lits []sat.Lit) string {
	parts := make([]string, len(lits))
	for i, l := range lits {
		parts[i] = l.String()
	}
	return strings.Join(parts, " ")
}
