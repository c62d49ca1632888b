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
// The clause store (store.go) holds no pointers: clauses live back to
// back in one uint32 slab named by offsets, watchers are 8-byte
// {offset, blocker} pairs, and deletes find their clause through a hash
// index whose chains run through the slab. Deleted clauses are unlinked
// and marked, and the slab compacts once they fill half of it.
//
// Clone forks a checker mid-stream. A shared solver snapshot keeps the
// checker that watched it being built, and each query solving a clone of
// that snapshot that needs its proof checked feeds its own steps to a
// clone of the checker, so the snapshot's derivation is checked once
// rather than once per query. The store being flat, a clone is a few
// copies and a watch-list rebuild.
//
// Log (log.go) records a stream instead of checking it, so a solve pays
// only to record its proof and the check is paid later, by Drain, and
// only if a verdict rests on the proof.
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

// Checker is a forward RUP/RAT proof checker implementing
// sat.ProofWriter. Feed it the solver's proof stream via Step (arm it
// with Solver.SetProofHook before the first AddClause), then ask Err
// for the first malformed step and VerifyUnsat for the final verdict
// certificate. A Checker is not safe for concurrent use.
type Checker struct {
	mem     []uint32    // clause slab (store.go); word 0 is the pad
	wasted  int         // words of deleted clauses still in mem
	buckets []uint32    // index: bucket -> first clause offset of its chain
	watches [][]watcher // lit -> watchers of the clauses watching lit
	vals    []int8      // lit -> +1 true, -1 false, 0 unassigned
	stamps  []uint32    // lit -> stamp of the last normalize holding it
	stamp   uint32
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
	return &Checker{mem: []uint32{0}, buckets: make([]uint32, minBuckets)}
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
// The store is pointer-free, so the copy is a handful of flat copies.
// With no deleted clauses in the slab, the slab and the index table are
// copied as they are: the hash chains run through the slab, so they come
// along. Otherwise only the live clauses are copied, into a compact slab,
// and the index is rebuilt over it. Either way the watch lists are
// rebuilt from each clause's watched pair into one buffer, which drops
// the watchers of deleted clauses the original still holds lazily.
func (c *Checker) Clone() *Checker {
	n := &Checker{
		live:    c.live,
		watches: make([][]watcher, len(c.watches)),
		vals:    slices.Clone(c.vals),
		stamps:  make([]uint32, len(c.stamps)),
		trail:   slices.Clone(c.trail),
		qhead:   c.qhead,
		empty:   c.empty,
		err:     c.err,
		steps:   c.steps,
		adds:    c.adds,
		rats:    c.rats,
	}
	if c.wasted == 0 {
		n.mem = slices.Clone(c.mem)
		n.buckets = slices.Clone(c.buckets)
	} else {
		n.mem = c.appendLive(make([]uint32, 1, len(c.mem)-c.wasted))
		n.reindex()
	}
	n.rewatch()
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

// ensure sizes the per-literal arrays for every variable in lits.
func (c *Checker) ensure(lits []sat.Lit) {
	max := sat.Lit(-1)
	for _, l := range lits {
		if l > max {
			max = l
		}
	}
	if n := int(max|1) + 1; n > len(c.vals) {
		grow := n - len(c.vals)
		c.vals = append(c.vals, make([]int8, grow)...)
		c.stamps = append(c.stamps, make([]uint32, grow)...)
		c.watches = append(c.watches, make([][]watcher, grow)...)
	}
}

func (c *Checker) enqueue(l sat.Lit) {
	c.vals[l] = 1
	c.vals[l^1] = -1
	c.trail = append(c.trail, l)
}

// undo pops probe assignments back to the trail mark.
func (c *Checker) undo(mark int) {
	for _, l := range c.trail[mark:] {
		c.vals[l] = 0
		c.vals[l^1] = 0
	}
	c.trail = c.trail[:mark]
	c.qhead = mark
}

// propagate runs unit propagation from the queue head; it reports true
// on conflict. A watcher whose blocker is true is kept without reading
// the clause; one whose clause is deleted is dropped. Every watcher
// propagate keeps or moves takes the clause's other watched literal as
// its new blocker.
func (c *Checker) propagate() bool {
	mem, vals := c.mem, c.vals
	for c.qhead < len(c.trail) {
		fl := c.trail[c.qhead] ^ 1 // the literal that just became false
		c.qhead++
		ws := c.watches[fl]
		i, j := 0, 0
		for i < len(ws) {
			w := ws[i]
			i++
			if vals[w.blocker] == 1 {
				ws[j] = w
				j++
				continue
			}
			h := mem[w.c]
			if h&hdrDeleted != 0 {
				continue
			}
			b := int(w.c) + clHeader
			e := b + int(h>>hdrSizeShift)
			if sat.Lit(mem[b]) == fl {
				mem[b], mem[b+1] = mem[b+1], mem[b]
			}
			first := mem[b]
			if first != w.blocker && vals[first] == 1 {
				ws[j] = watcher{w.c, first}
				j++
				continue
			}
			moved := false
			for k := b + 2; k < e; k++ {
				if l := mem[k]; vals[l] >= 0 {
					mem[b+1], mem[k] = l, mem[b+1]
					c.watches[l] = append(c.watches[l], watcher{w.c, first})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			ws[j] = watcher{w.c, first}
			j++
			if vals[first] == -1 {
				j += copy(ws[j:], ws[i:])
				c.watches[fl] = ws[:j]
				c.qhead = len(c.trail)
				return true
			}
			c.enqueue(sat.Lit(first))
		}
		c.watches[fl] = ws[:j]
	}
	return false
}

// normalize dedupes lits into the scratch buffer, keeping their order,
// and leaves exactly the kept literals stamped with the current stamp;
// ok is false for tautologies.
func (c *Checker) normalize(lits []sat.Lit) (out []sat.Lit, ok bool) {
	if c.stamp++; c.stamp == 0 {
		clear(c.stamps)
		c.stamp = 1
	}
	out = c.tmp[:0]
	for _, l := range lits {
		switch {
		case c.stamps[l] == c.stamp:
			continue
		case c.stamps[l^1] == c.stamp:
			c.tmp = out
			return nil, false
		}
		c.stamps[l] = c.stamp
		out = append(out, l)
	}
	c.tmp = out
	return out, true
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
		switch c.vals[l] {
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
		norm[0], norm[w0] = norm[w0], norm[0]
		if w1 == 0 {
			w1 = w0
		}
		norm[1], norm[w1] = norm[w1], norm[1]
		if !c.store(norm) {
			c.err = fmt.Errorf("drat: step %d: clause store exceeds 2^32 words", c.steps)
		}
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
	b := c.bucket(clauseHash(norm))
	off, prev := c.find(b, norm)
	if off == 0 {
		return
	}
	nonFalse, satisfied := 0, false
	for _, l := range c.lits(off) {
		switch c.vals[l] {
		case 1:
			satisfied = true
		case 0:
			nonFalse++
		}
	}
	if !satisfied && nonFalse <= 1 {
		return // effectively unit: keep (standard DRAT leniency)
	}
	c.remove(b, off, prev)
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
		switch c.vals[l] {
		case 1:
			c.undo(mark)
			return true
		case 0:
			c.enqueue(l ^ 1)
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
	if c.vals[pivot] == -1 {
		return false
	}
	np := uint32(pivot ^ 1)
	for off := 1; off < len(c.mem); {
		h := c.mem[off]
		cl := c.mem[off+clHeader : off+clHeader+int(h>>hdrSizeShift)]
		off += clHeader + len(cl)
		if h&hdrDeleted != 0 || !slices.Contains(cl, np) {
			continue
		}
		res := slices.Clone(lits)
		for _, l := range cl {
			if l != np {
				res = append(res, sat.Lit(l))
			}
		}
		if !c.rup(res) {
			return false
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
