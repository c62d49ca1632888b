package drat

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"scadaver/internal/sat"
)

// refChecker is the differential oracle for Checker: the same proof
// semantics — RUP, then RAT on the first literal; root-satisfied clauses
// and tautologies never stored; units kept on the root assignment;
// lenient deletes — over a plain list of clauses, with unit propagation
// by full scans to a fixpoint. No watches, no index, no slab: every
// answer follows from the definitions.
type refChecker struct {
	clauses [][]sat.Lit // live clauses, duplicate-free
	root    []int8      // var -> root value: +1 true, -1 false, 0 unassigned
	empty   bool
	err     bool
	rats    int
}

func (r *refChecker) clone() *refChecker {
	n := *r
	n.clauses = slices.Clone(r.clauses)
	n.root = slices.Clone(r.root)
	return &n
}

func (r *refChecker) grow(lits []sat.Lit) {
	for _, l := range lits {
		for int(l.Var()) >= len(r.root) {
			r.root = append(r.root, 0)
		}
	}
}

func value(a []int8, l sat.Lit) int8 {
	if l.Sign() {
		return -a[l.Var()]
	}
	return a[l.Var()]
}

func assign(a []int8, l sat.Lit) {
	if l.Sign() {
		a[l.Var()] = -1
	} else {
		a[l.Var()] = 1
	}
}

// fixpoint propagates units over a until nothing changes; it reports
// true on a falsified clause.
func (r *refChecker) fixpoint(a []int8) bool {
	for changed := true; changed; {
		changed = false
		for _, cl := range r.clauses {
			open, unit, sat := 0, sat.Lit(0), false
			for _, l := range cl {
				switch value(a, l) {
				case 1:
					sat = true
				case 0:
					open++
					unit = l
				}
			}
			if sat {
				continue
			}
			switch open {
			case 0:
				return true
			case 1:
				assign(a, unit)
				changed = true
			}
		}
	}
	return false
}

// dedupe returns lits without repeats, or ok=false for a tautology.
func dedupe(lits []sat.Lit) (out []sat.Lit, ok bool) {
	for _, l := range lits {
		if slices.Contains(out, l^1) {
			return nil, false
		}
		if !slices.Contains(out, l) {
			out = append(out, l)
		}
	}
	return out, true
}

func sameSet(a, b []sat.Lit) bool {
	if len(a) != len(b) {
		return false
	}
	for _, l := range a {
		if !slices.Contains(b, l) {
			return false
		}
	}
	return true
}

func (r *refChecker) rup(lits []sat.Lit) bool {
	if r.empty {
		return true
	}
	r.grow(lits)
	a := slices.Clone(r.root)
	for _, l := range lits {
		switch value(a, l) {
		case 1:
			return true
		case 0:
			assign(a, l^1)
		}
	}
	return r.fixpoint(a)
}

func (r *refChecker) rat(lits []sat.Lit) bool {
	if len(lits) == 0 {
		return false
	}
	r.grow(lits)
	pivot := lits[0]
	if value(r.root, pivot) == -1 {
		return false
	}
	for _, cl := range r.clauses {
		if !slices.Contains(cl, pivot^1) {
			continue
		}
		res := slices.Clone(lits)
		for _, l := range cl {
			if l != pivot^1 {
				res = append(res, l)
			}
		}
		if !r.rup(res) {
			return false
		}
	}
	return true
}

func (r *refChecker) add(lits []sat.Lit) {
	r.grow(lits)
	cl, ok := dedupe(lits)
	if !ok {
		return
	}
	var open []sat.Lit
	for _, l := range cl {
		switch value(r.root, l) {
		case 1:
			return
		case 0:
			open = append(open, l)
		}
	}
	switch len(open) {
	case 0:
		r.empty = true
	case 1:
		assign(r.root, open[0])
		if r.fixpoint(r.root) {
			r.empty = true
		}
	default:
		r.clauses = append(r.clauses, cl)
	}
}

func (r *refChecker) del(lits []sat.Lit) {
	r.grow(lits)
	cl, ok := dedupe(lits)
	if !ok {
		return
	}
	for i, have := range r.clauses {
		if !sameSet(have, cl) {
			continue
		}
		open, sat := 0, false
		for _, l := range have {
			switch value(r.root, l) {
			case 1:
				sat = true
			case 0:
				open++
			}
		}
		if !sat && open <= 1 {
			return
		}
		r.clauses = slices.Delete(r.clauses, i, i+1)
		return
	}
}

func (r *refChecker) Step(op sat.ProofOp, lits []sat.Lit) {
	if r.err {
		return
	}
	switch op {
	case sat.ProofInput:
		r.add(lits)
	case sat.ProofAdd:
		if r.empty {
			return
		}
		if !r.rup(lits) {
			if !r.rat(lits) {
				r.err = true
				return
			}
			r.rats++
		}
		r.add(lits)
	case sat.ProofDelete:
		r.del(lits)
	}
}

func (r *refChecker) verifyUnsat(assumptions []sat.Lit) bool {
	switch {
	case r.err:
		return false
	case r.empty:
		return true
	case len(assumptions) == 0 || r.rats > 0:
		return false
	}
	neg := make([]sat.Lit, len(assumptions))
	for i, a := range assumptions {
		neg[i] = a ^ 1
	}
	return r.rup(neg)
}

// clauseKey renders a clause order-independently.
func clauseKey(lits []sat.Lit) string {
	s := slices.Clone(lits)
	slices.Sort(s)
	return fmt.Sprint(s)
}

// liveSet renders a clause list as a sorted multiset of clause keys.
func liveSet(clauses [][]sat.Lit) string {
	keys := make([]string, len(clauses))
	for i, cl := range clauses {
		keys[i] = clauseKey(cl)
	}
	slices.Sort(keys)
	return strings.Join(keys, " ")
}

// storedClauses lists the checker's live clauses.
func (c *Checker) storedClauses() [][]sat.Lit {
	var out [][]sat.Lit
	for off := 1; off < len(c.mem); off += clHeader + c.size(uint32(off)) {
		if c.mem[off]&hdrDeleted != 0 {
			continue
		}
		var cl []sat.Lit
		for _, w := range c.lits(uint32(off)) {
			cl = append(cl, sat.Lit(w))
		}
		out = append(out, cl)
	}
	return out
}

// agree fails the test unless ck and ref agree on Err()==nil, Empty,
// RATs, VerifyUnsat (bare and under assumptions) and, until the
// refutation, Live and the live clause multiset. Once the empty clause
// is derived, later inputs land on a root assignment that the conflict
// left half propagated, in an order either checker may choose, so the
// store is compared only before it.
func agree(t *testing.T, where string, ck *Checker, ref *refChecker, assumptions []sat.Lit) {
	t.Helper()
	if (ck.Err() == nil) == ref.err || ck.Empty() != ref.empty || ck.RATs() != ref.rats {
		t.Fatalf("%s: err=%v empty=%v rats=%d, reference err=%v empty=%v rats=%d",
			where, ck.Err(), ck.Empty(), ck.RATs(), ref.err, ref.empty, ref.rats)
	}
	if got, want := ck.VerifyUnsat() == nil, ref.verifyUnsat(nil); got != want {
		t.Fatalf("%s: VerifyUnsat() ok=%v, reference %v", where, got, want)
	}
	if got, want := ck.VerifyUnsat(assumptions...) == nil, ref.verifyUnsat(assumptions); got != want {
		t.Fatalf("%s: VerifyUnsat(%v) ok=%v, reference %v", where, assumptions, got, want)
	}
	if ref.empty {
		return
	}
	if ck.Live() != len(ref.clauses) {
		t.Fatalf("%s: live=%d, reference %d", where, ck.Live(), len(ref.clauses))
	}
	if got, want := liveSet(ck.storedClauses()), liveSet(ref.clauses); got != want {
		t.Fatalf("%s: live clauses\n  %s\nreference\n  %s", where, got, want)
	}
	checkStore(t, where, ck)
}

// checkStore fails the test unless the checker's store is consistent:
// the slab parses into clauses, the live ones and the deleted words
// match Live and the waste count, every live clause is on its bucket's
// chain exactly once and no deleted one is on any chain, and every live
// clause is watched exactly once on each of its first two literals, by
// watchers whose blocker is another literal of the clause.
func checkStore(t *testing.T, where string, c *Checker) {
	t.Helper()
	live, waste := map[uint32]bool{}, 0
	for off := 1; off < len(c.mem); off += clHeader + c.size(uint32(off)) {
		if c.size(uint32(off)) < 2 || off+clHeader+c.size(uint32(off)) > len(c.mem) {
			t.Fatalf("%s: bad clause header at %d", where, off)
		}
		if c.mem[off]&hdrDeleted != 0 {
			waste += clHeader + c.size(uint32(off))
		} else {
			live[uint32(off)] = true
		}
	}
	if len(live) != c.live || waste != c.wasted {
		t.Fatalf("%s: slab holds %d live clauses and %d deleted words, counters %d and %d", where, len(live), waste, c.live, c.wasted)
	}
	chained := map[uint32]bool{}
	for b, off := range c.buckets {
		for ; off != 0; off = c.mem[off+1] {
			if !live[off] || chained[off] || c.bucket(c.slabHash(off)) != b {
				t.Fatalf("%s: bucket %d chains clause %d (live %v, seen %v)", where, b, off, live[off], chained[off])
			}
			chained[off] = true
		}
	}
	if len(chained) != len(live) {
		t.Fatalf("%s: %d of %d live clauses on the index", where, len(chained), len(live))
	}
	watched := map[[2]uint32]int{}
	for l, ws := range c.watches {
		for _, w := range ws {
			if !live[w.c] {
				continue // a deleted clause, dropped lazily
			}
			lits := c.lits(w.c)
			if uint32(l) != lits[0] && uint32(l) != lits[1] {
				t.Fatalf("%s: literal %d watches clause %d, whose watched pair is %d %d", where, l, w.c, lits[0], lits[1])
			}
			if w.blocker == uint32(l) || !slices.Contains(lits, w.blocker) {
				t.Fatalf("%s: watcher of clause %d on literal %d has blocker %d, not another literal of %v", where, w.c, l, w.blocker, lits)
			}
			watched[[2]uint32{w.c, uint32(l)}]++
		}
	}
	for off := range live {
		lits := c.lits(off)
		for _, l := range lits[:2] {
			if n := watched[[2]uint32{off, l}]; n != 1 {
				t.Fatalf("%s: clause %d watched %d times on literal %d", where, off, n, l)
			}
		}
	}
}

// refStream generates a proof stream online against the reference, so
// it can aim its steps at the reference's current database: inputs (a
// share of them units), RUP additions (resolvents and weakenings of live
// clauses), RAT-only additions on a fresh pivot, additions that are
// neither, duplicates of live clauses, deletes of live clauses with
// their literals shuffled and repeated, and unmatched deletes. The
// return value is the stream; ref has consumed it.
func refStream(rng *rand.Rand, ref *refChecker, n int) []streamStep {
	nv := 4 + rng.Intn(10)
	lit := func() sat.Lit { return sat.MkLit(sat.Var(rng.Intn(nv)), rng.Intn(2) == 0) }
	clause := func(w int) []sat.Lit {
		cl := make([]sat.Lit, w)
		for i := range cl {
			cl[i] = lit()
		}
		return cl
	}
	live := func() []sat.Lit {
		if len(ref.clauses) == 0 {
			return clause(2 + rng.Intn(3))
		}
		return slices.Clone(ref.clauses[rng.Intn(len(ref.clauses))])
	}
	var steps []streamStep
	emit := func(op sat.ProofOp, lits []sat.Lit) {
		steps = append(steps, streamStep{op: op, lits: lits})
		ref.Step(op, lits)
	}
	for len(steps) < n {
		switch k := rng.Intn(100); {
		case k < 22: // input; one in five a unit
			w := 2 + rng.Intn(3)
			if rng.Intn(5) == 0 {
				w = 1
			}
			emit(sat.ProofInput, clause(w))
		case k < 35: // resolvent of two live clauses: RUP
			a, b := live(), live()
			for _, l := range a {
				if slices.Contains(b, l^1) {
					res := slices.DeleteFunc(slices.Clone(a), func(x sat.Lit) bool { return x == l })
					for _, m := range b {
						if m != l^1 {
							res = append(res, m)
						}
					}
					emit(sat.ProofAdd, res)
					break
				}
			}
		case k < 43: // weakening of a live clause: RUP
			emit(sat.ProofAdd, append(live(), lit()))
		case k < 47: // RAT-only: the pivot is a variable no clause mentions
			v := sat.Var(nv)
			nv++
			emit(sat.ProofAdd, append([]sat.Lit{sat.MkLit(v, rng.Intn(2) == 0)}, clause(1+rng.Intn(2))...))
		case k < 49: // arbitrary addition: usually neither RUP nor RAT
			emit(sat.ProofAdd, clause(1+rng.Intn(3)))
		case k < 55: // duplicate of a live clause
			op := sat.ProofInput
			if rng.Intn(2) == 0 {
				op = sat.ProofAdd
			}
			emit(op, live())
		case k < 88: // delete a live clause, shuffled, a literal repeated
			cl := live()
			rng.Shuffle(len(cl), func(i, j int) { cl[i], cl[j] = cl[j], cl[i] })
			if rng.Intn(3) == 0 {
				cl = append(cl, cl[rng.Intn(len(cl))])
			}
			emit(sat.ProofDelete, cl)
		default: // delete a clause that is (usually) not there
			emit(sat.ProofDelete, clause(1+rng.Intn(4)))
		}
	}
	return steps
}

// runAgainstReference replays steps into a Checker, forking it with
// Clone after cut steps and feeding the rest to both the original and
// the clone, and compares each with the reference after every step.
func runAgainstReference(t *testing.T, steps []streamStep, cut int, assumptions []sat.Lit) {
	t.Helper()
	ref := &refChecker{}
	cks := []*Checker{New()}
	var refs []*refChecker
	for i, st := range steps {
		if i == cut {
			cks = append(cks, cks[0].Clone())
			refs = append(refs, ref.clone())
			agree(t, fmt.Sprintf("clone at step %d", i), cks[1], refs[0], assumptions)
		}
		ref.Step(st.op, st.lits)
		for _, r := range refs {
			r.Step(st.op, st.lits)
		}
		for j, ck := range cks {
			ck.Step(st.op, st.lits)
			r := ref
			if j > 0 {
				r = refs[j-1]
			}
			agree(t, fmt.Sprintf("step %d (%v %v), checker %d", i, st.op, st.lits, j), ck, r, assumptions)
		}
	}
}

// TestCheckerMatchesReference runs seeded streams through the Checker
// and the reference, comparing them after every step and across a Clone
// at a random cut.
func TestCheckerMatchesReference(t *testing.T) {
	kinds := map[string]int{}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gen := &refChecker{}
		steps := refStream(rng, gen, 20+rng.Intn(120))
		assumptions := []sat.Lit{sat.MkLit(sat.Var(rng.Intn(4)), rng.Intn(2) == 0), sat.MkLit(sat.Var(rng.Intn(4)), rng.Intn(2) == 0)}
		runAgainstReference(t, steps, rng.Intn(len(steps)+1), assumptions)
		switch {
		case gen.err:
			kinds["rejected"]++
		case gen.empty:
			kinds["refuted"]++
		default:
			kinds["open"]++
		}
		if gen.rats > 0 {
			kinds["rat"]++
		}
	}
	// The generator must reach every outcome, or the comparison is thin.
	for _, k := range []string{"rejected", "refuted", "open", "rat"} {
		if kinds[k] == 0 {
			t.Errorf("no stream ended %s: %v", k, kinds)
		}
	}
}

// fuzzSteps decodes fuzz input into a proof stream: the first byte
// picks the variable count (and, in the fuzz targets, the clone cut),
// then each step is an op byte (input, addition or delete), a width byte
// and that many literal bytes.
func fuzzSteps(data []byte) []streamStep {
	if len(data) < 2 {
		return nil
	}
	nv := 2 + int(data[0])%6
	var steps []streamStep
	for i := 1; i+1 < len(data) && len(steps) < 200; {
		op := sat.ProofOp(data[i] % 3)
		w := int(data[i+1]) % 5
		i += 2
		var lits []sat.Lit
		for ; w > 0 && i < len(data); w-- {
			lits = append(lits, sat.Lit(int(data[i])%(2*nv)))
			i++
		}
		steps = append(steps, streamStep{op: op, lits: lits})
	}
	return steps
}

// addFuzzSeeds adds the seed streams shared by the stream fuzz targets.
func addFuzzSeeds(f *testing.F) {
	f.Add([]byte{3, 0, 2, 0, 2, 0, 1, 3, 1, 0, 2, 1, 2, 0, 5, 2, 2, 0, 2})
	f.Add([]byte{5, 0, 1, 0, 0, 2, 1, 2, 1, 1, 1, 0, 2, 2, 2, 3, 2, 0, 1})
	f.Add([]byte{8, 0, 3, 0, 2, 4, 0, 3, 1, 2, 5, 1, 2, 1, 3, 2, 3, 0, 2, 4, 1, 1, 8})
}

// FuzzCheckerReference compares the Checker with the reference on
// fuzz-shaped streams (fuzzSteps), cloning at a cut the first byte picks.
func FuzzCheckerReference(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := fuzzSteps(data)
		if len(steps) == 0 {
			return
		}
		cut := int(data[0]/8) % (len(steps) + 1)
		runAgainstReference(t, steps, cut, []sat.Lit{0, 3})
	})
}
