package sat

import (
	"math/rand"
	"testing"
)

// fuzzReader hands out the fuzz input a byte at a time, zeros once it
// runs out.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

func (r *fuzzReader) done() bool { return len(r.data) == 0 }

// modelSet is a set of assignments to at most twelve variables: bit m
// stands for the assignment that makes variable v true iff bit v of m
// is set.
type modelSet [1 << 12 / 64]uint64

// litModels returns the assignments of nv variables that make l true.
func litModels(nv int, l Lit) modelSet {
	var ms modelSet
	for m := 0; m < 1<<nv; m++ {
		if (m>>int(l.Var())&1 == 1) != l.Sign() {
			ms[m/64] |= 1 << (m % 64)
		}
	}
	return ms
}

// bruteForce answers satisfiability over nv variables by keeping the
// set of assignments that satisfy every clause added so far.
type bruteForce struct {
	nv   int
	sat  modelSet   // assignments satisfying every clause
	lits []modelSet // per literal, the assignments that make it true
}

func newBruteForce(nv int) *bruteForce {
	b := &bruteForce{nv: nv, lits: make([]modelSet, 2*nv)}
	for l := range b.lits {
		b.lits[l] = litModels(nv, Lit(l))
	}
	b.sat = b.lits[0]
	for i := range b.sat {
		b.sat[i] |= b.lits[1][i] // every assignment
	}
	return b
}

func (b *bruteForce) add(c []Lit) {
	var cs modelSet
	for _, l := range c {
		for i := range cs {
			cs[i] |= b.lits[l][i]
		}
	}
	for i := range b.sat {
		b.sat[i] &= cs[i]
	}
}

// solve reports whether some assignment satisfies every clause and
// assumption.
func (b *bruteForce) solve(assumptions []Lit) bool {
	for i, w := range b.sat {
		for _, a := range assumptions {
			w &= b.lits[a][i]
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// runSolveOps drives one solver through the operations the input spells
// out and checks every verdict against brute force: adding clauses,
// solving under assumptions, continuing on a clone with room, Simplify
// with a frozen set, a small conflict budget, and a learned-clause
// limit low enough to force database reductions and arena compactions.
// Variables eliminated by Simplify are not used again.
func runSolveOps(t *testing.T, data []byte) {
	r := &fuzzReader{data: data}
	s := New()
	nv := 1 + r.next()%12
	newVars(s, nv)
	brute := newBruteForce(nv)
	var cls [][]Lit
	budget := false
	lit := func() (Lit, bool) {
		b := r.next()
		v := Var(b>>1) % Var(nv)
		for i := 0; i < nv && s.Eliminated(v); i++ {
			v = (v + 1) % Var(nv)
		}
		return MkLit(v, b&1 == 1), !s.Eliminated(v)
	}
	for ops := 0; !r.done() && ops < 256; ops++ {
		switch op := r.next() % 8; op {
		case 0, 1: // a clause of one to four literals
			c := make([]Lit, 1+r.next()%4)
			for i := range c {
				l, ok := lit()
				if !ok {
					return // every variable is eliminated
				}
				c[i] = l
			}
			if err := s.AddClause(c...); err != nil {
				t.Fatalf("AddClause(%v): %v", c, err)
			}
			cls = append(cls, c)
			brute.add(c)
		case 2, 3: // solve under up to three assumptions
			as := make([]Lit, r.next()%4)
			for i := range as {
				l, ok := lit()
				if !ok {
					return
				}
				as[i] = l
			}
			got := s.Solve(as...)
			want := brute.solve(as)
			switch {
			case got == Unsolved && budget:
			case got == Unsolved:
				t.Fatalf("op %d: unsolved without a budget", ops)
			case (got == Sat) != want:
				t.Fatalf("op %d: Solve(%v) = %v on %v, brute force sat=%v", ops, as, got, cls, want)
			case got == Sat:
				m := s.Model()
				for _, l := range as {
					if m[l.Var()] == l.Sign() {
						t.Fatalf("op %d: model %v falsifies assumption %v", ops, m, l)
					}
				}
				for _, c := range cls {
					ok := false
					for _, l := range c {
						ok = ok || m[l.Var()] != l.Sign()
					}
					if !ok {
						t.Fatalf("op %d: model %v falsifies clause %v", ops, m, c)
					}
				}
			}
		case 4: // go on with a clone that has room
			b := r.next()
			s = s.CloneWithRoom(Room{Vars: b % 4, Clauses: b / 4 % 8})
		case 5: // Simplify with a frozen set
			mask := r.next() | r.next()<<8
			for v := 0; v < nv; v++ {
				if mask>>v&1 == 1 && !s.Eliminated(Var(v)) {
					s.Freeze(Var(v))
				}
			}
			if !s.Simplify() && brute.solve(nil) {
				t.Fatalf("op %d: Simplify refuted satisfiable %v", ops, cls)
			}
		case 6: // a conflict budget of 0 (none) to 3
			n := uint64(r.next() % 4)
			s.SetConflictBudget(n)
			budget = n > 0
		case 7: // a learned-clause limit of 0 to 7
			s.maxLearned = r.next() % 8
		}
	}
}

// solveOpsSeeds is a deterministic corpus: random op streams, each
// starting with a near-threshold random 4-CNF over twelve variables, a
// learned-clause limit of zero and thirty solves under three
// assumptions, so reductions and compactions run.
func solveOpsSeeds(n int) [][]byte {
	rng := rand.New(rand.NewSource(24))
	out := make([][]byte, n)
	for i := range out {
		b := []byte{11, 7, 0}
		for j := 0; j < 100+rng.Intn(30); j++ {
			b = append(b, 0, 3, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		for j := 0; j < 30; j++ {
			b = append(b, 2, 3, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		for j := 0; j < 20+rng.Intn(60); j++ {
			b = append(b, byte(rng.Intn(256)))
		}
		out[i] = b
	}
	return out
}

// TestSolveMatchesBruteForce runs the fuzz body over the seed corpus.
func TestSolveMatchesBruteForce(t *testing.T) {
	for _, b := range solveOpsSeeds(150) {
		runSolveOps(t, b)
	}
}

// FuzzSolveMatchesBruteForce holds Solve, Clone and Simplify to brute
// force on CNFs of at most twelve variables (see runSolveOps).
func FuzzSolveMatchesBruteForce(f *testing.F) {
	for _, b := range solveOpsSeeds(32) {
		f.Add(b)
	}
	f.Fuzz(runSolveOps)
}
