package logic

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"scadaver/internal/sat"
)

// sharedDAG builds a pool of random formulas over nv variables in which
// every new node takes its kids from the nodes before it, so subformulas
// are shared, and the same node can occur under a cardinality atom, an
// And/Or and a Not at once.
func sharedDAG(rng *rand.Rand, nv, size int) []*Formula {
	pool := make([]*Formula, 0, nv+size)
	for i := 0; i < nv; i++ {
		pool = append(pool, Vf("x%d", i))
	}
	pick := func() *Formula { return pool[rng.Intn(len(pool))] }
	kids := func() []*Formula {
		fs := make([]*Formula, 2+rng.Intn(4))
		for i := range fs {
			fs[i] = pick()
		}
		return fs
	}
	for len(pool) < nv+size {
		var f *Formula
		switch rng.Intn(7) {
		case 0:
			f = Not(pick())
		case 1:
			f = And(kids()...)
		case 2:
			f = Or(kids()...)
		case 3:
			f = Implies(pick(), pick())
		case 4:
			fs := kids()
			f = Exactly(rng.Intn(len(fs)+1), fs...)
		case 5:
			fs := kids()
			f = AtMost(rng.Intn(len(fs)+1), fs...)
		default:
			fs := kids()
			f = AtLeast(rng.Intn(len(fs)+1), fs...)
		}
		pool = append(pool, f)
	}
	return pool
}

// satisfiesAll reports whether m satisfies every formula in fs.
func satisfiesAll(t *testing.T, m Model, fs ...*Formula) bool {
	t.Helper()
	for _, f := range fs {
		ok, err := m.Satisfies(f)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestImplyingAgainstBruteForce holds the positive-context encoding to
// strict evaluation on random formula DAGs. Per trial one formula is
// asserted, one asserted under a selector (AssertGuarded), one assumed
// at every Solve, and the negation of a node shared with them is
// asserted too, so one-sided and exact encodings of the same nodes live
// in one encoder, encoded in a random order. Then, for every assignment
// of the named variables, the encoding with those variables fixed by
// assumptions must be satisfiable exactly when the formulas evaluate
// true, with the selector assumed and without it (the guarded formula
// is then inert). An unfixed solve must agree with the brute force, and
// its model must satisfy the formulas.
func TestImplyingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		nv := 2 + rng.Intn(4)
		pool := sharedDAG(rng, nv, 4+rng.Intn(8))
		top := pool[nv:]
		pos, guarded, assumed := top[len(top)-1], pool[len(pool)-2], pool[len(pool)-3]
		neg := top[rng.Intn(len(top))]
		sel := V("sel")

		e := NewEncoder()
		steps := []func(){
			func() { e.Assert(pos) },
			func() { e.AssertGuarded(sel, guarded) },
			func() { e.Assert(Not(neg)) },
		}
		rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
		for _, step := range steps {
			step()
		}
		desc := fmt.Sprintf("trial %d: assert %v, guarded %v, assume %v, assert not %v", trial, pos, guarded, assumed, neg)

		for _, on := range []bool{true, false} {
			want := []*Formula{pos, assumed, Not(neg)}
			extra := []*Formula{assumed}
			if on {
				want = append(want, guarded)
				extra = append(extra, sel)
			}
			anySat := false
			for bits := 0; bits < 1<<nv; bits++ {
				m := Model{"sel": on}
				fix := append([]*Formula(nil), extra...)
				for i := 0; i < nv; i++ {
					name := fmt.Sprintf("x%d", i)
					m[name] = bits>>i&1 == 1
					if m[name] {
						fix = append(fix, V(name))
					} else {
						fix = append(fix, Not(V(name)))
					}
				}
				ok := satisfiesAll(t, m, want...)
				anySat = anySat || ok
				if got := e.Solve(fix...) == sat.Sat; got != ok {
					t.Fatalf("%s, selector %v, under %v: encoding satisfiable=%v, evaluation %v", desc, on, m, got, ok)
				}
			}
			st := e.Solve(extra...)
			if (st == sat.Sat) != anySat {
				t.Fatalf("%s, selector %v: unfixed solve %v, brute force satisfiable=%v", desc, on, st, anySat)
			}
			if st == sat.Sat {
				if m := e.Model(); !satisfiesAll(t, m, want...) {
					t.Fatalf("%s, selector %v: model %v does not satisfy the formulas", desc, on, m)
				}
			}
		}
	}
}

// TestImplyingCounterSize pins the one-sided totalizer's cost against
// the exact counter on an atom too wide for either to be trivial.
// Asserting AtMost(4) of 12 builds the tree 12 → 6+6 → 3+3 → 1+2 →
// 1+1 with outputs capped at k+1 = 5: 2, 3, 5 and 5 variables and 3,
// 5, 14 and 20 clauses per node (one per sum i+j ≤ 5 of the halves'
// output counts), so 35 variables and 80 clauses, plus the output p
// and the root's overflow clause. The same atom under Not still gets
// the biconditional counter's two gates per cell.
func TestImplyingCounterSize(t *testing.T) {
	const n, k = 12, 4
	xs := make([]*Formula, n)
	for i := range xs {
		xs[i] = Vf("x%d", i)
	}
	cost := func(f *Formula) (vars, clauses int) {
		e := NewEncoder()
		for _, x := range xs {
			e.VarLit(x.name)
		}
		v0, c0 := e.Solver().NumVars(), e.Solver().Stats().Clauses
		e.Assert(f)
		return e.Solver().NumVars() - v0, e.Solver().Stats().Clauses - c0
	}
	if vars, clauses := cost(AtMost(k, xs...)); vars != 36 || clauses != 81 {
		t.Fatalf("one-sided AtMost(%d) of %d: %d vars, %d clauses, want 36 and 81", k, n, vars, clauses)
	}
	if negVars, _ := cost(Not(AtMost(k, xs...))); negVars < 2*k*(n-k) {
		t.Fatalf("exact counter under Not: %d vars, want at least %d", negVars, 2*k*(n-k))
	}
}

// TestImplyingCounterPropagates: the one-sided counter is propagation
// complete in the direction a bound is used. For every n ≤ 9, every
// bound 0 ≤ k < n and every set of k inputs, asserting the atom's
// literal p and those inputs makes unit propagation at the root
// (ReduceRoot) set every other input false; any k+1 true inputs are
// refuted at the root.
func TestImplyingCounterPropagates(t *testing.T) {
	for n := 1; n <= 9; n++ {
		xs := make([]*Formula, n)
		for i := range xs {
			xs[i] = Vf("x%d", i)
		}
		for k := 0; k < n; k++ {
			for set := 0; set < 1<<n; set++ {
				ones := bits.OnesCount(uint(set))
				if ones != k && ones != k+1 {
					continue
				}
				e := NewEncoder()
				s := e.Solver()
				e.mustAdd(e.Implying(AtMost(k, xs...)))
				for i, x := range xs {
					if set>>i&1 == 1 {
						e.mustAdd(e.VarLit(x.name))
					}
				}
				ok := s.ReduceRoot()
				if ones == k+1 {
					if ok {
						t.Errorf("n=%d k=%d: inputs %0*b true not refuted at the root", n, k, n, set)
					}
					continue
				}
				if !ok {
					t.Fatalf("n=%d k=%d: inputs %0*b true refuted at the root", n, k, n, set)
				}
				for i, x := range xs {
					if set>>i&1 == 0 && e.Value(x.name) != sat.False {
						t.Errorf("n=%d k=%d: inputs %0*b true leave %s %v at the root", n, k, n, set, x.name, e.Value(x.name))
					}
				}
			}
		}
	}
}
