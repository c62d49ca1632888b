package sat_test

import (
	"math/rand"
	"slices"
	"testing"

	"scadaver/internal/sat"
	"scadaver/internal/sat/drat"
)

// chainConflict builds the implication graph both minimization tests
// share and runs conflict analysis on it. Decisions, in order: e when
// withE (level 1), then a, then b. The clauses
//
//	(¬a ∨ [¬e ∨] x)  (¬x ∨ y)  (¬a ∨ ¬b ∨ c)  (¬y ∨ ¬b ∨ ¬c)
//
// imply x and then y on a's level, and b conflicts with a and y, so
// the first-UIP clause is (¬b ∨ ¬a ∨ ¬y). ¬y's reason is (y ∨ ¬x), and
// x is not in the clause: a one-step check keeps ¬y.
func chainConflict(t *testing.T, withE bool) (learnt []sat.Lit, back int, s *sat.Solver, v map[string]sat.Var) {
	t.Helper()
	s = sat.New()
	v = map[string]sat.Var{}
	for _, name := range []string{"e", "a", "x", "y", "b", "c"} {
		v[name] = s.NewVar()
	}
	add := func(lits ...sat.Lit) {
		if err := s.AddClause(lits...); err != nil {
			t.Fatal(err)
		}
	}
	neg := func(n string) sat.Lit { return sat.NegLit(v[n]) }
	pos := func(n string) sat.Lit { return sat.PosLit(v[n]) }
	if withE {
		add(neg("a"), neg("e"), pos("x"))
	} else {
		add(neg("a"), pos("x"))
	}
	add(neg("x"), pos("y"))
	add(neg("a"), neg("b"), pos("c"))
	add(neg("y"), neg("b"), neg("c"))

	var decisions []string
	if withE {
		decisions = append(decisions, "e")
	}
	decisions = append(decisions, "a", "b")
	for i, d := range decisions {
		sat.Decide(s, pos(d))
		learnt, back, conflict := sat.PropagateAnalyze(s)
		if last := i == len(decisions)-1; conflict != last {
			t.Fatalf("after deciding %s: conflict %t", d, conflict)
		}
		if conflict {
			return learnt, back, s, v
		}
	}
	panic("unreachable")
}

// sameClause reports whether got is want with the same asserting
// literal first and the rest in any order.
func sameClause(got, want []sat.Lit) bool {
	if len(got) != len(want) || len(got) == 0 || got[0] != want[0] {
		return false
	}
	g, w := slices.Clone(got[1:]), slices.Clone(want[1:])
	slices.Sort(g)
	slices.Sort(w)
	return slices.Equal(g, w)
}

// TestMinimizeDropsTwoStepChain: ¬y is implied through y ← x ← a, and a
// is in the clause, so recursive minimization drops ¬y.
func TestMinimizeDropsTwoStepChain(t *testing.T) {
	learnt, back, s, v := chainConflict(t, false)
	want := []sat.Lit{sat.NegLit(v["b"]), sat.NegLit(v["a"])}
	if !sameClause(learnt, want) || back != 1 {
		t.Errorf("learned %v back %d, want %v back 1", learnt, back, want)
	}
	if seen := sat.Seen(s); len(seen) != 0 {
		t.Errorf("seen flags left set on %v", seen)
	}
	if n := sat.MinimizeMarks(s); n != 1 {
		t.Errorf("%d chain marks, want 1 (x)", n)
	}
}

// TestMinimizeKeepsChainToOutsideDecision: x now also needs e, decided
// on level 1, which no clause literal is on. The walk from ¬y marks x,
// then fails at e, so ¬y stays and x's mark is undone.
func TestMinimizeKeepsChainToOutsideDecision(t *testing.T) {
	learnt, back, s, v := chainConflict(t, true)
	want := []sat.Lit{sat.NegLit(v["b"]), sat.NegLit(v["a"]), sat.NegLit(v["y"])}
	if !sameClause(learnt, want) || back != 2 {
		t.Errorf("learned %v back %d, want %v back 2", learnt, back, want)
	}
	if seen := sat.Seen(s); len(seen) != 0 {
		t.Errorf("seen flags left set on %v", seen)
	}
	if n := sat.MinimizeMarks(s); n != 0 {
		t.Errorf("%d chain marks left after a failed walk, want 0", n)
	}
}

// checkAfterConflicts hooks s so that after every conflict (analysis
// and learning done) no seen flag is set, and counts the conflicts
// whose minimization proved a literal redundant through a reason chain.
func checkAfterConflicts(t *testing.T, s *sat.Solver) *int {
	t.Helper()
	chains := new(int)
	s.SetConflictHook(func(n uint64) bool {
		if seen := sat.Seen(s); len(seen) != 0 {
			t.Fatalf("conflict %d: seen flags left set on %d variables", n, len(seen))
		}
		if sat.MinimizeMarks(s) > 0 {
			*chains++
		}
		return false
	})
	return chains
}

// TestMinimizeLeavesNoMarks solves seeded random 3-SAT formulas above
// the threshold and checks the marks after every conflict analysis.
func TestMinimizeLeavesNoMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 4; i++ {
		s := random3SAT(t, rng, 120, 560)
		chains := checkAfterConflicts(t, s)
		if got := s.Solve(); got != sat.Unsat {
			t.Fatalf("instance %d: %v, want Unsat", i, got)
		}
		if *chains == 0 {
			t.Errorf("instance %d: no conflict dropped a literal through a reason chain", i)
		}
	}
}

// checkedProof feeds every proof step to a DRAT checker and fails at
// the first step the checker rejects.
type checkedProof struct {
	t  *testing.T
	ck *drat.Checker
	n  int
}

func (p *checkedProof) Step(op sat.ProofOp, lits []sat.Lit) {
	p.n++
	p.ck.Step(op, lits)
	if err := p.ck.Err(); err != nil {
		p.t.Fatalf("proof step %d (%v %v): %v", p.n, op, lits, err)
	}
}

// pigeonhole adds PHP(n+1, n) to s.
func pigeonhole(t *testing.T, s *sat.Solver, n int) {
	t.Helper()
	p := make([][]sat.Var, n+1)
	for i := range p {
		for j := 0; j < n; j++ {
			p[i] = append(p[i], s.NewVar())
		}
	}
	for i := range p {
		row := make([]sat.Lit, n)
		for j := range row {
			row[j] = sat.PosLit(p[i][j])
		}
		if err := s.AddClause(row...); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < n; j++ {
		for i1 := range p {
			for i2 := i1 + 1; i2 < len(p); i2++ {
				if err := s.AddClause(sat.NegLit(p[i1][j]), sat.NegLit(p[i2][j])); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestMinimizedProofCertifies: clauses shortened through reason chains
// are still RUP, so a checker stepped alongside the solve accepts every
// learned clause and the final refutation, on a pigeonhole instance and
// a seeded unsat random 3-SAT where chains drop literals.
func TestMinimizedProofCertifies(t *testing.T) {
	cases := []struct {
		name  string
		build func(*sat.Solver)
	}{
		{"php6", func(s *sat.Solver) { pigeonhole(t, s, 6) }},
		{"random3sat", func(s *sat.Solver) { addRandom3SAT(t, s, rand.New(rand.NewSource(7)), 150, 700) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sat.New()
			p := &checkedProof{t: t, ck: drat.New()}
			s.SetProofHook(p)
			tc.build(s)
			chains := checkAfterConflicts(t, s)
			if got := s.Solve(); got != sat.Unsat {
				t.Fatalf("%v, want Unsat", got)
			}
			if *chains == 0 {
				t.Fatal("no conflict dropped a literal through a reason chain")
			}
			if err := p.ck.VerifyUnsat(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
