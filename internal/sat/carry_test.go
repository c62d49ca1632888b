package sat

import "testing"

// carryProblem builds a solver over n fresh variables with the given
// clauses asserted.
func carryProblem(t *testing.T, n int, clauses [][]Lit) *Solver {
	t.Helper()
	s := New()
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for _, c := range clauses {
		if err := s.AddClause(c...); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func lit(v int, neg bool) Lit { return MkLit(Var(v), neg) }

func TestHarvestLearnts(t *testing.T) {
	// x0=x1, x1=x2, and a chain that forces learning when x0 != x2 is
	// probed; simplest is to solve an unsat-under-assumption instance so
	// learned clauses appear.
	s := carryProblem(t, 3, [][]Lit{
		{lit(0, true), lit(1, false)},
		{lit(1, true), lit(2, false)},
		{lit(0, false), lit(1, true)},
		{lit(1, false), lit(2, true)},
	})
	if st := s.Solve(lit(0, false), lit(2, true)); st != Unsat {
		t.Fatalf("chain with x0 ∧ ¬x2: got %v, want Unsat", st)
	}
	dead := s.ca.alloc([]Lit{lit(0, true), lit(1, false), lit(2, false)}, true)
	s.ca.markDeleted(dead)
	s.learned = append(s.learned, s.ca.alloc([]Lit{lit(0, true), lit(2, false)}, true), dead)
	all := s.HarvestLearnts(0, 0, 100)
	for _, c := range all {
		if len(c) == 0 {
			t.Fatal("harvested an empty clause")
		}
	}
	if len(s.HarvestLearnts(1, 0, 100)) != 0 {
		t.Fatal("maxVar=1 must exclude clauses mentioning x1/x2")
	}
	if got := s.HarvestLearnts(0, 0, 1); len(got) > 1 {
		t.Fatalf("limit=1 returned %d clauses", len(got))
	}
	for _, c := range all {
		if len(c) == 3 {
			t.Fatal("harvest returned a deleted clause")
		}
	}
}

func TestImportLearntsRUPGate(t *testing.T) {
	// Successor database: x0 → x1 → x2. The clause (¬x0 ∨ x2) is RUP
	// here; the clause (x0 ∨ x2) is not implied and must be dropped.
	s := carryProblem(t, 3, [][]Lit{
		{lit(0, true), lit(1, false)},
		{lit(1, true), lit(2, false)},
	})
	n := s.ImportLearnts([][]Lit{
		{lit(0, true), lit(2, false)},  // implied: accepted
		{lit(0, false), lit(2, false)}, // not implied: dropped
	})
	if n != 1 {
		t.Fatalf("imported %d clauses, want 1 (RUP gate must drop the unimplied one)", n)
	}
	if st := s.Solve(lit(0, true), lit(2, true)); st != Sat {
		t.Fatalf("¬x0 ∧ ¬x2 must stay satisfiable after import, got %v", st)
	}
}

func TestImportLearntsUnitAndRootFiltering(t *testing.T) {
	// Database already forces x0 at the root; importing (x0) is
	// root-satisfied, skipped by the value filter but still counted only
	// if RUP — here it IS RUP (root-true literal) yet root-satisfied,
	// so the clause body is skipped entirely.
	s := carryProblem(t, 2, [][]Lit{{lit(0, false)}})
	if n := s.ImportLearnts([][]Lit{{lit(0, false)}}); n != 0 {
		t.Fatalf("root-satisfied import accepted (%d), want skip", n)
	}
	// (¬x0 ∨ x1) with x0 root-true strips to the unit (x1): the import
	// must enqueue it — but only if RUP, which it is not here (x1 is
	// unconstrained), so it is dropped.
	if n := s.ImportLearnts([][]Lit{{lit(0, true), lit(1, false)}}); n != 0 {
		t.Fatalf("unimplied stripped unit accepted (%d), want drop", n)
	}
	// Now make it implied: add (¬x0 ∨ x1) as a problem clause; x1 is a
	// root fact, and re-importing the same clause is root-satisfied.
	if err := s.AddClause(lit(0, true), lit(1, false)); err != nil {
		t.Fatal(err)
	}
	if s.Value(Var(1)) != True {
		t.Fatal("x1 not propagated at root")
	}
}

func TestImportLearntsSkipsEliminatedVars(t *testing.T) {
	s := carryProblem(t, 4, [][]Lit{
		{lit(0, false), lit(1, false)},
		{lit(0, true), lit(1, false), lit(2, false)},
		{lit(2, true), lit(3, false)},
	})
	s.Freeze(Var(0))
	if !s.Simplify() {
		t.Fatal("simplify found the problem unsat")
	}
	var victim Var = -1
	for v := 0; v < s.NumVars(); v++ {
		if s.eliminated[v] {
			victim = Var(v)
			break
		}
	}
	if victim < 0 {
		t.Skip("simplify eliminated nothing; filter untestable here")
	}
	if n := s.ImportLearnts([][]Lit{{MkLit(victim, false)}}); n != 0 {
		t.Fatalf("clause over eliminated var imported (%d), want skip", n)
	}
}
