package sat

import (
	"math/rand"
	"testing"
)

// addLearned registers a clause as a learned clause the way record()
// would, so vivification tests can craft exact inputs.
func addLearned(s *Solver, lits ...Lit) cref {
	c := s.ca.alloc(lits, true)
	s.ca.setLBD(c, int32(len(lits)))
	s.learned = append(s.learned, c)
	s.attach(c)
	return c
}

// TestVivifyShortensImpliedSuffix: with ¬a ⊢ b ⊢ c by unit propagation,
// the learned clause (a ∨ c ∨ d) vivifies to (a ∨ c): assuming ¬a
// propagates c, so the remaining literals are redundant.
func TestVivifyShortensImpliedSuffix(t *testing.T) {
	s := New()
	vs := newVars(s, 4)
	a, b, c, d := vs[0], vs[1], vs[2], vs[3]
	mustAdd(t, s, PosLit(a), PosLit(b)) // ¬a → b
	mustAdd(t, s, NegLit(b), PosLit(c)) // b → c
	cl := addLearned(s, PosLit(a), PosLit(c), PosLit(d))

	s.vivifyClause(cl)
	if s.ca.deleted(cl) {
		t.Fatalf("clause deleted, want shortened")
	}
	if got := s.ca.appendLits(nil, cl); len(got) != 2 {
		t.Fatalf("vivified length = %d (%v), want 2", len(got), got)
	}
	if st := s.Stats(); st.VivifiedClauses != 1 {
		t.Fatalf("VivifiedClauses = %d, want 1", st.VivifiedClauses)
	}
	_ = d
	if s.Solve() != Sat {
		t.Fatalf("instance must stay satisfiable after vivification")
	}
}

// TestVivifyDropsRootSatisfied: a learned clause containing a root-true
// literal is removed outright.
func TestVivifyDropsRootSatisfied(t *testing.T) {
	s := New()
	vs := newVars(s, 3)
	mustAdd(t, s, PosLit(vs[0])) // root unit: v0 = true
	if s.propagate() != 0 {
		t.Fatal("unexpected root conflict")
	}
	cl := addLearned(s, PosLit(vs[0]), PosLit(vs[1]), PosLit(vs[2]))
	s.vivifyClause(cl)
	if !s.ca.deleted(cl) {
		t.Fatalf("root-satisfied learned clause not removed")
	}
}

// TestVivifyEquisatisfiable: running inprocessing aggressively via the
// restart hook must never change a verdict, on unsat (pigeonhole) and
// on seeded random instances alike.
func TestVivifyEquisatisfiable(t *testing.T) {
	arm := func(s *Solver) {
		s.restartHook = func() {
			s.simplifyRoots()
			if !s.rootUnsat {
				s.vivifyRound(64)
			}
		}
		s.restartBase = 16 // restart (and hence inprocess) often
	}

	s := New()
	php(t, s, 7, 6)
	arm(s)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(7,6) with inprocessing = %v, want unsat", got)
	}
	if s.Stats().VivifiedClauses == 0 {
		t.Fatalf("inprocessing never strengthened a clause on a hard instance")
	}

	for seed := int64(0); seed < 20; seed++ {
		plain := New()
		_, clauses := randomSeededCNF(t, plain, rand.New(rand.NewSource(900+seed)), 20, 70, 3)
		want := plain.Solve()

		proc := New()
		randomSeededCNF(t, proc, rand.New(rand.NewSource(900+seed)), 20, 70, 3)
		arm(proc)
		got := proc.Solve()
		if got != want {
			t.Fatalf("seed %d: inprocessed=%v plain=%v", seed, got, want)
		}
		if got == Sat && !modelSatisfies(proc, clauses) {
			t.Fatalf("seed %d: inprocessed model violates original clauses", seed)
		}
	}
}

// TestSimplifyRootsRemovesSatisfied: clauses satisfied by root units
// disappear from both databases.
func TestSimplifyRootsRemovesSatisfied(t *testing.T) {
	s := New()
	vs := newVars(s, 4)
	mustAdd(t, s, PosLit(vs[0]), PosLit(vs[1])) // satisfied once v0 is forced
	mustAdd(t, s, PosLit(vs[2]), PosLit(vs[3])) // untouched
	mustAdd(t, s, PosLit(vs[0]))                // root unit added last, so the clause above is already in the DB
	if s.propagate() != 0 {
		t.Fatal("unexpected root conflict")
	}
	addLearned(s, PosLit(vs[0]), NegLit(vs[2]))
	before := len(s.clauses)
	s.simplifyRoots()
	if len(s.clauses) >= before {
		t.Fatalf("satisfied problem clause not removed: %d -> %d", before, len(s.clauses))
	}
	if len(s.learned) != 0 {
		t.Fatalf("satisfied learned clause not removed")
	}
	if s.Solve() != Sat {
		t.Fatalf("instance must stay satisfiable after root cleaning")
	}
}
