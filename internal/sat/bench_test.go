package sat

import (
	"math/rand"
	"testing"
)

// buildChain wires n implication chains x0 → x1 → … → xn-1 so a single
// assumption floods the propagation queue: the benchmark's hot loop is
// exactly Solver.propagate plus the trail unwinding between calls.
func buildChain(b *testing.B, s *Solver, n int) []Var {
	b.Helper()
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		if err := s.AddClause(NegLit(vars[i]), PosLit(vars[i+1])); err != nil {
			b.Fatal(err)
		}
	}
	return vars
}

// BenchmarkPropagate measures steady-state propagation: each iteration
// assumes the head of a 4096-variable implication chain, propagating the
// full chain and unwinding it again. Run with -benchmem; the watcher
// filtering must stay allocation-free once watch lists have warmed up.
func BenchmarkPropagate(b *testing.B) {
	s := New()
	vars := buildChain(b, s, 4096)
	head := PosLit(vars[0])
	if s.Solve(head) != Sat {
		b.Fatal("chain should be satisfiable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Solve(head) != Sat {
			b.Fatal("chain should stay satisfiable")
		}
	}
}

// BenchmarkSolveConflicts measures the conflict-heavy steady state —
// analyze, clause learning, DB reduction, and the per-conflict scratch
// buffers — by re-solving a seeded random 3-SAT instance under rotating
// assumptions. The minimization buffers (clause snapshot, chain marks,
// depth-first stack) are reused across conflicts, so allocs/op here
// tracks only genuine clause learning.
func BenchmarkSolveConflicts(b *testing.B) {
	s := New()
	rng := rand.New(rand.NewSource(42))
	const nv, nc = 120, 480
	vars := make([]Var, nv)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i < nc; i++ {
		lits := make([]Lit, 0, 3)
		seen := map[int]bool{}
		for len(lits) < 3 {
			j := rng.Intn(nv)
			if seen[j] {
				continue
			}
			seen[j] = true
			lits = append(lits, MkLit(vars[j], rng.Intn(2) == 1))
		}
		if err := s.AddClause(lits...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a1 := MkLit(vars[i%nv], i%2 == 0)
		a2 := MkLit(vars[(i*7+3)%nv], i%3 == 0)
		if a1.Var() == a2.Var() {
			a2 = MkLit(vars[(i*7+4)%nv], i%3 == 0)
		}
		s.Solve(a1, a2)
	}
}
