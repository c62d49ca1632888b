package sat_test

import (
	"fmt"
	"math/rand"
	"testing"

	"scadaver/internal/logic"
	"scadaver/internal/sat"
)

// TestCloneFitsBudget: failure budgets like the ones the analyzer puts
// on a snapshot clone — one counter over n inputs, or one each over two
// halves, k = 0..5 — encoded as Solve encodes an assumed one, on a
// clone taken with logic's CloneFor for that budget, land without
// reallocating any per-variable array, the decision heap, the clause
// list, the arena or the watcher pool. (Asserting it also propagates
// its unit at the root, which moves watchers as any search does.)
func TestCloneFitsBudget(t *testing.T) {
	snap, inputs := budgetSnapshot(t)
	half := len(inputs) / 2
	for k := 0; k <= 5; k++ {
		for name, budget := range map[string]*logic.Formula{
			"combined": logic.AtMost(k, inputs...),
			"split":    logic.And(logic.AtMost(k, inputs[:half]...), logic.AtMost(k, inputs[half:]...)),
		} {
			c := snap.CloneFor(budget)
			s := c.Solver()
			before := sat.Backing(s)
			vars0 := s.NumVars()
			c.Implying(budget)
			for array, p := range sat.Backing(s) {
				if p != before[array] {
					t.Errorf("k=%d %s (+%d vars on %d): %s reallocated", k, name, s.NumVars()-vars0, vars0, array)
				}
			}
		}
	}
}

// budgetSnapshot encodes a random 3-CNF over 3,000 named variables and
// returns it with the negated first hundred, the inputs of its budgets.
func budgetSnapshot(t *testing.T) (*logic.Encoder, []*logic.Formula) {
	t.Helper()
	const nv, nc = 3000, 6000
	snap := logic.NewEncoder()
	rng := rand.New(rand.NewSource(57))
	lit := func(i int) sat.Lit {
		l := snap.VarLit(fmt.Sprintf("v%d", i))
		if rng.Intn(2) == 1 {
			return l.Neg()
		}
		return l
	}
	for i := 0; i < nv; i++ {
		lit(i)
	}
	for i := 0; i < nc; i++ {
		if err := snap.Solver().AddClause(lit(rng.Intn(nv)), lit(rng.Intn(nv)), lit(rng.Intn(nv))); err != nil {
			t.Fatal(err)
		}
	}
	inputs := make([]*logic.Formula, nv/30)
	for i := range inputs {
		inputs[i] = logic.Not(logic.V(fmt.Sprintf("v%d", i)))
	}
	return snap, inputs
}

// TestCloneHasSearchRoom: a query's search moves watchers between
// lists, and the lists keep the slots they reach. The clone's pool has
// room for that at its end, beyond the budget's, so a k = 0..5 budget
// and the solve it is assumed in run without reallocating the pool.
func TestCloneHasSearchRoom(t *testing.T) {
	snap, inputs := budgetSnapshot(t)
	for k := 0; k <= 5; k++ {
		budget := logic.AtMost(k, inputs...)
		c := snap.CloneFor(budget)
		s := c.Solver()
		pool := sat.Backing(s)["pool"]
		if st := s.Solve(c.Implying(budget)); st != sat.Sat {
			t.Fatalf("k=%d: %v", k, st)
		}
		if sat.Backing(s)["pool"] != pool {
			t.Errorf("k=%d: the solve reallocated the clone's watcher pool", k)
		}
	}
}
