package logic

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"scadaver/internal/sat"
)

func TestConstructorsFoldConstants(t *testing.T) {
	a := V("a")
	cases := []struct {
		name string
		f    *Formula
		want *Formula
	}{
		{"not true", Not(True()), False()},
		{"not false", Not(False()), True()},
		{"double neg", Not(Not(a)), a},
		{"and empty", And(), True()},
		{"and with false", And(a, False()), False()},
		{"and single", And(a), a},
		{"and drops true", And(True(), a), a},
		{"or empty", Or(), False()},
		{"or with true", Or(a, True()), True()},
		{"or single", Or(a), a},
		{"or drops false", Or(False(), a), a},
		{"atmost neg k", AtMost(-1, a), False()},
		{"atmost k>=n", AtMost(1, a), True()},
		{"atleast 0", AtLeast(0, a), True()},
		{"atleast k>n", AtLeast(2, a), False()},
	}
	for _, tc := range cases {
		if tc.f != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, tc.f, tc.want)
		}
	}
}

func TestEval(t *testing.T) {
	a, b, c := V("a"), V("b"), V("c")
	m := map[string]bool{"a": true, "b": false, "c": true}
	cases := []struct {
		f    *Formula
		want bool
	}{
		{True(), true},
		{False(), false},
		{a, true},
		{b, false},
		{Not(b), true},
		{And(a, c), true},
		{And(a, b), false},
		{Or(b, c), true},
		{Implies(a, b), false},
		{Implies(b, a), true},
		{Iff(a, c), true},
		{Iff(a, b), false},
		{AtMost(1, a, b, c), false},
		{AtMost(2, a, b, c), true},
		{AtLeast(2, a, b, c), true},
		{AtLeast(3, a, b, c), false},
		{Exactly(2, a, b, c), true},
		{Exactly(1, a, b, c), false},
	}
	for i, tc := range cases {
		if got := tc.f.Eval(m); got != tc.want {
			t.Errorf("case %d (%v): got %v, want %v", i, tc.f, got, tc.want)
		}
	}
}

func TestString(t *testing.T) {
	f := And(V("a"), Or(Not(V("b")), V("c")), AtMost(1, V("a"), V("b")))
	s := f.String()
	for _, want := range []string{"(and", "(or", "(not b)", "(atmost 1 a b)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if True().String() != "true" || False().String() != "false" {
		t.Error("constant String broken")
	}
	if AtLeast(2, V("a"), V("b"), V("c")).String() != "(atleast 2 a b c)" {
		t.Errorf("atleast String = %q", AtLeast(2, V("a"), V("b"), V("c")).String())
	}
}

func TestVars(t *testing.T) {
	f := And(V("b"), Or(V("a"), Not(V("c"))), V("a"))
	got := f.Vars()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Vars() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars() = %v, want %v", got, want)
		}
	}
}

func TestVf(t *testing.T) {
	f := Vf("Node_%d", 7)
	if f.String() != "Node_7" {
		t.Fatalf("Vf = %q", f.String())
	}
}

func solveOne(t *testing.T, f *Formula) (sat.Status, Model) {
	t.Helper()
	e := NewEncoder()
	e.Assert(f)
	st := e.Solve()
	if st == sat.Sat {
		return st, e.Model()
	}
	return st, nil
}

func TestEncoderBasics(t *testing.T) {
	a, b := V("a"), V("b")
	st, m := solveOne(t, And(a, Not(b)))
	if st != sat.Sat {
		t.Fatalf("got %v, want sat", st)
	}
	if !m["a"] || m["b"] {
		t.Fatalf("model = %v", m)
	}

	st, _ = solveOne(t, And(a, Not(a)))
	if st != sat.Unsat {
		t.Fatalf("contradiction: got %v, want unsat", st)
	}

	st, _ = solveOne(t, False())
	if st != sat.Unsat {
		t.Fatalf("assert false: got %v, want unsat", st)
	}

	st, _ = solveOne(t, True())
	if st != sat.Sat {
		t.Fatalf("assert true: got %v, want sat", st)
	}
}

func TestEncoderModelSatisfiesFormula(t *testing.T) {
	f := And(
		Or(V("x1"), V("x2"), V("x3")),
		Implies(V("x1"), V("x4")),
		Iff(V("x2"), Not(V("x4"))),
		AtMost(2, V("x1"), V("x2"), V("x3"), V("x4")),
	)
	st, m := solveOne(t, f)
	if st != sat.Sat {
		t.Fatalf("got %v, want sat", st)
	}
	if !f.Eval(map[string]bool(m)) {
		t.Fatalf("model %v does not satisfy %v", m, f)
	}
}

func TestCardinalityExact(t *testing.T) {
	// Exactly(k) over n vars has C(n,k) models; check model validity and
	// unsat boundaries for several (n, k).
	for n := 1; n <= 6; n++ {
		vars := make([]*Formula, n)
		for i := range vars {
			vars[i] = Vf("v%d", i)
		}
		for k := 0; k <= n; k++ {
			e := NewEncoder()
			e.Assert(Exactly(k, vars...))
			if st := e.Solve(); st != sat.Sat {
				t.Fatalf("Exactly(%d) over %d vars: got %v, want sat", k, n, st)
			}
			m := e.Model()
			count := 0
			for i := 0; i < n; i++ {
				if m[fmt.Sprintf("v%d", i)] {
					count++
				}
			}
			if count != k {
				t.Fatalf("Exactly(%d) over %d: model has %d true", k, n, count)
			}
		}
		// Conjunction of incompatible cardinalities must be unsat.
		e := NewEncoder()
		e.Assert(AtLeast(n, vars...))
		e.Assert(AtMost(n-1, vars...))
		if st := e.Solve(); st != sat.Unsat {
			t.Fatalf("n=%d incompatible cards: got %v, want unsat", n, st)
		}
	}
}

func TestCardinalityUnderNegation(t *testing.T) {
	// Not(AtMost(1, a, b, c)) should force at least two true.
	a, b, c := V("a"), V("b"), V("c")
	e := NewEncoder()
	e.Assert(Not(AtMost(1, a, b, c)))
	if st := e.Solve(); st != sat.Sat {
		t.Fatalf("got %v, want sat", st)
	}
	m := e.Model()
	n := 0
	for _, x := range []string{"a", "b", "c"} {
		if m[x] {
			n++
		}
	}
	if n < 2 {
		t.Fatalf("model %v has %d true, want >= 2", m, n)
	}
	// Adding AtMost(1) now contradicts.
	e.Assert(AtMost(1, a, b, c))
	if st := e.Solve(); st != sat.Unsat {
		t.Fatalf("after contradiction: got %v, want unsat", st)
	}
}

func TestCardinalityOverCompoundOperands(t *testing.T) {
	// Cardinality over non-variable operands.
	a, b, c, d := V("a"), V("b"), V("c"), V("d")
	f := And(
		AtLeast(2, And(a, b), Or(c, d), Not(a)),
		a,
	)
	st, m := solveOne(t, f)
	if st != sat.Sat {
		t.Fatalf("got %v, want sat", st)
	}
	if !f.Eval(map[string]bool(m)) {
		t.Fatalf("model %v does not satisfy %v", m, f)
	}
}

func TestAssumptions(t *testing.T) {
	e := NewEncoder()
	a, b := V("a"), V("b")
	e.Assert(Implies(a, b))
	if st := e.Solve(a, Not(b)); st != sat.Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	// Assumption-based query does not pollute the instance.
	if st := e.Solve(a); st != sat.Sat {
		t.Fatalf("got %v, want sat", st)
	}
	if e.Value("b") != sat.True {
		t.Fatalf("b = %v, want true", e.Value("b"))
	}
	if e.Value("never-used") != sat.Unknown {
		t.Fatal("unused name should be Unknown")
	}
}

func TestBlockEnumeratesAllModels(t *testing.T) {
	// Exactly(1) over 4 vars has exactly 4 models; Block should walk
	// them all.
	vars := []*Formula{V("a"), V("b"), V("c"), V("d")}
	names := []string{"a", "b", "c", "d"}
	e := NewEncoder()
	e.Assert(Exactly(1, vars...))
	found := map[string]bool{}
	for i := 0; i < 10; i++ {
		st := e.Solve()
		if st != sat.Sat {
			break
		}
		m := e.Model()
		key := ""
		blocking := map[string]bool{}
		for _, n := range names {
			blocking[n] = m[n]
			if m[n] {
				key += n
			}
		}
		if found[key] {
			t.Fatalf("model %q repeated", key)
		}
		found[key] = true
		e.Block(blocking)
	}
	if len(found) != 4 {
		t.Fatalf("enumerated %d models, want 4", len(found))
	}
}

// refFormula generates a random formula over nv variables for
// differential testing.
func refFormula(rng *rand.Rand, depth, nv int) *Formula {
	if depth == 0 || rng.Intn(4) == 0 {
		return Vf("x%d", rng.Intn(nv))
	}
	switch rng.Intn(6) {
	case 0:
		return Not(refFormula(rng, depth-1, nv))
	case 1, 2:
		n := 2 + rng.Intn(3)
		kids := make([]*Formula, n)
		for i := range kids {
			kids[i] = refFormula(rng, depth-1, nv)
		}
		if rng.Intn(2) == 0 {
			return And(kids...)
		}
		return Or(kids...)
	case 3:
		return Implies(refFormula(rng, depth-1, nv), refFormula(rng, depth-1, nv))
	case 4:
		n := 2 + rng.Intn(4)
		kids := make([]*Formula, n)
		for i := range kids {
			kids[i] = refFormula(rng, depth-1, nv)
		}
		return AtMost(rng.Intn(n+1), kids...)
	default:
		n := 2 + rng.Intn(4)
		kids := make([]*Formula, n)
		for i := range kids {
			kids[i] = refFormula(rng, depth-1, nv)
		}
		return AtLeast(rng.Intn(n+1), kids...)
	}
}

func bruteForceSatFormula(f *Formula, nv int) bool {
	names := make([]string, nv)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	for m := 0; m < 1<<nv; m++ {
		assign := map[string]bool{}
		for i, n := range names {
			assign[n] = m>>uint(i)&1 == 1
		}
		if f.Eval(assign) {
			return true
		}
	}
	return false
}

func TestEncoderAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 250; trial++ {
		nv := 2 + rng.Intn(5)
		f := refFormula(rng, 3, nv)
		want := bruteForceSatFormula(f, nv)
		e := NewEncoder()
		e.Assert(f)
		got := e.Solve()
		if (got == sat.Sat) != want {
			t.Fatalf("trial %d: formula %v: encoder=%v brute=%v", trial, f, got, want)
		}
		if got == sat.Sat {
			m := e.Model()
			// Ensure all formula variables appear (possibly false) and
			// the model satisfies f.
			assign := map[string]bool(m)
			if !f.Eval(assign) {
				t.Fatalf("trial %d: model %v does not satisfy %v", trial, m, f)
			}
		}
	}
}

func TestQuickEncoderSoundness(t *testing.T) {
	// Property: asserting f and Not(f) together is always unsat.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(4)
		g := refFormula(rng, 3, nv)
		e := NewEncoder()
		e.Assert(g)
		e.AssertNot(g)
		return e.Solve() == sat.Unsat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCardinalityEquivalence(t *testing.T) {
	// Property: AtLeast(k) == Not(AtMost(k-1)) over the same operands.
	f := func(seed int64, kRaw, nRaw uint8) bool {
		n := 1 + int(nRaw)%7
		k := int(kRaw) % (n + 2)
		vars := make([]*Formula, n)
		for i := range vars {
			vars[i] = Vf("x%d", i)
		}
		e := NewEncoder()
		e.Assert(Not(Iff(AtLeast(k, vars...), Not(AtMost(k-1, vars...)))))
		return e.Solve() == sat.Unsat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedSubformulaEncodedOnce(t *testing.T) {
	e := NewEncoder()
	shared := And(V("a"), V("b"), V("c"))
	e.Assert(Or(shared, V("d")))
	before := e.Solver().NumVars()
	e.Assert(Or(shared, V("e")))
	after := e.Solver().NumVars()
	// The second assert introduces only "e" and one OR gate.
	if after-before > 2 {
		t.Fatalf("shared subformula re-encoded: %d new vars", after-before)
	}
}

// TestCloneKeepsNamesIndependent: after a clone, the parent and the
// clone each introduce a named variable. Both get the same solver index,
// yet each encoder resolves only its own name, in Value and in Model.
func TestCloneKeepsNamesIndependent(t *testing.T) {
	parent := NewEncoder()
	parent.Assert(Or(V("a"), V("b")))
	clone := parent.Clone()
	parent.Assert(V("p"))
	clone.Assert(V("c"))
	if pl, cl := parent.VarLit("p"), clone.VarLit("c"); pl != cl {
		t.Fatalf("parent p = %v, clone c = %v: want the same fresh index", pl, cl)
	}
	for _, tc := range []struct {
		e          *Encoder
		own, other string
	}{{parent, "p", "c"}, {clone, "c", "p"}} {
		if tc.e.Solve() != sat.Sat {
			t.Fatal("want sat")
		}
		if tc.e.Value(tc.own) != sat.True || tc.e.Value(tc.other) != sat.Unknown {
			t.Fatalf("%s: Value(%s) = %v, Value(%s) = %v", tc.own, tc.own, tc.e.Value(tc.own), tc.other, tc.e.Value(tc.other))
		}
		m := tc.e.Model()
		if _, ok := m[tc.other]; ok || !m[tc.own] || len(m) != 3 {
			t.Fatalf("%s: model %v", tc.own, m)
		}
	}
}

// TestCloneSharesNamesCopyOnWrite: clones share the original's
// name→variable map until one of them names a new variable. The
// original and two sibling clones then each name their own variable
// concurrently (run it under -race): each sees its own name and the
// shared ones, never another's, and the shared names keep their
// variables.
func TestCloneSharesNamesCopyOnWrite(t *testing.T) {
	parent := NewEncoder()
	parent.Assert(Or(V("a"), V("b")))
	encs := []*Encoder{parent, parent.Clone(), parent.Clone()}
	names := []string{"p", "c1", "c2"}
	shared := parent.VarLit("a")
	done := make(chan struct{})
	for i, e := range encs {
		go func() {
			defer func() { done <- struct{}{} }()
			e.Assert(V(names[i]))
		}()
	}
	for range encs {
		<-done
	}
	for i, e := range encs {
		if e.Solve() != sat.Sat {
			t.Fatal("want sat")
		}
		if e.VarLit("a") != shared {
			t.Errorf("%s: shared name a moved to %v, was %v", names[i], e.VarLit("a"), shared)
		}
		m := e.Model()
		for j, other := range names {
			if _, ok := m[other]; ok != (i == j) {
				t.Errorf("%s: model has %s = %v", names[i], other, ok)
			}
		}
		if len(m) != 3 || !m[names[i]] {
			t.Errorf("%s: model %v", names[i], m)
		}
	}
}

// clauseCounter counts the clauses a solver is given.
type clauseCounter struct{ n int }

func (c *clauseCounter) Step(op sat.ProofOp, _ []sat.Lit) {
	if op == sat.ProofInput {
		c.n++
	}
}

// TestImplyingRoomIsExact: the room CloneFor reserves for a cardinality
// atom over literals, or an And/Or of such atoms, is exactly what
// Implying then adds, variable for variable and clause for clause, at
// every bound from below 0 to past the operand count. Names the
// encoder does not know yet count as one variable each; the constant
// counts once.
func TestImplyingRoomIsExact(t *testing.T) {
	lits := func(prefix string, n int) []*Formula {
		out := make([]*Formula, n)
		for i := range out {
			out[i] = Not(V(fmt.Sprintf("%s%d", prefix, i)))
		}
		return out
	}
	for n := 0; n <= 9; n++ {
		for k := -1; k <= n+1; k++ {
			for _, tc := range []struct {
				name string
				f    *Formula
			}{
				{"atmost", AtMost(k, lits("x", n)...)},
				{"atleast", AtLeast(k, lits("x", n)...)},
				{"and", And(AtMost(k, lits("x", n)...), AtMost(n-k, lits("y", n)...))},
				{"or", Or(AtMost(k, lits("x", n)...), AtLeast(k, lits("y", n)...))},
				{"new names", AtMost(k, lits("z", n)...)},
			} {
				e := NewEncoder()
				for i := 0; i < n; i++ {
					e.VarLit(fmt.Sprintf("x%d", i))
					e.VarLit(fmt.Sprintf("y%d", i))
				}
				want := e.implyingRoom(tc.f)
				var cc clauseCounter
				e.solver.SetProofHook(&cc)
				v0 := e.solver.NumVars()
				e.Implying(tc.f)
				if got := (sat.Room{Vars: e.solver.NumVars() - v0, Clauses: cc.n}); got != want {
					t.Errorf("n=%d k=%d %s: Implying added %+v, room %+v", n, k, tc.name, got, want)
				}
			}
		}
	}
}

// TestCloneForBigBoundReservesNothing: a bound at or past the operand
// count is the constant true, so an encoder that has the constant
// reserves no room for it, however large the bound.
func TestCloneForBigBoundReservesNothing(t *testing.T) {
	e := NewEncoder()
	e.Assert(Or(V("a"), V("b")))
	e.constTrue()
	for _, k := range []int{2, 3, 1 << 40, int(^uint(0) >> 1)} {
		f := And(AtMost(k, Not(V("a")), Not(V("b"))), AtLeast(-k, V("a")))
		if r := e.implyingRoom(f); r != (sat.Room{}) {
			t.Errorf("k=%d: room %+v, want none", k, r)
		}
	}
}
