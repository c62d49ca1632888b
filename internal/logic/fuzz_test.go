package logic

import (
	"fmt"
	"testing"

	"scadaver/internal/sat"
)

// byteSource deals fuzz input out as small choices; once exhausted it
// deals zeros, which ends formula generation at the next leaf.
type byteSource []byte

func (s *byteSource) intn(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// fuzzFormula builds a formula over nv variables as refFormula does,
// with every choice read from src, plus the occasional constant leaf.
func fuzzFormula(src *byteSource, depth, nv int) *Formula {
	if depth == 0 || src.intn(4) == 0 {
		if src.intn(16) == 15 {
			return Const(src.intn(2) == 1)
		}
		return Vf("x%d", src.intn(nv))
	}
	kids := func(n int) []*Formula {
		fs := make([]*Formula, n)
		for i := range fs {
			fs[i] = fuzzFormula(src, depth-1, nv)
		}
		return fs
	}
	switch src.intn(6) {
	case 0:
		return Not(fuzzFormula(src, depth-1, nv))
	case 1, 2:
		fs := kids(2 + src.intn(3))
		if src.intn(2) == 0 {
			return And(fs...)
		}
		return Or(fs...)
	case 3:
		return Implies(fuzzFormula(src, depth-1, nv), fuzzFormula(src, depth-1, nv))
	case 4:
		fs := kids(2 + src.intn(4))
		return AtMost(src.intn(len(fs)+1), fs...)
	default:
		fs := kids(2 + src.intn(4))
		return AtLeast(src.intn(len(fs)+1), fs...)
	}
}

// FuzzEncodeMatchesEval checks the property the Sat audit rests on: with
// every variable fixed by a unit clause, the Tseitin and counter
// encoding of a formula is satisfiable exactly when the strict
// evaluation of the formula under that assignment is true. It also
// checks that strict evaluation agrees with Eval on a full assignment
// and refuses an assignment missing one of the formula's variables.
func FuzzEncodeMatchesEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 0, 0, 1, 0, 2, 1, 0, 1})
	f.Add([]byte{5, 1, 4, 2, 1, 0, 3, 1, 0, 4, 1, 1, 0, 2, 2, 1, 0, 1, 1, 0, 1})
	f.Add([]byte{4, 2, 5, 3, 1, 2, 0, 7, 1, 0, 1, 0, 9, 0, 3, 6, 1, 1, 0, 1, 0})
	f.Add([]byte{2, 3, 0, 1, 15, 1, 1, 0, 2, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		nv := 1 + src.intn(6)
		g := fuzzFormula(&src, 4, nv)
		m := make(Model, nv)
		for i := 0; i < nv; i++ {
			m[fmt.Sprintf("x%d", i)] = src.intn(2) == 1
		}
		want, err := m.Satisfies(g)
		if err != nil {
			t.Fatalf("%v under full assignment %v: %v", g, m, err)
		}
		if want != g.Eval(m) {
			t.Fatalf("%v under %v: strict evaluation %v, Eval %v", g, m, want, !want)
		}
		e := NewEncoder()
		e.Assert(g)
		for i := 0; i < nv; i++ {
			name := fmt.Sprintf("x%d", i)
			if m[name] {
				e.Assert(V(name))
			} else {
				e.Assert(Not(V(name)))
			}
		}
		if got := e.Solve() == sat.Sat; got != want {
			t.Fatalf("%v under %v: encoding satisfiable=%v, evaluation %v", g, m, got, want)
		}
		for _, name := range g.Vars() {
			partial := make(Model, nv)
			for k, v := range m {
				partial[k] = v
			}
			delete(partial, name)
			if _, err := partial.Satisfies(g); err == nil {
				t.Fatalf("%v: evaluation without %s did not fail", g, name)
			}
		}
	})
}

// FuzzImplyingMatchesEval checks the positive-context encoding node by
// node: with every variable fixed by a unit clause, assuming any
// subformula h of a formula (Solve encodes it through Implying) is
// satisfiable exactly when h evaluates true, and assuming Not(h)
// (through Lit) exactly when h evaluates false. The nodes are visited
// bottom-up in one encoder, so the one-sided and the exact encodings of
// shared nodes coexist, each cached on its own side.
func FuzzImplyingMatchesEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 1, 2, 1, 0, 1, 2, 1, 0, 1, 0, 1, 1})
	f.Add([]byte{5, 1, 4, 2, 1, 0, 3, 1, 0, 4, 1, 1, 0, 2, 2, 1, 0, 1, 1, 0, 1})
	f.Add([]byte{4, 2, 5, 3, 1, 2, 0, 7, 1, 0, 1, 0, 9, 0, 3, 6, 1, 1, 0, 1, 0})
	f.Add([]byte{5, 1, 1, 5, 4, 1, 0, 1, 2, 1, 3, 2, 1, 4, 1, 0, 1, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		nv := 1 + src.intn(6)
		g := fuzzFormula(&src, 4, nv)
		m := make(Model, nv)
		e := NewEncoder()
		for i := 0; i < nv; i++ {
			name := fmt.Sprintf("x%d", i)
			m[name] = src.intn(2) == 1
			if m[name] {
				e.Assert(V(name))
			} else {
				e.Assert(Not(V(name)))
			}
		}
		seen := make(map[*Formula]bool)
		var visit func(h *Formula)
		visit = func(h *Formula) {
			if seen[h] {
				return
			}
			seen[h] = true
			for _, k := range h.kids {
				visit(k)
			}
			want := h.Eval(m)
			if got := e.Solve(h) == sat.Sat; got != want {
				t.Fatalf("%v under %v: assumed satisfiable=%v, evaluation %v", h, m, got, want)
			}
			if got := e.Solve(Not(h)) == sat.Sat; got != !want {
				t.Fatalf("not %v under %v: assumed satisfiable=%v, evaluation %v", h, m, got, !want)
			}
		}
		visit(g)
	})
}
