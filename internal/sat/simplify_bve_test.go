package sat

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// naiveResolve is the reference resolution the merge replaced:
// concatenate both clauses without the pivot, sort, dedupe, and reject
// tautologies.
func naiveResolve(a, b []Lit, v Var) ([]Lit, bool) {
	var out []Lit
	for _, l := range append(append([]Lit(nil), a...), b...) {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i := range out {
		if w > 0 && out[i] == out[w-1] {
			continue
		}
		if w > 0 && out[i] == out[w-1].Neg() {
			return nil, false
		}
		out[w] = out[i]
		w++
	}
	return out[:w], true
}

// randomSortedClause draws a sorted literal list over a few variables,
// so duplicates, complementary pairs and the pivot itself all turn up.
func randomSortedClause(rng *rand.Rand, nv int) []Lit {
	c := make([]Lit, rng.Intn(7))
	for i := range c {
		c[i] = MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 1)
	}
	slices.Sort(c)
	return c
}

// TestAppendResolventMatchesNaive checks the merge against the naive
// reference on seeded random sorted clauses, pivot-only clauses
// included, and that it only ever appends to dst: the prefix survives,
// and a tautology leaves dst exactly as it was.
func TestAppendResolventMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	taut, kept := 0, 0
	for iter := 0; iter < 20000; iter++ {
		nv := 1 + rng.Intn(6)
		v := Var(rng.Intn(nv))
		a, b := randomSortedClause(rng, nv), randomSortedClause(rng, nv)
		switch iter % 10 {
		case 0:
			a = []Lit{PosLit(v)}
		case 1:
			a, b = []Lit{PosLit(v), PosLit(v)}, []Lit{NegLit(v)}
		}
		prefix := randomSortedClause(rng, 3)
		dst := append(make([]Lit, 0, rng.Intn(4)), prefix...)
		got, ok := appendResolvent(dst, a, b, v)
		want, wantOK := naiveResolve(a, b, v)
		if ok != wantOK {
			t.Fatalf("resolve %v %v on %d: ok=%v, naive %v", a, b, v, ok, wantOK)
		}
		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("resolve %v %v on %d: prefix %v clobbered to %v", a, b, v, prefix, got[:len(prefix)])
		}
		if !ok {
			taut++
			if len(got) != len(prefix) {
				t.Fatalf("resolve %v %v on %d: tautology left %v", a, b, v, got[len(prefix):])
			}
			continue
		}
		kept++
		if !slices.Equal(got[len(prefix):], want) {
			t.Fatalf("resolve %v %v on %d: got %v, naive %v", a, b, v, got[len(prefix):], want)
		}
	}
	if taut == 0 || kept == 0 {
		t.Fatalf("degenerate sample: %d tautologies, %d resolvents", taut, kept)
	}
}

// passesElimBound reports whether v would be eliminated now: its
// occurrence lists are within elimOccLimit and its non-tautological
// resolvents, counted with the naive reference, within the bound.
func passesElimBound(p *simplifier, v Var) bool {
	pos, neg := p.occ[PosLit(v)], p.occ[NegLit(v)]
	if len(pos)+len(neg) > elimOccLimit {
		return false
	}
	n := 0
	for _, ci := range pos {
		for _, di := range neg {
			if _, ok := naiveResolve(p.cls[ci].lits, p.cls[di].lits, v); ok {
				n++
			}
		}
	}
	return n <= len(pos)+len(neg)+elimGrow
}

// TestSimplifyReachesElimFixpoint checks that retrying only touched
// variables loses no elimination: on seeded random CNFs whose
// simplification stops before the round cap, no variable that is not
// frozen, assigned or eliminated still passes the elimination bound.
func TestSimplifyReachesElimFixpoint(t *testing.T) {
	checked, elims := 0, 0
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		nv := 10 + rng.Intn(40)
		vars := newVars(s, nv)
		for i, n := 0, nv+rng.Intn(3*nv); i < n; i++ {
			c := make([]Lit, 2+rng.Intn(3))
			for j := range c {
				c[j] = MkLit(vars[rng.Intn(nv)], rng.Intn(2) == 1)
			}
			mustAdd(t, s, c...)
		}
		for _, v := range vars[:rng.Intn(4)] {
			s.Freeze(v)
		}
		if s.propagate() != 0 {
			continue
		}
		p := newSimplifier(s)
		if !p.run() || p.rounds >= simplifyRounds {
			continue
		}
		checked++
		elims += int(s.stats.ElimVars)
		for _, v := range vars {
			if s.frozen[v] || s.eliminated[v] || s.vals[PosLit(v)] != Unknown {
				continue
			}
			if passesElimBound(p, v) {
				t.Fatalf("seed %d: variable %d still passes the elimination bound after %d rounds", seed, v, p.rounds)
			}
		}
	}
	if checked < 500 || elims == 0 {
		t.Fatalf("degenerate sample: %d instances reached a fixpoint, %d eliminations", checked, elims)
	}
}

// randomWorkingClause draws a clause as the simplifier keeps them:
// sorted, deduplicated and not a tautology (a complementary pair is
// dropped whole). Pivot is added to three draws in four.
func randomWorkingClause(rng *rand.Rand, nv int, pivot Lit) []Lit {
	c := randomSortedClause(rng, nv)
	if rng.Intn(4) > 0 {
		c = append(c, pivot)
		slices.Sort(c)
	}
	c = slices.Compact(c)
	var out []Lit
	for _, l := range c {
		if !slices.Contains(c, l.Neg()) {
			out = append(out, l)
		}
	}
	return out
}

// TestResolventCountMatchesMerge checks the mark count against the
// merge: on seeded random occurrence lists of sorted, non-tautological
// clauses over a few variables (so shared literals, clashing literals
// and the pivot itself all turn up), countResolvents returns the number
// of appendResolvent calls that report ok, or limit+1 once that number
// passes limit. One simplifier serves every case, so marks left by
// earlier calls are in place.
func TestResolventCountMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const nv = 8
	p := &simplifier{marks: make([]uint32, 2*nv)}
	taut, kept := 0, 0
	for iter := 0; iter < 20000; iter++ {
		v := Var(rng.Intn(nv))
		p.cls = p.cls[:0]
		var pos, neg []int
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			pos = append(pos, len(p.cls))
			p.cls = append(p.cls, simpClause{lits: randomWorkingClause(rng, nv, PosLit(v))})
		}
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			neg = append(neg, len(p.cls))
			p.cls = append(p.cls, simpClause{lits: randomWorkingClause(rng, nv, NegLit(v))})
		}
		want := 0
		for _, ci := range pos {
			for _, di := range neg {
				if _, ok := appendResolvent(nil, p.cls[ci].lits, p.cls[di].lits, v); ok {
					want++
					kept++
				} else {
					taut++
				}
			}
		}
		limit := rng.Intn(len(pos)*len(neg) + 2)
		if got := p.countResolvents(pos, neg, v, limit); got != min(want, limit+1) {
			t.Fatalf("pivot %d, pos %v, neg %v, limit %d: count %d, merge %d", v, p.clauses(pos), p.clauses(neg), limit, got, want)
		}
	}
	if taut == 0 || kept == 0 {
		t.Fatalf("degenerate sample: %d tautologies, %d resolvents", taut, kept)
	}
}

// clauses returns the literals of the working clauses at idx.
func (p *simplifier) clauses(idx []int) [][]Lit {
	var out [][]Lit
	for _, i := range idx {
		out = append(out, p.cls[i].lits)
	}
	return out
}
