package sat

import (
	"fmt"
	"reflect"
	"testing"
)

// liveWords counts the arena words a compaction would keep: the pad plus
// every clause still on a list.
func liveWords(s *Solver) int {
	n := 1
	for _, db := range [2][]cref{s.clauses, s.learned} {
		for _, c := range db {
			n += s.ca.words(c)
		}
	}
	return n
}

// TestArenaCompaction solves the golden random 3-SAT instance and checks
// after every learned-database reduction that the arena holds at most
// twice its live words and that compaction really ran. The search itself
// is pinned by TestSearchGoldenRandom3SAT on the same instance.
func TestArenaCompaction(t *testing.T) {
	s := New()
	goldenInstance(t, s, 3)
	compactions := 0
	check := func(when string) {
		if n, live := len(s.ca.mem), liveWords(s); n > 2*live {
			t.Errorf("%s: arena %d words, live %d", when, n, live)
		}
	}
	s.SetEventHook(func(e Event) {
		if e.Kind != EventReduce {
			return
		}
		// Every reduction drops clauses, so no waste means the
		// reduction just compacted.
		if s.ca.wasted == 0 {
			compactions++
		}
		check("after reduction")
	})
	s.Solve()
	check("after solve")
	if compactions == 0 {
		t.Errorf("%d reductions, none compacted", s.Stats().Reduces)
	}
	// Relocation kept each header's learned flag, and every watcher
	// and reason names a live clause header.
	listed := map[cref]bool{}
	for i, db := range [2][]cref{s.clauses, s.learned} {
		for _, c := range db {
			listed[c] = true
			if learned := s.ca.mem[c]&clLearned != 0; learned != (i == 1) {
				t.Fatalf("clause %d learned flag %v on the wrong list", c, learned)
			}
		}
	}
	for l := range s.wl {
		for _, w := range s.watchesOf(Lit(l)) {
			if !listed[w.c] || s.ca.deleted(w.c) {
				t.Fatalf("watcher of literal %d names clause %d, not a live listed clause", l, w.c)
			}
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != 0 && !listed[r] {
			t.Fatalf("reason of %v names unlisted clause %d", l, r)
		}
	}
}

// TestArenaLimit: the arena refuses to grow past what a 32-bit cref
// addresses (counting the pad word a fresh arena still needs), and
// refuses clauses longer than the header's size field. A problem clause
// of n literals takes 1+n words, a learned one 1+n+3.
func TestArenaLimit(t *testing.T) {
	for _, tc := range []struct {
		used    uint64
		n       int
		learned bool
		want    bool
	}{
		{0, 3, false, true},
		{arenaLimit - 8, 6, false, true},
		{arenaLimit - 8, 7, false, false},
		{arenaLimit - 8, 3, true, true},
		{arenaLimit - 8, 4, true, false},
		{arenaLimit, 0, false, false},
		{0, clMaxSize, true, true},
		{0, clMaxSize + 1, false, false},
	} {
		if got := fits(tc.used, tc.n, tc.learned); got != tc.want {
			t.Errorf("fits(%d, %d, %v) = %v, want %v", tc.used, tc.n, tc.learned, got, tc.want)
		}
	}
}

// TestArenaLayout pins the clause layout: a problem clause of n
// literals takes 1+n words, a learned one 1+n+clMeta, and a learned
// clause's LBD and activity survive shrink, which moves them behind its
// new last literal without touching the clause after it.
func TestArenaLayout(t *testing.T) {
	var a clauseArena
	lits := func(ls ...int) []Lit {
		out := make([]Lit, len(ls))
		for i, l := range ls {
			out[i] = Lit(l)
		}
		return out
	}
	p3 := a.alloc(lits(0, 2, 4), false)
	l5 := a.alloc(lits(1, 3, 5, 7, 9), true)
	p2 := a.alloc(lits(6, 8), false)
	end := len(a.mem)
	if p3 != 1 || l5 != p3+4 || p2 != l5+cref(1+5+clMeta) || end != int(p2)+3 {
		t.Fatalf("crefs %d %d %d, end %d: want 1 5 14, end 17", p3, l5, p2, end)
	}
	for c, want := range map[cref]int{p3: 4, l5: 9, p2: 3} {
		if got := a.words(c); got != want {
			t.Errorf("clause %d takes %d words, want %d", c, got, want)
		}
	}
	a.setLBD(l5, 7)
	a.setAct(l5, 3.5e19)
	a.shrink(l5, 3)
	if got := a.appendLits(nil, l5); !reflect.DeepEqual(got, lits(1, 3, 5)) {
		t.Errorf("shrunk literals %v", got)
	}
	if a.lbd(l5) != 7 || a.act(l5) != 3.5e19 || !a.learned(l5) {
		t.Errorf("after shrink: LBD %d, activity %g, learned %v", a.lbd(l5), a.act(l5), a.learned(l5))
	}
	if a.words(l5) != 1+3+clMeta || a.wasted != 2 {
		t.Errorf("after shrink: %d words, %d wasted", a.words(l5), a.wasted)
	}
	if got := a.appendLits(nil, p2); !reflect.DeepEqual(got, lits(6, 8)) || a.size(p2) != 2 {
		t.Errorf("the next clause reads %v after the shrink", got)
	}
}

// learnedMeta maps every live learned clause, by its literals, to its
// LBD and activity.
func learnedMeta(s *Solver) map[string][2]float64 {
	out := map[string][2]float64{}
	for _, c := range s.learned {
		if !s.ca.deleted(c) {
			out[fmt.Sprint(s.ca.appendLits(nil, c))] = [2]float64{float64(s.ca.lbd(c)), s.ca.act(c)}
		}
	}
	return out
}

// TestLearnedMetaSurvivesCompactAndClone: after a search with several
// reductions, the learned clauses keep their LBD and activity through a
// compaction (half of them deleted first, so every survivor moves) and
// into a clone.
func TestLearnedMetaSurvivesCompactAndClone(t *testing.T) {
	s := New()
	goldenInstance(t, s, 3)
	s.SetConflictBudget(3000)
	s.Solve()
	if len(s.learned) < 100 {
		t.Fatalf("only %d learned clauses", len(s.learned))
	}
	for i, c := range s.learned {
		if i%2 == 0 && !s.isReason(c) {
			s.detach(c)
			s.ca.markDeleted(c)
			s.ca.drop(c)
		}
	}
	want := learnedMeta(s)
	kept := s.learned[:0]
	for _, c := range s.learned {
		if !s.ca.deleted(c) {
			kept = append(kept, c)
		}
	}
	s.learned = kept
	s.compact()
	if s.ca.wasted != 0 || len(s.ca.mem) != liveWords(s) {
		t.Fatalf("compacted arena %d words, %d live", len(s.ca.mem), liveWords(s))
	}
	if got := learnedMeta(s); !reflect.DeepEqual(got, want) {
		t.Errorf("compaction changed learned metadata (%d clauses, want %d)", len(got), len(want))
	}
	if got := learnedMeta(s.Clone()); !reflect.DeepEqual(got, want) {
		t.Errorf("clone changed learned metadata (%d clauses, want %d)", len(got), len(want))
	}
	for _, c := range s.clauses {
		if s.ca.words(c) != 1+s.ca.size(c) {
			t.Fatalf("problem clause %d takes %d words", c, s.ca.words(c))
		}
	}
}

// hasPointers reports whether values of t contain any pointer the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestClauseStoreIsPointerFree guards the point of the arena: the clause
// words, crefs, watchers and the per-variable and per-literal hot arrays
// must hold no pointers, or the garbage collector scans the clause
// database again and propagate's stores run write barriers. A field
// added to watcher (say) that brings a pointer back fails here.
func TestClauseStoreIsPointerFree(t *testing.T) {
	var s Solver
	for name, typ := range map[string]reflect.Type{
		"arena word":   reflect.TypeOf(s.ca.mem).Elem(),
		"cref":         reflect.TypeOf(cref(0)),
		"watcher":      reflect.TypeOf(watcher{}),
		"watcher pool": reflect.TypeOf(s.wpool).Elem(),
		"reason":       reflect.TypeOf(s.reason).Elem(),
		"value":        reflect.TypeOf(s.vals).Elem(),
		"watch list":   reflect.TypeOf(s.wl).Elem(),
		"problem list": reflect.TypeOf(s.clauses).Elem(),
		"learned list": reflect.TypeOf(s.learned).Elem(),
		"level stamp":  reflect.TypeOf(s.levelStamp).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%s (%v) holds pointers", name, typ)
		}
	}
	if !hasPointers(reflect.TypeOf(struct {
		a [2]int
		p *int
	}{})) {
		t.Fatal("hasPointers misses a pointer field")
	}
}
