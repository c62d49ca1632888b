package sat

import (
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
// refuses clauses longer than the header's size field.
func TestArenaLimit(t *testing.T) {
	for _, tc := range []struct {
		used uint64
		n    int
		want bool
	}{
		{0, 3, true},
		{arenaLimit - clHeader - 7, 6, true},
		{arenaLimit - clHeader - 7, 7, false},
		{arenaLimit, 0, false},
		{0, clMaxSize, true},
		{0, clMaxSize + 1, false},
	} {
		if got := fits(tc.used, tc.n); got != tc.want {
			t.Errorf("fits(%d, %d) = %v, want %v", tc.used, tc.n, got, tc.want)
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
