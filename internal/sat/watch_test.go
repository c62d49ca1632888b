package sat

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"unsafe"
)

// TestSolverWatchesArePointerFree guards the point of the watcher pool:
// the pool and the per-literal list table must hold no pointers, or the
// garbage collector scans every watch list again and each list growth
// stores a slice header. A field that brings a pointer back fails here.
func TestSolverWatchesArePointerFree(t *testing.T) {
	var s Solver
	for name, typ := range map[string]reflect.Type{
		"watcher":      reflect.TypeOf(watcher{}),
		"watcher pool": reflect.TypeOf(s.wpool).Elem(),
		"watch list":   reflect.TypeOf(s.wl).Elem(),
		"level":        reflect.TypeOf(s.level).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%s (%v) holds pointers", name, typ)
		}
	}
	for typ, want := range map[reflect.Type]uintptr{
		reflect.TypeOf(watcher{}):          8,
		reflect.TypeOf(watchList{}):        12,
		reflect.TypeOf(s.level[:0]).Elem(): 4,
	} {
		if size := typ.Size(); size != want {
			t.Errorf("%v is %d bytes, want %d", typ, size, want)
		}
	}
}

// relocationInstance builds clauses whose watchers all sit on the list
// of literal a, and which, once a is false, move their watchers in turn
// to the lists of two shared literals c and e, with binary clauses that
// stay on a's list in between. One more clause puts a watcher on c's
// list up front.
func relocationInstance(t *testing.T, s *Solver, m int) Var {
	t.Helper()
	a := s.NewVar()
	bs, es, ds := newVars(s, m), newVars(s, m), newVars(s, m)
	c, e, f := s.NewVar(), s.NewVar(), s.NewVar()
	mustAdd(t, s, PosLit(c), PosLit(f))
	for i := 0; i < m; i++ {
		mustAdd(t, s, PosLit(a), PosLit(bs[i]), PosLit(c))
		mustAdd(t, s, PosLit(a), NegLit(ds[i]))
		mustAdd(t, s, PosLit(a), PosLit(es[i]), NegLit(e))
	}
	return a
}

// watchDigest hashes every watch list, in literal order — each watcher
// as its clause's literals in arena order and its blocker — and the
// trail, which is everything a propagation pass leaves behind.
func watchDigest(s *Solver) string {
	h := fnv.New64a()
	for l := range s.wl {
		fmt.Fprintf(h, "%d:", l)
		for _, w := range s.watchesOf(Lit(l)) {
			fmt.Fprintf(h, " %v/%d", s.ca.appendLits(nil, w.c), w.blocker)
		}
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "trail %v", s.trail)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPropagateRelocatesPoolMidScan: while propagate scans a's list, the
// watchers it moves make other lists grow, which compacts the pool into
// a fresh array and moves a's list too. The scan must carry on
// in the list's new place: the watch lists and trail it leaves must
// match, digest for digest, those recorded with a slice per list, and
// the solver must still find a model.
func TestPropagateRelocatesPoolMidScan(t *testing.T) {
	const want = "d49d5eb6ce7dcc21"
	s := New()
	a := relocationInstance(t, s, 40)
	// Lay the pool out tight, behind a block of waste as large as the
	// lists: the first push onto c's full list finds no room at the
	// pool's end, so the pool is compacted into a fresh array and every
	// list, a's included, moves.
	live := 0
	for _, wl := range s.wl {
		live += int(wl.n)
	}
	pool := make([]watcher, 2*live)
	off := uint32(live)
	for l := range s.wl {
		wl := &s.wl[l]
		copy(pool[off:], s.watchesOf(Lit(l)))
		wl.off, wl.cap = off, wl.n
		off += wl.n
	}
	s.wpool, s.wwasted = pool, live
	scanned := NegLit(a)
	from, at := unsafe.SliceData(s.wpool), s.wl[scanned].off

	s.uncheckedEnqueue(scanned, 0)
	if c := s.propagate(); c != 0 {
		t.Fatalf("conflict on clause %v", s.ca.appendLits(nil, c))
	}
	if unsafe.SliceData(s.wpool) == from {
		t.Error("the scan never reallocated the pool")
	}
	if s.wl[scanned].off == at {
		t.Errorf("the scan never compacted the pool (list still at %d)", at)
	}
	if got := watchDigest(s); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
	for _, c := range s.clauses {
		for i, w := range []Lit{s.ca.lit(c, 0), s.ca.lit(c, 1)} {
			n := 0
			for _, x := range s.watchesOf(w.Neg()) {
				if x.c == c {
					n++
				}
			}
			if n != 1 {
				t.Errorf("clause %v: watched literal %d on its list %d times", s.ca.appendLits(nil, c), i, n)
			}
		}
	}
	if s.Solve() != Sat {
		t.Fatal("instance is satisfiable")
	}
}
