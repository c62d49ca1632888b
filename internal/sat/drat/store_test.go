package drat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scadaver/internal/sat"
)

// hasPointers reports whether values of t hold pointers the garbage
// collector must scan.
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

// TestCheckerStoreIsPointerFree guards the point of the slab: the clause
// words, the watchers and the index must hold no pointers, or the
// garbage collector scans the checker's database again and every watch
// move runs a write barrier. A field added to watcher (say) that brings
// a pointer back fails here.
func TestCheckerStoreIsPointerFree(t *testing.T) {
	var c Checker
	for name, typ := range map[string]reflect.Type{
		"slab word":    reflect.TypeOf(c.mem).Elem(),
		"watcher":      reflect.TypeOf(watcher{}),
		"watch list":   reflect.TypeOf(c.watches).Elem().Elem(),
		"index bucket": reflect.TypeOf(c.buckets).Elem(),
		"value":        reflect.TypeOf(c.vals).Elem(),
		"stamp":        reflect.TypeOf(c.stamps).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%s (%v) holds pointers", name, typ)
		}
	}
	if size := reflect.TypeOf(watcher{}).Size(); size != 8 {
		t.Errorf("watcher is %d bytes, want 8", size)
	}
	if !hasPointers(reflect.TypeOf(struct {
		a [2]int
		p *int
	}{})) {
		t.Fatal("hasPointers misses a pointer field")
	}
}

// liveWords counts the slab words a compaction keeps: the pad plus every
// live clause.
func liveWords(c *Checker) int {
	n := 1
	for _, cl := range c.storedClauses() {
		n += clHeader + len(cl)
	}
	return n
}

// TestCheckerCompaction drives a long stream that inputs, derives and
// deletes thousands of clauses and checks after every step that the slab
// holds at most twice its live words and that Live matches the
// reference; compaction must really have run, and the store must come
// out of it consistent and equal to the reference's.
func TestCheckerCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const nv = 60
	clause := func() []sat.Lit {
		cl := make([]sat.Lit, 3+rng.Intn(3))
		for i := range cl {
			cl[i] = sat.MkLit(sat.Var(rng.Intn(nv)), rng.Intn(2) == 0)
		}
		return cl
	}
	ck, ref := New(), &refChecker{}
	var pool [][]sat.Lit
	compactions := 0
	for step := 0; step < 12000; step++ {
		var op sat.ProofOp
		var lits []sat.Lit
		switch k := rng.Intn(10); {
		case k < 4 || len(pool) == 0:
			op, lits = sat.ProofInput, clause()
			pool = append(pool, lits)
		case k < 5: // a weakening: RUP
			op, lits = sat.ProofAdd, append(slices.Clone(pool[rng.Intn(len(pool))]), sat.MkLit(sat.Var(rng.Intn(nv)), false))
			pool = append(pool, lits)
		default:
			i := rng.Intn(len(pool))
			op, lits = sat.ProofDelete, slices.Clone(pool[i])
			rng.Shuffle(len(lits), func(a, b int) { lits[a], lits[b] = lits[b], lits[a] })
			pool = slices.Delete(pool, i, i+1)
		}
		wasted := ck.wasted
		ck.Step(op, lits)
		ref.Step(op, lits)
		if ck.Err() != nil || ck.Empty() {
			t.Fatalf("step %d: err=%v empty=%v", step, ck.Err(), ck.Empty())
		}
		if ck.Live() != len(ref.clauses) {
			t.Fatalf("step %d: live=%d, reference %d", step, ck.Live(), len(ref.clauses))
		}
		if n, live := len(ck.mem), liveWords(ck); n > 2*live {
			t.Fatalf("step %d: slab %d words, live %d", step, n, live)
		}
		if op == sat.ProofDelete && wasted > 0 && ck.wasted == 0 {
			compactions++
		}
	}
	if compactions < 10 {
		t.Fatalf("%d compactions over the stream", compactions)
	}
	agree(t, "end of stream", ck, ref, nil)
}
