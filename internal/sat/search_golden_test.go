package sat

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
)

// hashProof is a ProofWriter that folds every proof step into a hash, so
// a test can pin the whole derivation (learned clauses, their literal
// order, deletions) without keeping it.
type hashProof struct{ h hash.Hash64 }

func (p *hashProof) Step(op ProofOp, lits []Lit) {
	fmt.Fprintf(p.h, "%d", op)
	for _, l := range lits {
		fmt.Fprintf(p.h, " %d", l)
	}
	p.h.Write([]byte{'\n'})
}

// goldenInstance asserts a seeded uniform random 3-SAT formula near the
// satisfiability threshold: hard enough that one solve runs several
// learned-database reductions.
func goldenInstance(t testing.TB, s *Solver, seed int64) {
	t.Helper()
	const nv, nc = 190, 809
	rng := rand.New(rand.NewSource(seed))
	vars := newVars(s, nv)
	for i := 0; i < nc; i++ {
		var lits [3]Lit
		for k := 0; k < 3; k++ {
		retry:
			v := vars[rng.Intn(nv)]
			for _, l := range lits[:k] {
				if l.Var() == v {
					goto retry
				}
			}
			lits[k] = MkLit(v, rng.Intn(2) == 1)
		}
		mustAdd(t, s, lits[:]...)
	}
}

// searchDigest solves the golden instance and hashes what the search
// did: its verdict, counters, model and the full proof stream.
func searchDigest(t *testing.T) (string, Stats) {
	t.Helper()
	s := New()
	pw := &hashProof{h: fnv.New64a()}
	s.SetProofHook(pw)
	goldenInstance(t, s, 3)
	st := s.Solve()
	stats := s.Stats()
	h := pw.h
	// The literal vivified=0 keeps the digest recorded when this counter existed.
	fmt.Fprintf(h, "%v conflicts=%d decisions=%d props=%d learned=%d removed=%d reduces=%d restarts=%d vivified=0 ",
		st, stats.Conflicts, stats.Decisions, stats.Propagations, stats.Learned, stats.Removed,
		stats.Reduces, stats.Restarts)
	for _, b := range s.Model() {
		fmt.Fprintf(h, "%t", b)
	}
	return fmt.Sprintf("%016x", h.Sum64()), stats
}

// TestSearchGoldenRandom3SAT pins the CDCL search bit for bit: the
// digest was recorded with recursive learned-clause minimization, and
// any change to propagation order, conflict analysis, learned-clause
// literal order or database reduction shows up here.
func TestSearchGoldenRandom3SAT(t *testing.T) {
	const want = "8a6137e6195d1a0c"
	got, st := searchDigest(t)
	if st.Reduces < 3 {
		t.Errorf("%d reductions, want at least 3", st.Reduces)
	}
	if got != want {
		t.Errorf("digest %s, want %s (%v)", got, want, st)
	}
}
