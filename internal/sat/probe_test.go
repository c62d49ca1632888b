package sat_test

import (
	"compress/gzip"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"scadaver/internal/sat"
	"scadaver/internal/sat/drat"
)

// probeOutcome is everything root probing leaves behind that skipping
// dominated probes must not change.
type probeOutcome struct {
	ok     bool
	failed uint64       // Stats().FailedLits
	roots  []sat.Lit    // root-assigned literals, by variable
	steps  []proofEntry // the drat.Log steps, in order
}

type proofEntry struct {
	op   sat.ProofOp
	lits []sat.Lit
}

// proofList records the steps a drat.Log drains into it.
type proofList []proofEntry

func (p *proofList) Step(op sat.ProofOp, lits []sat.Lit) {
	*p = append(*p, proofEntry{op, slices.Clone(lits)})
}

// probeWith runs probe on a clone of s under a drat.Log and collects its
// outcome; s itself is left as it was.
func probeWith(s *sat.Solver, probe func(*sat.Solver) bool) probeOutcome {
	c := s.Clone()
	log := &drat.Log{}
	c.SetProofHook(log)
	out := probeOutcome{ok: probe(c), failed: c.Stats().FailedLits}
	var steps proofList
	log.Drain(&steps)
	out.steps = steps
	for v := sat.Var(0); int(v) < c.NumVars(); v++ {
		switch c.Value(v) {
		case sat.True:
			out.roots = append(out.roots, sat.PosLit(v))
		case sat.False:
			out.roots = append(out.roots, sat.NegLit(v))
		}
	}
	return out
}

// checkProbeMatchesReference probes s with ProbeRoot and with the
// reference loop that probes every candidate, and fails t unless both
// find the same failed literals in the same order (their proof units),
// the same root literals and the same verdict.
func checkProbeMatchesReference(t *testing.T, name string, s *sat.Solver, maxProbes int) probeOutcome {
	t.Helper()
	got := probeWith(s, func(c *sat.Solver) bool { return c.ProbeRoot(maxProbes) })
	want := probeWith(s, func(c *sat.Solver) bool { return sat.ReferenceProbeRoot(c, maxProbes) })
	switch {
	case got.ok != want.ok:
		t.Fatalf("%s, %d probes: ProbeRoot %v, reference %v", name, maxProbes, got.ok, want.ok)
	case got.failed != want.failed:
		t.Fatalf("%s, %d probes: %d failed literals, reference %d", name, maxProbes, got.failed, want.failed)
	case !slices.Equal(got.roots, want.roots):
		t.Fatalf("%s, %d probes: root literals %v, reference %v", name, maxProbes, got.roots, want.roots)
	case !slices.EqualFunc(got.steps, want.steps, func(a, b proofEntry) bool {
		return a.op == b.op && slices.Equal(a.lits, b.lits)
	}):
		t.Fatalf("%s, %d probes: proof %v, reference %v", name, maxProbes, got.steps, want.steps)
	}
	return want
}

// random3SAT returns a solver holding a seeded uniform random 3-SAT
// formula with nc clauses over nv variables.
func random3SAT(t testing.TB, rng *rand.Rand, nv, nc int) *sat.Solver {
	t.Helper()
	s := sat.New()
	addRandom3SAT(t, s, rng, nv, nc)
	return s
}

// addRandom3SAT adds nv fresh variables and a seeded uniform random
// 3-SAT formula with nc clauses over them to s.
func addRandom3SAT(t testing.TB, s *sat.Solver, rng *rand.Rand, nv, nc int) {
	t.Helper()
	base := s.NumVars()
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	for i := 0; i < nc; i++ {
		var c [3]sat.Lit
		for k := range c {
			c[k] = sat.MkLit(sat.Var(base+rng.Intn(nv)), rng.Intn(2) == 1)
		}
		if err := s.AddClause(c[:]...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProbeSkipMatchesFullProbing holds ProbeRoot, which skips probes
// an earlier conflict-free probe dominates, to the reference loop that
// probes every candidate: on seeded random 3-SAT formulas around and
// below the threshold, with probe bounds small enough that skipped
// candidates must still count against them, and on the IEEE-14 and
// IEEE-57 snapshot encodings before Simplify.
func TestProbeSkipMatchesFullProbing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	failed := 0
	for i := 0; i < 400; i++ {
		nv := 20 + rng.Intn(60)
		s := random3SAT(t, rng, nv, nv*(2+rng.Intn(4)))
		for _, maxProbes := range []int{1 + rng.Intn(2*nv), 1 << 20} {
			out := checkProbeMatchesReference(t, fmt.Sprintf("3-SAT %d", i), s, maxProbes)
			failed += int(out.failed)
		}
	}
	if failed == 0 {
		t.Fatal("degenerate sample: no failed literal in any random formula")
	}

	// The k-sweep snapshot structures of IEEE-14 seed 14007 and IEEE-57
	// seed 57007 as encoded for EncodingVersion 2, before Simplify: the
	// problem clauses WriteDIMACS prints for core's StructureEncoder,
	// followed by the encoder's root units.
	files, err := filepath.Glob("testdata/ieee*.cnf.gz")
	if err != nil || len(files) != 6 {
		t.Fatalf("IEEE encodings: %v (%v)", files, err)
	}
	for _, f := range files {
		s := readGzipDIMACS(t, f)
		for _, maxProbes := range []int{64, 1024, 4096} {
			checkProbeMatchesReference(t, filepath.Base(f), s, maxProbes)
		}
	}
}

func readGzipDIMACS(t *testing.T, path string) *sat.Solver {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sat.ParseDIMACS(zr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzProbeMatchesReference holds ProbeRoot to the reference loop on
// small CNFs decoded from the input: the first byte bounds the probes,
// then each clause is a length byte (1 to 4 literals) followed by one
// byte per literal over at most 12 variables.
func FuzzProbeMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		maxProbes := 1 + int(data[0]%32)
		data = data[1:]
		const nv = 12
		s := sat.New()
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		for len(data) > 0 {
			n := 1 + int(data[0]%4)
			data = data[1:]
			var c []sat.Lit
			for ; n > 0 && len(data) > 0; n-- {
				c = append(c, sat.MkLit(sat.Var(data[0]%nv), data[0]&0x80 != 0))
				data = data[1:]
			}
			if err := s.AddClause(c...); err != nil {
				t.Fatal(err)
			}
		}
		checkProbeMatchesReference(t, "fuzz input", s, maxProbes)
	})
}
