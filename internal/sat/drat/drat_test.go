package drat

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"scadaver/internal/sat"
)

// stream is a test-local proof recorder so a recorded run can be
// replayed into fresh checkers, with or without mutations.
type stream struct {
	steps []streamStep
}

type streamStep struct {
	op   sat.ProofOp
	lits []sat.Lit
}

func (s *stream) Step(op sat.ProofOp, lits []sat.Lit) {
	s.steps = append(s.steps, streamStep{op: op, lits: append([]sat.Lit(nil), lits...)})
}

func (s *stream) replay(w sat.ProofWriter) {
	for _, st := range s.steps {
		w.Step(st.op, st.lits)
	}
}

func replayInto(steps []streamStep) *Checker {
	ck := New()
	for _, st := range steps {
		ck.Step(st.op, st.lits)
	}
	return ck
}

// toLits converts 1-based DIMACS-style ints to sat literals.
func toLits(clause []int) []sat.Lit {
	lits := make([]sat.Lit, len(clause))
	for i, n := range clause {
		if n > 0 {
			lits[i] = sat.PosLit(sat.Var(n - 1))
		} else {
			lits[i] = sat.NegLit(sat.Var(-n - 1))
		}
	}
	return lits
}

func buildSolver(t *testing.T, nv int, cnf [][]int, hook sat.ProofWriter) *sat.Solver {
	t.Helper()
	s := sat.New()
	s.SetProofHook(hook)
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	for _, cl := range cnf {
		if err := s.AddClause(toLits(cl)...); err != nil {
			t.Fatalf("AddClause(%v): %v", cl, err)
		}
	}
	return s
}

// bruteForceSat decides small CNFs by enumeration (ground truth).
func bruteForceSat(nv int, cnf [][]int) bool {
	for m := 0; m < 1<<nv; m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, n := range cl {
				v := n
				if v < 0 {
					v = -v
				}
				bit := m>>(v-1)&1 == 1
				if (n > 0) == bit {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// php builds the pigeonhole principle PHP(p, h): p pigeons into h holes,
// unsat whenever p > h. Variable x[i][j] = pigeon i sits in hole j,
// numbered 1 + i*h + j.
func php(p, h int) (nv int, cnf [][]int) {
	nv = p * h
	x := func(i, j int) int { return 1 + i*h + j }
	for i := 0; i < p; i++ {
		row := make([]int, h)
		for j := 0; j < h; j++ {
			row[j] = x(i, j)
		}
		cnf = append(cnf, row)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				cnf = append(cnf, []int{-x(i1, j), -x(i2, j)})
			}
		}
	}
	return nv, cnf
}

func randCNF(rng *rand.Rand) (nv int, cnf [][]int) {
	nv = 3 + rng.Intn(8)
	nc := nv + rng.Intn(4*nv)
	for i := 0; i < nc; i++ {
		w := 1 + rng.Intn(3)
		cl := make([]int, 0, w)
		for j := 0; j < w; j++ {
			v := 1 + rng.Intn(nv)
			if rng.Intn(2) == 0 {
				v = -v
			}
			cl = append(cl, v)
		}
		cnf = append(cnf, cl)
	}
	return nv, cnf
}

func modelSatisfies(t *testing.T, s *sat.Solver, cnf [][]int) {
	t.Helper()
	m := s.Model()
	for _, cl := range cnf {
		ok := false
		for _, n := range cl {
			v := n
			if v < 0 {
				v = -v
			}
			if (n > 0) == m[v-1] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("model %v falsifies clause %v", m, cl)
		}
	}
}

// TestCheckerAcceptsSolverProofs drives randomized small instances
// through both solving pipelines (plain CDCL on two seeds in three,
// Simplify+CDCL on the third) with the checker armed from birth:
// verdicts must match brute force, and every Unsat verdict must carry a
// checkable refutation.
func TestCheckerAcceptsSolverProofs(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv, cnf := randCNF(rng)
		ck := New()
		s := buildSolver(t, nv, cnf, ck)
		if seed%3 == 1 {
			s.Simplify()
		}
		st := s.Solve()
		want := bruteForceSat(nv, cnf)
		switch st {
		case sat.Sat:
			if !want {
				t.Fatalf("seed %d: solver said sat, brute force says unsat", seed)
			}
			modelSatisfies(t, s, cnf)
		case sat.Unsat:
			if want {
				t.Fatalf("seed %d: solver said unsat, brute force says sat", seed)
			}
			if err := ck.Err(); err != nil {
				t.Fatalf("seed %d: proof step rejected: %v", seed, err)
			}
			if err := ck.VerifyUnsat(); err != nil {
				t.Fatalf("seed %d: unsat not certified: %v", seed, err)
			}
		default:
			t.Fatalf("seed %d: unexpected status %v", seed, st)
		}
	}
}

// TestCheckerPigeonhole certifies real conflict-driven refutations
// (pigeonhole instances force non-trivial learned-clause chains).
func TestCheckerPigeonhole(t *testing.T) {
	for _, pigeons := range []int{4, 5} {
		nv, cnf := php(pigeons, pigeons-1)
		ck := New()
		s := buildSolver(t, nv, cnf, ck)
		if st := s.Solve(); st != sat.Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want unsat", pigeons, pigeons-1, st)
		}
		if err := ck.VerifyUnsat(); err != nil {
			t.Fatalf("PHP(%d,%d): %v", pigeons, pigeons-1, err)
		}
		if ck.Additions() == 0 {
			t.Fatalf("PHP(%d,%d): no derivation steps recorded", pigeons, pigeons-1)
		}
	}
}

// TestCheckerSimplifyProof forces the preprocessing emission paths
// (BVE resolvents, subsumption deletes, strengthen pairs) into the
// proof and checks the refutation still verifies.
func TestCheckerSimplifyProof(t *testing.T) {
	nv, cnf := php(5, 4)
	ck := New()
	s := buildSolver(t, nv, cnf, ck)
	s.Simplify()
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	if err := ck.VerifyUnsat(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckerUnsatUnderAssumptions covers the no-empty-clause path: a
// satisfiable formula refuted only under assumptions is certified by
// RUP-ness of the negated-assumption clause.
func TestCheckerUnsatUnderAssumptions(t *testing.T) {
	ck := New()
	s := sat.New()
	s.SetProofHook(ck)
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	for _, cl := range [][]sat.Lit{
		{sat.PosLit(a), sat.PosLit(b)},
		{sat.NegLit(a), sat.PosLit(c)},
		{sat.NegLit(b), sat.PosLit(c)},
	} {
		if err := s.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
	assumptions := []sat.Lit{sat.NegLit(c)}
	if st := s.Solve(assumptions...); st != sat.Unsat {
		t.Fatalf("got %v, want unsat under assumptions", st)
	}
	if err := ck.VerifyUnsat(assumptions...); err != nil {
		t.Fatal(err)
	}
	// The formula itself is satisfiable, so the plain certificate must
	// NOT exist.
	if err := ck.VerifyUnsat(); err == nil {
		t.Fatal("empty-clause certificate claimed for a satisfiable formula")
	}
	// And the solver stays usable: without the assumption it is sat.
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("got %v, want sat without assumptions", st)
	}
}

// TestCheckerRejectsBogusAdd: a clause that is neither RUP nor RAT must
// latch an error.
func TestCheckerRejectsBogusAdd(t *testing.T) {
	ck := New()
	ck.Step(sat.ProofInput, toLits([]int{1, 2}))
	ck.Step(sat.ProofAdd, toLits([]int{-1}))
	if ck.Err() == nil {
		t.Fatal("underivable clause accepted")
	}
	if err := ck.VerifyUnsat(); err == nil {
		t.Fatal("VerifyUnsat succeeded after a rejected step")
	}
}

// TestCheckerRejectsMutatedProof mutates a recorded pigeonhole
// refutation — dropping a derivation step, permuting adjacent steps,
// flipping a literal — and requires that the checker catches at least
// one mutation of each kind (an individual mutation can be harmless
// when later steps do not depend on it, but a checker that never
// notices any is broken).
func TestCheckerRejectsMutatedProof(t *testing.T) {
	nv, cnf := php(4, 3)
	rec := &stream{}
	s := buildSolver(t, nv, cnf, rec)
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	if ck := replayInto(rec.steps); ck.VerifyUnsat() != nil {
		t.Fatalf("unmutated proof rejected: %v", ck.VerifyUnsat())
	}
	addIdx := []int{}
	for i, st := range rec.steps {
		if st.op == sat.ProofAdd {
			addIdx = append(addIdx, i)
		}
	}
	if len(addIdx) < 2 {
		t.Fatalf("refutation too short to mutate (%d adds)", len(addIdx))
	}

	rejected := func(steps []streamStep) bool {
		ck := replayInto(steps)
		return ck.Err() != nil || ck.VerifyUnsat() != nil
	}

	drops := 0
	for _, i := range addIdx {
		mut := append([]streamStep(nil), rec.steps[:i]...)
		mut = append(mut, rec.steps[i+1:]...)
		if rejected(mut) {
			drops++
		}
	}
	if drops == 0 {
		t.Error("no dropped-step mutation was rejected")
	}

	perms := 0
	for k := 0; k+1 < len(addIdx); k++ {
		i, j := addIdx[k], addIdx[k+1]
		mut := append([]streamStep(nil), rec.steps...)
		mut[i], mut[j] = mut[j], mut[i]
		if rejected(mut) {
			perms++
		}
	}
	if perms == 0 {
		t.Error("no permuted-step mutation was rejected")
	}

	flips := 0
	for _, i := range addIdx {
		if len(rec.steps[i].lits) == 0 {
			continue
		}
		mut := append([]streamStep(nil), rec.steps...)
		lits := append([]sat.Lit(nil), mut[i].lits...)
		lits[0] = lits[0].Neg()
		mut[i] = streamStep{op: sat.ProofAdd, lits: lits}
		if rejected(mut) {
			flips++
		}
	}
	if flips == 0 {
		t.Error("no flipped-literal mutation was rejected")
	}
}

// TestCheckerDeletionBoundsMemory: honored deletes shrink the live set,
// unmatched deletes are ignored, and unit-like clauses are retained.
func TestCheckerDeletionBoundsMemory(t *testing.T) {
	ck := New()
	ck.Step(sat.ProofInput, toLits([]int{1, 2, 3}))
	ck.Step(sat.ProofInput, toLits([]int{-1, 2, 3}))
	if ck.Live() != 2 {
		t.Fatalf("live = %d, want 2", ck.Live())
	}
	ck.Step(sat.ProofAdd, toLits([]int{2, 3})) // resolvent: RUP
	if ck.Err() != nil {
		t.Fatal(ck.Err())
	}
	if ck.Live() != 3 {
		t.Fatalf("live = %d, want 3", ck.Live())
	}
	ck.Step(sat.ProofDelete, toLits([]int{1, 2, 3}))
	if ck.Live() != 2 {
		t.Fatalf("live = %d after delete, want 2", ck.Live())
	}
	ck.Step(sat.ProofDelete, toLits([]int{1, 2, 3})) // unmatched now
	if ck.Live() != 2 || ck.Err() != nil {
		t.Fatalf("unmatched delete: live=%d err=%v", ck.Live(), ck.Err())
	}
}

// TestDumpFormats checks the DIMACS + DRAT text rendering.
func TestDumpFormats(t *testing.T) {
	d := NewDump()
	d.Step(sat.ProofInput, toLits([]int{1, -2}))
	d.Step(sat.ProofInput, toLits([]int{2, 3}))
	d.Step(sat.ProofAdd, toLits([]int{1, 3}))
	d.Step(sat.ProofDelete, toLits([]int{2, 3}))

	var cnf bytes.Buffer
	if err := d.WriteDIMACS(&cnf); err != nil {
		t.Fatal(err)
	}
	want := "p cnf 3 2\n1 -2 0\n2 3 0\n"
	if cnf.String() != want {
		t.Fatalf("DIMACS = %q, want %q", cnf.String(), want)
	}

	var proof bytes.Buffer
	if err := d.WriteProof(&proof); err != nil {
		t.Fatal(err)
	}
	if got := proof.String(); got != "1 3 0\nd 2 3 0\n" {
		t.Fatalf("proof = %q", got)
	}
	if d.Inputs() != 2 {
		t.Fatalf("inputs = %d, want 2", d.Inputs())
	}
}

// TestTeeFansOut: a teed stream reaches both the checker and the dump.
func TestTeeFansOut(t *testing.T) {
	ck := New()
	d := NewDump()
	nv, cnf := php(4, 3)
	s := buildSolver(t, nv, cnf, Tee(ck, d))
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	if err := ck.VerifyUnsat(); err != nil {
		t.Fatal(err)
	}
	var proof strings.Builder
	if err := d.WriteProof(&proof); err != nil {
		t.Fatal(err)
	}
	if proof.Len() == 0 || d.Inputs() != len(cnf) {
		t.Fatalf("dump missed steps: proof=%d bytes inputs=%d want %d", proof.Len(), d.Inputs(), len(cnf))
	}
}

// TestCheckerCloneIndependent: steps fed to a clone never reach the
// original and the reverse, and the counters carry over at the fork.
func TestCheckerCloneIndependent(t *testing.T) {
	ck := New()
	ck.Step(sat.ProofInput, toLits([]int{1, 2, 3}))
	ck.Step(sat.ProofInput, toLits([]int{-1, 2, 3}))
	ck.Step(sat.ProofInput, toLits([]int{-2, 4}))
	ck.Step(sat.ProofAdd, toLits([]int{2, 3}))
	if ck.Err() != nil {
		t.Fatal(ck.Err())
	}
	cl := ck.Clone()
	if cl.Steps() != ck.Steps() || cl.Additions() != ck.Additions() || cl.Live() != ck.Live() {
		t.Fatalf("clone counters steps=%d adds=%d live=%d, original %d/%d/%d",
			cl.Steps(), cl.Additions(), cl.Live(), ck.Steps(), ck.Additions(), ck.Live())
	}

	// Clone leg: refute the formula (units ¬3 and ¬4 force 2, then ¬2).
	cl.Step(sat.ProofInput, toLits([]int{-3}))
	cl.Step(sat.ProofInput, toLits([]int{-4}))
	if err := cl.VerifyUnsat(); err != nil {
		t.Fatalf("clone refutation: %v", err)
	}
	if ck.Empty() || ck.VerifyUnsat() == nil {
		t.Fatal("clone's inputs reached the original")
	}
	if ck.Steps() != 4 || ck.Live() != 4 {
		t.Fatalf("original moved: steps=%d live=%d", ck.Steps(), ck.Live())
	}
	// The clone's root units (¬3, ¬4, ¬2) do not exist for the original:
	// the opposite units are consistent there.
	orig := ck.Clone()
	orig.Step(sat.ProofInput, toLits([]int{3}))
	orig.Step(sat.ProofInput, toLits([]int{4}))
	if orig.Empty() {
		t.Fatal("the clone's root assignment reached the original")
	}

	// Original leg: a deletion and a bogus addition stay on the original.
	ck.Step(sat.ProofDelete, toLits([]int{2, 3}))
	ck.Step(sat.ProofAdd, toLits([]int{-2}))
	if ck.Err() == nil {
		t.Fatal("underivable clause accepted on the original")
	}
	if cl.Err() != nil {
		t.Fatalf("original's error reached the clone: %v", cl.Err())
	}

	// A deletion on the original after the fork leaves the clone's
	// database whole: (2 3) stays RUP there from (1 2 3) and (-1 2 3).
	orig = New()
	orig.Step(sat.ProofInput, toLits([]int{1, 2, 3}))
	orig.Step(sat.ProofInput, toLits([]int{-1, 2, 3}))
	fork := orig.Clone()
	orig.Step(sat.ProofDelete, toLits([]int{1, 2, 3}))
	if orig.Live() != 1 || fork.Live() != 2 {
		t.Fatalf("after delete on the original: live %d / clone %d, want 1 / 2", orig.Live(), fork.Live())
	}
	fork.Step(sat.ProofAdd, toLits([]int{2, 3}))
	if fork.Err() != nil || fork.RATs() != 0 {
		t.Fatalf("clone lost a clause the original deleted after the fork: err=%v rats=%d", fork.Err(), fork.RATs())
	}
}

// TestCheckerCloneRefutedAndRAT: a clone of a refuted checker stays
// refuted, and the RAT counter is copied — so a clone forked after a RAT
// addition refuses assumption certificates just like its original.
func TestCheckerCloneRefutedAndRAT(t *testing.T) {
	ref := New()
	ref.Step(sat.ProofInput, toLits([]int{1}))
	ref.Step(sat.ProofInput, toLits([]int{-1}))
	if !ref.Empty() {
		t.Fatal("x and ¬x not refuted")
	}
	cl := ref.Clone()
	if !cl.Empty() || cl.VerifyUnsat() != nil {
		t.Fatal("clone of a refuted checker is not refuted")
	}
	cl.Step(sat.ProofInput, toLits([]int{2, 3}))
	if cl.VerifyUnsat() != nil {
		t.Fatal("refuted clone lost its refutation after more input")
	}

	// (1) is not RUP over {(1 2)} but is RAT on pivot 1: no clause holds
	// ¬1. With (¬1 3) added afterwards, 3 is a root fact, so the clause
	// (3) is RUP — yet the inputs (1 2), (¬1 3) are satisfiable under the
	// assumption ¬3. Only the RAT guard stands between that RUP check and
	// a wrong certificate.
	rat := New()
	rat.Step(sat.ProofInput, toLits([]int{1, 2}))
	rat.Step(sat.ProofAdd, toLits([]int{1}))
	rat.Step(sat.ProofInput, toLits([]int{-1, 3}))
	if rat.Err() != nil || rat.RATs() != 1 {
		t.Fatalf("RAT addition: err=%v rats=%d", rat.Err(), rat.RATs())
	}
	fork := rat.Clone()
	if fork.RATs() != 1 {
		t.Fatalf("clone RATs = %d, want 1", fork.RATs())
	}
	notThree := sat.NegLit(2)
	if !fork.rup([]sat.Lit{notThree.Neg()}) {
		t.Fatal("(3) should be RUP after the RAT unit")
	}
	if err := fork.VerifyUnsat(notThree); err == nil {
		t.Fatal("assumption certificate accepted after a RAT addition")
	}
}

// TestVerifyUnsatAssumptionNeedsRUP: an assumption clause that is only
// RAT over the database does not certify Unsat. (x) is RAT over {(x y)}
// because no clause holds ¬x, yet the formula is satisfiable under ¬x.
func TestVerifyUnsatAssumptionNeedsRUP(t *testing.T) {
	ck := New()
	ck.Step(sat.ProofInput, toLits([]int{1, 2}))
	if err := ck.VerifyUnsat(sat.NegLit(0)); err == nil {
		t.Fatal("satisfiable assumption certified unsat by RAT")
	}
	ck.Step(sat.ProofInput, toLits([]int{-2}))
	if err := ck.VerifyUnsat(sat.NegLit(0)); err != nil {
		t.Fatalf("RUP assumption clause rejected: %v", err)
	}
}

// TestCheckerRATSeesRootUnits: unit clauses live on the root trail, not
// in the clause store, so a RAT scan cannot find them as resolution
// partners. (¬x) after the input (x) must still be rejected — accepted,
// it would refute a satisfiable formula.
func TestCheckerRATSeesRootUnits(t *testing.T) {
	ck := New()
	ck.Step(sat.ProofInput, toLits([]int{1}))
	ck.Step(sat.ProofInput, toLits([]int{2, 3}))
	ck.Step(sat.ProofAdd, toLits([]int{-1}))
	if ck.Err() == nil {
		t.Fatal("(¬x) accepted after the unit input (x)")
	}
	if ck.VerifyUnsat() == nil {
		t.Fatal("satisfiable formula certified unsat")
	}
	// A clause satisfied at the root by ¬x is dropped from the store the
	// same way; a RAT addition on pivot x must not slip past it either.
	ck = New()
	ck.Step(sat.ProofInput, toLits([]int{-1}))
	ck.Step(sat.ProofInput, toLits([]int{-1, 2}))
	ck.Step(sat.ProofAdd, toLits([]int{1, -2}))
	if ck.Err() == nil {
		t.Fatal("RAT on a pivot false at the root accepted")
	}
}
