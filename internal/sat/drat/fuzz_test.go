package drat

import (
	"testing"

	"scadaver/internal/sat"
)

// cnfFromBytes decodes fuzz input into a small CNF: the first byte
// picks the variable count (3..10), each following byte is either a
// literal (mod 2*nv) or a clause terminator. Clause and width caps keep
// brute-force ground truth affordable.
func cnfFromBytes(data []byte) (nv int, cnf [][]int) {
	if len(data) < 2 {
		return 0, nil
	}
	nv = 3 + int(data[0])%8
	mod := 2*nv + 1
	var cl []int
	flush := func() {
		if len(cl) > 0 && len(cnf) < 64 {
			cnf = append(cnf, cl)
		}
		cl = nil
	}
	for _, b := range data[1:] {
		code := int(b) % mod
		if code == 2*nv {
			flush()
			continue
		}
		lit := code/2 + 1
		if code%2 == 1 {
			lit = -lit
		}
		if len(cl) < 5 {
			cl = append(cl, lit)
		}
	}
	flush()
	return nv, cnf
}

// FuzzDRATCheck cross-checks the proof pipeline on fuzz-shaped CNFs:
//
//  1. Completeness — every proof the solver emits (plain, simplified,
//     or inprocessed pipeline, chosen by an input byte) must check, and
//     an Unsat verdict must be certifiable via VerifyUnsat.
//  2. Verdict soundness — solver answers must match brute force.
//  3. Checker soundness — weakening the logged input formula (dropping
//     or literal-flipping an input clause) while replaying the
//     unchanged derivation must be rejected whenever the weakened
//     formula is in fact satisfiable; accepting it would certify a
//     wrong unsat answer, the exact failure certification exists to
//     catch.
//  4. Mutation detection — dropping the final derivation step must
//     leave the refutation uncertified (unless an earlier step already
//     derived the empty clause).
//  5. Clone transparency — every replay above also runs split: the
//     stream is cut at an input-chosen step, the checker cloned there,
//     and the rest fed to the clone. Its Err, Empty and VerifyUnsat must
//     match the straight run, so a genuine proof still checks and a
//     mutated one is still rejected across a fork.
func FuzzDRATCheck(f *testing.F) {
	f.Add([]byte{0, 1, 16, 3, 16, 5, 16})
	f.Add([]byte{3, 0, 2, 16, 1, 3, 16, 5, 4, 16, 2, 7, 16})
	f.Add([]byte{7, 0, 16, 1, 16}) // x and ¬x: unsat at the root
	f.Add([]byte{1, 0, 2, 4, 16, 1, 3, 16, 5, 16, 0, 3, 5, 16, 2, 16, 4, 1, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		nv, cnf := cnfFromBytes(data)
		if len(cnf) == 0 {
			return
		}
		rec := &stream{}
		s := sat.New()
		s.SetProofHook(rec)
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			if err := s.AddClause(toLits(cl)...); err != nil {
				t.Fatalf("AddClause(%v): %v", cl, err)
			}
		}
		switch data[len(data)-1] % 3 {
		case 1:
			s.Simplify()
		case 2:
			s.SetInprocess(true)
		}
		st := s.Solve()
		want := bruteForceSat(nv, cnf)

		if st == sat.Sat {
			if !want {
				t.Fatalf("solver sat, brute force unsat: %v", cnf)
			}
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
					t.Fatalf("model falsifies clause %v", cl)
				}
			}
			return
		}
		if st != sat.Unsat {
			t.Fatalf("unexpected status %v", st)
		}
		if want {
			t.Fatalf("solver unsat, brute force sat: %v", cnf)
		}

		cut := int(data[len(data)/2])
		replay := func(steps []streamStep) *Checker { return replayBoth(t, steps, cut) }

		// (1) The genuine proof must check.
		ck := replay(rec.steps)
		if err := ck.Err(); err != nil {
			t.Fatalf("proof step rejected: %v", err)
		}
		if err := ck.VerifyUnsat(); err != nil {
			t.Fatalf("unsat not certified: %v", err)
		}

		// (3) Weakened-input replays must not certify satisfiable
		// formulas. The logged Input steps ARE the formula the proof is
		// about, so the weakened ground truth is computed from them.
		var inputs [][]int
		for _, step := range rec.steps {
			if step.op == sat.ProofInput {
				inputs = append(inputs, fromLits(step.lits))
			}
		}
		ordinal := -1
		for i, step := range rec.steps {
			if step.op != sat.ProofInput {
				continue
			}
			ordinal++
			mut := append([]streamStep(nil), rec.steps[:i]...)
			mut = append(mut, rec.steps[i+1:]...)
			weaker := append(append([][]int(nil), inputs[:ordinal]...), inputs[ordinal+1:]...)
			if bruteForceSat(nv, weaker) {
				if mck := replay(mut); mck.Err() == nil && mck.VerifyUnsat() == nil {
					t.Fatalf("checker certified unsat for a satisfiable weakening (dropped input %d)", ordinal)
				}
			}
		}

		// (4) Dropping the final derivation step must leave the
		// refutation uncertified unless redundancy covers it.
		last := -1
		for i, step := range rec.steps {
			if step.op == sat.ProofAdd {
				last = i
			}
		}
		if last >= 0 {
			mut := append([]streamStep(nil), rec.steps[:last]...)
			mut = append(mut, rec.steps[last+1:]...)
			mck := replay(mut)
			if !mck.Empty() && mck.VerifyUnsat() == nil {
				t.Fatal("dropped final step still certified")
			}
		}
	})
}

// fromLits converts sat literals back to 1-based DIMACS-style ints.
func fromLits(lits []sat.Lit) []int {
	out := make([]int, len(lits))
	for i, l := range lits {
		n := int(l.Var()) + 1
		if l.Sign() {
			n = -n
		}
		out[i] = n
	}
	return out
}

// replayBoth replays steps straight into one checker and split across a
// Clone taken after cut%(len(steps)+1) steps: the rest goes to the clone
// and, separately, to the checker it was cloned from. It fails the test
// when either leg disagrees with the straight run on Err, Empty or
// VerifyUnsat, and returns the straight checker.
func replayBoth(t *testing.T, steps []streamStep, cut int) *Checker {
	t.Helper()
	straight := replayInto(steps)
	cut %= len(steps) + 1
	head := replayInto(steps[:cut])
	before := head.Steps()
	split := head.Clone()
	for _, st := range steps[cut:] {
		split.Step(st.op, st.lits)
	}
	if head.Steps() != before {
		t.Fatalf("steps fed to the clone reached the original (%d -> %d)", before, head.Steps())
	}
	// The original, continued on its own after the fork, must not see
	// the clone's work either.
	for _, st := range steps[cut:] {
		head.Step(st.op, st.lits)
	}
	okErr := func(err error) bool { return err == nil }
	for _, leg := range []struct {
		name string
		ck   *Checker
	}{{"clone", split}, {"original", head}} {
		if okErr(leg.ck.Err()) != okErr(straight.Err()) || leg.ck.Empty() != straight.Empty() ||
			okErr(leg.ck.VerifyUnsat()) != okErr(straight.VerifyUnsat()) {
			t.Fatalf("split at %d/%d, %s: err=%v empty=%v unsat=%v, straight err=%v empty=%v unsat=%v",
				cut, len(steps), leg.name, leg.ck.Err(), leg.ck.Empty(), leg.ck.VerifyUnsat(),
				straight.Err(), straight.Empty(), straight.VerifyUnsat())
		}
	}
	return straight
}
