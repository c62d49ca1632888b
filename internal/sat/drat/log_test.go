package drat

import (
	"fmt"
	"math/rand"
	"testing"

	"scadaver/internal/sat"
)

// sameChecker fails the test unless got, fed a stream through a Log, is
// indistinguishable from want, stepped with it directly: the same Err,
// Empty, Steps, Additions, RATs and VerifyUnsat, bare and under
// assumptions.
func sameChecker(t *testing.T, where string, got, want *Checker, assumptions []sat.Lit) {
	t.Helper()
	errText := func(err error) string { return fmt.Sprint(err) }
	if errText(got.Err()) != errText(want.Err()) || got.Empty() != want.Empty() ||
		got.Steps() != want.Steps() || got.Additions() != want.Additions() || got.RATs() != want.RATs() {
		t.Fatalf("%s: err=%v empty=%v steps=%d adds=%d rats=%d, direct err=%v empty=%v steps=%d adds=%d rats=%d",
			where, got.Err(), got.Empty(), got.Steps(), got.Additions(), got.RATs(),
			want.Err(), want.Empty(), want.Steps(), want.Additions(), want.RATs())
	}
	if g, w := errText(got.VerifyUnsat()), errText(want.VerifyUnsat()); g != w {
		t.Fatalf("%s: VerifyUnsat() = %s, direct %s", where, g, w)
	}
	if g, w := errText(got.VerifyUnsat(assumptions...)), errText(want.VerifyUnsat(assumptions...)); g != w {
		t.Fatalf("%s: VerifyUnsat(%v) = %s, direct %s", where, assumptions, g, w)
	}
}

// logSteps records steps into l through one reused literal buffer that
// is scribbled over after every step, as the solver reuses its own: a
// Log that kept the caller's slice would replay garbage.
func logSteps(l *Log, steps []streamStep) {
	var buf []sat.Lit
	for _, st := range steps {
		buf = append(buf[:0], st.lits...)
		l.Step(st.op, buf)
		for i := range buf {
			buf[i] = 1 << 20
		}
	}
}

// checkLogReplay holds a Log to the stream it recorded, two ways. Whole:
// every step logged, then drained once into a fresh checker. Split: the
// steps before cut drained into a checker, which is then cloned; the
// rest logged afterwards and drained into the clone, as a Sweep's
// pending steps catch up a checker forked from a snapshot's. Both must
// match a checker stepped directly, and the log must count the steps it
// drains and every addition it recorded.
func checkLogReplay(t *testing.T, steps []streamStep, cut int, assumptions []sat.Lit) {
	t.Helper()
	direct := replayInto(steps)
	adds := 0
	for _, st := range steps {
		if st.op == sat.ProofAdd {
			adds++
		}
	}

	var whole Log
	logSteps(&whole, steps)
	if whole.Additions() != adds {
		t.Fatalf("logged %d additions, Additions=%d", adds, whole.Additions())
	}
	ck := New()
	if n := whole.Drain(ck); n != len(steps) {
		t.Fatalf("Drain replayed %d of %d steps", n, len(steps))
	}
	if n := whole.Drain(ck); n != 0 {
		t.Fatalf("second Drain replayed %d steps", n)
	}
	sameChecker(t, "whole", ck, direct, assumptions)

	var split Log
	head := New()
	logSteps(&split, steps[:cut])
	split.Drain(head)
	before := head.Steps()
	fork := head.Clone()
	logSteps(&split, steps[cut:])
	if n := split.Drain(fork); n != len(steps)-cut {
		t.Fatalf("split at %d: Drain replayed %d of %d pending steps", cut, n, len(steps)-cut)
	}
	if head.Steps() != before {
		t.Fatalf("split at %d: steps drained into the clone reached the original", cut)
	}
	if split.Additions() != adds {
		t.Fatalf("split at %d: Additions=%d, logged %d", cut, split.Additions(), adds)
	}
	sameChecker(t, fmt.Sprintf("split at %d/%d", cut, len(steps)), fork, direct, assumptions)
}

// TestProofLogReplay replays the seeded reference streams — rejected,
// refuted, open and RAT-bearing ones — through a Log.
func TestProofLogReplay(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := refStream(rng, &refChecker{}, 20+rng.Intn(120))
		assumptions := []sat.Lit{sat.MkLit(sat.Var(rng.Intn(4)), rng.Intn(2) == 0), sat.MkLit(sat.Var(rng.Intn(4)), rng.Intn(2) == 0)}
		checkLogReplay(t, steps, rng.Intn(len(steps)+1), assumptions)
	}
}

// FuzzProofLogReplay holds a Log to direct stepping on fuzz-shaped
// streams (fuzzSteps), drained whole and split across a Clone at a cut
// the last byte picks.
func FuzzProofLogReplay(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := fuzzSteps(data)
		if len(steps) == 0 {
			return
		}
		cut := int(data[len(data)-1]) % (len(steps) + 1)
		checkLogReplay(t, steps, cut, []sat.Lit{0, 3})
	})
}
