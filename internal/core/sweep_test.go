package core

import (
	"fmt"
	"testing"

	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
)

// TestSweepMatchesVerify pins the sweep's soundness: for every budget in
// a k-sweep, the sweep's verdict equals the cold reference's (ColdVerify:
// a from-scratch encoding with the budget asserted), and any reported
// vector is a genuine minimal violation.
func TestSweepMatchesVerify(t *testing.T) {
	cfg, err := scadanet.CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, prop := range []Property{Observability, SecuredObservability} {
		sw, err := a.NewSweep(prop, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= 6; k++ {
			inc, err := sw.VerifyK(k)
			if err != nil {
				t.Fatal(err)
			}
			fresh := a.ColdVerify(Query{Property: prop, Combined: true, K: k})
			if inc.Status != fresh.Status {
				t.Fatalf("%v k=%d: sweep %v, fresh %v", prop, k, inc.Status, fresh.Status)
			}
			if inc.Status == sat.Sat {
				// The witness may differ between search strategies, but it
				// must be a real violation within the budget.
				if inc.Vector == nil || inc.Vector.Size() > k {
					t.Fatalf("%v k=%d: bad vector %v", prop, k, inc.Vector)
				}
				f := failuresOf(*inc.Vector)
				if !a.violatedUnder(Query{Property: prop}, f) {
					t.Fatalf("%v k=%d: vector %v does not violate the property", prop, k, inc.Vector)
				}
			}
			if inc.Stats.Solves != 1 {
				t.Fatalf("per-solve stats: Solves = %d, want 1", inc.Stats.Solves)
			}
		}
	}
}

func failuresOf(v ThreatVector) Failures {
	f := Failures{Devices: map[scadanet.DeviceID]bool{}, Links: map[scadanet.LinkID]bool{}}
	for _, id := range v.Devices() {
		f.Devices[id] = true
	}
	for _, id := range v.Links {
		f.Links[id] = true
	}
	return f
}

// TestSweepSplitBudgets exercises VerifySplit against the cold reference.
func TestSweepSplitBudgets(t *testing.T) {
	cfg, err := scadanet.CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := a.NewSweep(Observability, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k1 := 0; k1 <= 3; k1++ {
		for k2 := 0; k2 <= 2; k2++ {
			inc, err := sw.VerifySplit(k1, k2)
			if err != nil {
				t.Fatal(err)
			}
			fresh := a.ColdVerify(Query{Property: Observability, K1: k1, K2: k2})
			if inc.Status != fresh.Status {
				t.Fatalf("(%d,%d): sweep %v, fresh %v", k1, k2, inc.Status, fresh.Status)
			}
		}
	}
}

// TestSweepInvalidQuery checks validation still applies on the fast path.
func TestSweepInvalidQuery(t *testing.T) {
	cfg, err := scadanet.CaseStudyConfig(false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.NewSweep(Property(42), 0, 0); err == nil {
		t.Fatal("bad property must error")
	}
	sw, err := a.NewSweep(Observability, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.VerifyK(-1); err == nil {
		t.Fatal("negative budget must error")
	}
}

// TestEnumerateBudgetPerSolve is the regression test for the conflict
// budget during threat enumeration: the budget must be granted anew for
// every solve of the enumeration loop, not consumed across the whole
// enumeration. The test measures the real per-solve conflict profile of
// an enumeration, then re-runs it with a budget sized between the
// largest single solve and the cumulative total: under per-solve
// semantics the full threat space is still enumerated; under shared
// semantics the loop would die mid-way with vectors missing.
func TestEnumerateBudgetPerSolve(t *testing.T) {
	cfg := synthConfig(t, powergrid.IEEE14(), 7020, 2)
	q := Query{Property: Observability, K1: 2, K2: 1}

	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Profile the unbudgeted enumeration solve by solve, on the encoder
	// EnumerateThreats itself starts from.
	enc, err := a.enumEncoder(q)
	if err != nil {
		t.Fatal(err)
	}
	var maxDelta, prev uint64
	solves := 0
	for {
		status := enc.Solve()
		total := enc.Solver().Stats().Conflicts
		if d := total - prev; d > maxDelta {
			maxDelta = d
		}
		prev = total
		solves++
		if status != sat.Sat {
			break
		}
		v := a.minimizeVector(q, a.extractVector(q, enc))
		block := make(map[string]bool, v.Size())
		for _, id := range v.Devices() {
			block[fmt.Sprintf("Node_%d", id)] = false
		}
		enc.Block(block)
	}
	totalConflicts := prev
	if totalConflicts <= maxDelta+1 || solves < 3 {
		t.Skipf("instance cannot discriminate budget semantics (total=%d max=%d solves=%d)",
			totalConflicts, maxDelta, solves)
	}

	full, err := a.EnumerateThreats(q, 0)
	if err != nil {
		t.Fatal(err)
	}

	budget := maxDelta + 1 // every single solve fits; the sum does not
	if budget >= totalConflicts {
		t.Skipf("no budget separates per-solve (%d) from cumulative (%d)", maxDelta, totalConflicts)
	}
	ab, err := NewAnalyzer(cfg, WithConflictBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ab.EnumerateThreats(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(full) {
		t.Fatalf("budget %d enumerated %d vectors, want all %d: budget was consumed across solves",
			budget, len(got), len(full))
	}
}
